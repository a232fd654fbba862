//! The one reader of the `GCS_*` environment knobs. A malformed value of
//! a known knob, or a `GCS_*` name no subcommand reads, exits 2 with a
//! message naming the variable; neither ever falls back to a default.

use std::fmt;

use gcs_sched::OverloadPolicy;
use gcs_workloads::Scale;

/// Every `GCS_*` variable a subcommand reads: the ones [`parse_env`]
/// parses, plus `GCS_SCHED_POLICY` and `GCS_SCHED_FLEET`, which
/// `schedd` reads as a policy name and a file path.
const KNOBS: [&str; 10] = [
    "GCS_SCALE",
    "GCS_CACHE",
    "GCS_THREADS",
    "GCS_SCHED_GPUS",
    "GCS_SCHED_CAPACITY",
    "GCS_SCHED_READ_MS",
    "GCS_SCHED_REPLAN_SHED",
    "GCS_SCHED_ILP_SHED",
    "GCS_SCHED_POLICY",
    "GCS_SCHED_FLEET",
];

/// The `GCS_*` names among `names` that are not in [`KNOBS`], in order.
fn unknown_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    names
        .into_iter()
        .filter(|n| n.starts_with("GCS_") && !KNOBS.contains(n))
        .collect()
}

/// Exits 2 if the environment sets a `GCS_*` variable no subcommand
/// reads (a misspelt knob would otherwise run with the default).
pub fn reject_unknown_names() {
    let names: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .collect();
    let unknown = unknown_names(names.iter().map(String::as_str));
    if !unknown.is_empty() {
        eprintln!(
            "unknown environment variable(s) {}; the GCS_* knobs are {}",
            unknown.join(", "),
            KNOBS.join(", ")
        );
        std::process::exit(2);
    }
}

/// A `GCS_*` variable set to a value its reader does not accept.
#[derive(Debug, PartialEq)]
struct EnvError {
    /// The variable.
    name: String,
    /// The rejected value.
    value: String,
    /// The values the variable accepts.
    accepted: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not accepted; expected {}", self.name, self.value, self.accepted)
    }
}

/// A parsed `GCS_*` setting (see [`parse_env`]).
#[derive(Debug, PartialEq)]
enum EnvValue {
    /// `GCS_SCALE`.
    Scale(Scale),
    /// `GCS_CACHE`: whether the memo cache is on.
    Switch(bool),
    /// A count; `None` when the variable is unset and the reader's
    /// default applies.
    Count(Option<usize>),
}

/// Parses `value`, the content of environment variable `name` (`None`
/// when unset). Unset always yields the default:
///
/// * `GCS_SCALE`: `full` | `small` | `test` (default `small`);
/// * `GCS_CACHE`: `off` disables the memo cache (default on);
/// * `GCS_THREADS`, `GCS_SCHED_GPUS`: a positive integer;
/// * `GCS_SCHED_CAPACITY`, `GCS_SCHED_READ_MS`, `GCS_SCHED_REPLAN_SHED`,
///   `GCS_SCHED_ILP_SHED`: a non-negative integer.
///
/// # Errors
///
/// [`EnvError`] naming the variable and what it accepts when `value` is
/// anything else; a malformed value never falls back to the default.
///
/// # Panics
///
/// Panics if `name` is not one of the variables above.
fn parse_env(name: &str, value: Option<&str>) -> Result<EnvValue, EnvError> {
    let count = |min: usize| match value {
        None => Some(EnvValue::Count(None)),
        Some(v) => v.parse().ok().filter(|&n| n >= min).map(|n| EnvValue::Count(Some(n))),
    };
    let (accepted, parsed) = match name {
        "GCS_SCALE" => (
            "full, small or test",
            match value.unwrap_or("small") {
                "full" => Some(EnvValue::Scale(Scale::FULL)),
                "small" => Some(EnvValue::Scale(Scale::SMALL)),
                "test" => Some(EnvValue::Scale(Scale::TEST)),
                _ => None,
            },
        ),
        "GCS_CACHE" => (
            "off, or unset for the cache",
            match value {
                None => Some(EnvValue::Switch(true)),
                Some("off") => Some(EnvValue::Switch(false)),
                Some(_) => None,
            },
        ),
        "GCS_THREADS" | "GCS_SCHED_GPUS" => ("a positive integer", count(1)),
        "GCS_SCHED_CAPACITY" | "GCS_SCHED_READ_MS" | "GCS_SCHED_REPLAN_SHED"
        | "GCS_SCHED_ILP_SHED" => ("a non-negative integer", count(0)),
        _ => panic!("{name} is not a GCS_* variable parse_env knows"),
    };
    parsed.ok_or_else(|| EnvError {
        name: name.to_string(),
        value: value.unwrap_or_default().to_string(),
        accepted,
    })
}

/// Reads `name` from the environment through [`parse_env`]. A malformed
/// value prints the [`EnvError`] and exits with status 2.
fn env_value(name: &str) -> EnvValue {
    let raw = std::env::var_os(name);
    let value = raw.as_ref().map(|v| v.to_string_lossy());
    parse_env(name, value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Reads count variable `name` (see [`parse_env`]): `None` when unset.
pub fn env_count(name: &str) -> Option<usize> {
    match env_value(name) {
        EnvValue::Count(n) => n,
        other => unreachable!("{name} parsed as {other:?}"),
    }
}

/// Whether the memo cache is on (`GCS_CACHE`, default on).
pub fn cache_enabled() -> bool {
    match env_value("GCS_CACHE") {
        EnvValue::Switch(on) => on,
        other => unreachable!("GCS_CACHE parsed as {other:?}"),
    }
}

/// The workload scale from `GCS_SCALE` (default `small`): `full` runs
/// the exact experiment sizes, `small` quarters the work, `test` is
/// only meant for smoke tests.
pub fn scale_from_env() -> Scale {
    match env_value("GCS_SCALE") {
        EnvValue::Scale(scale) => scale,
        other => unreachable!("GCS_SCALE parsed as {other:?}"),
    }
}

/// File-name tag for `scale` (`Scale`'s Debug form is a struct, not a
/// name).
pub fn scale_tag(scale: Scale) -> &'static str {
    if scale == Scale::FULL {
        "full"
    } else if scale == Scale::TEST {
        "test"
    } else {
        "small"
    }
}

/// The daemon's overload ladder from `GCS_SCHED_REPLAN_SHED` and
/// `GCS_SCHED_ILP_SHED` (each rung off when unset).
pub fn overload_from_env() -> OverloadPolicy {
    OverloadPolicy {
        replan_pending_limit: env_count("GCS_SCHED_REPLAN_SHED"),
        ilp_pending_limit: env_count("GCS_SCHED_ILP_SHED"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        assert_eq!(parse_env("GCS_SCALE", None), Ok(EnvValue::Scale(Scale::SMALL)));
        assert_eq!(parse_env("GCS_SCALE", Some("test")), Ok(EnvValue::Scale(Scale::TEST)));
    }

    #[test]
    fn unset_variables_keep_their_defaults() {
        assert_eq!(parse_env("GCS_CACHE", None), Ok(EnvValue::Switch(true)));
        assert_eq!(parse_env("GCS_CACHE", Some("off")), Ok(EnvValue::Switch(false)));
        assert_eq!(parse_env("GCS_THREADS", None), Ok(EnvValue::Count(None)));
        assert_eq!(parse_env("GCS_THREADS", Some("3")), Ok(EnvValue::Count(Some(3))));
        assert_eq!(parse_env("GCS_SCHED_READ_MS", Some("0")), Ok(EnvValue::Count(Some(0))));
    }

    #[test]
    fn malformed_values_are_rejected_not_defaulted() {
        for (name, value) in [
            ("GCS_SCALE", "Test"),
            ("GCS_THREADS", "x"),
            ("GCS_THREADS", "0"),
            ("GCS_CACHE", "of"),
            ("GCS_SCHED_GPUS", "two"),
            ("GCS_SCHED_GPUS", "0"),
            ("GCS_SCHED_ILP_SHED", "-1"),
        ] {
            let err = parse_env(name, Some(value)).expect_err(value);
            assert_eq!((err.name.as_str(), err.value.as_str()), (name, value));
            let shown = err.to_string();
            assert!(shown.starts_with(&format!("{name}=\"{value}\"")), "{shown}");
            assert!(shown.contains(err.accepted), "{shown}");
        }
    }

    #[test]
    fn unknown_names_are_rejected_not_ignored() {
        let names = ["PATH", "GCS_SCAL", "GCS_SCALE", "GCS_PROFILE", "GCS_SCHED_FLEET", "XGCS_A"];
        assert_eq!(unknown_names(names), ["GCS_SCAL", "GCS_PROFILE"]);
        // Every knob parse_env reads is known, and every known knob but
        // the two string-valued schedd ones is one parse_env reads.
        for knob in KNOBS {
            let parsed = std::panic::catch_unwind(|| parse_env(knob, None)).is_ok();
            assert_eq!(parsed, !matches!(knob, "GCS_SCHED_POLICY" | "GCS_SCHED_FLEET"), "{knob}");
        }
    }
}
