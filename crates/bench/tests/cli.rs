//! The `repro` command line rejects every malformed invocation with exit
//! status 2 before any simulation runs: no subcommand, an unknown one, an
//! argument the subcommand does not take, an option without its value or
//! with a value that does not parse, and an unknown `GCS_*` variable.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory for one case, so a regression that writes
/// files writes them where the test can see them.
fn workdir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli").join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Runs `repro args` in `dir` with `env` as its only `GCS_*` variables.
fn repro(dir: &PathBuf, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(dir);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("GCS_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("spawn repro")
}

/// Asserts `repro args` exits 2 and its stderr contains `needle`.
fn rejects(case: &str, args: &[&str], env: &[(&str, &str)], needle: &str) -> PathBuf {
    let dir = workdir(case);
    let out = repro(&dir, args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(needle), "repro {args:?}: stderr lacks {needle:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} printed before failing");
    dir
}

#[test]
fn missing_or_unknown_subcommand_lists_the_subcommands() {
    rejects("none", &[], &[], "fig41_two_app");
    rejects("unknown", &["fig41"], &[], "unknown subcommand \"fig41\"");
}

#[test]
fn unknown_gcs_variable_is_rejected_not_ignored() {
    rejects("scal", &["fig41_two_app"], &[("GCS_SCAL", "test")], "GCS_SCAL");
    rejects("profile_env", &["fig41_two_app"], &[("GCS_PROFILE", "1")], "GCS_PROFILE");
}

#[test]
fn malformed_gcs_value_is_rejected_not_defaulted() {
    rejects("scale", &["fig41_two_app"], &[("GCS_SCALE", "Test")], "GCS_SCALE=\"Test\"");
}

#[test]
fn figure_subcommands_take_only_profile() {
    rejects("bogus", &["fig41_two_app", "--bogus"], &[], "usage: repro fig41_two_app [--profile]");
    rejects("extra", &["fig45_48_dense", "--profile", "x"], &[], "unexpected argument \"x\"");
    rejects("ablation", &["ablation", "--profile"], &[], "usage: repro ablation");
}

#[test]
fn trace_record_option_without_value_is_an_error() {
    let dir = rejects(
        "json_last",
        &["trace_record", "BLK", "out.trace", "--json"],
        &[],
        "--json needs a value",
    );
    assert!(!dir.join("out.trace").exists(), "trace written despite the error");
}

#[test]
fn trace_record_option_is_never_taken_for_the_output_path() {
    let dir = rejects(
        "json_early",
        &["trace_record", "BLK", "--json", "x.json"],
        &[],
        "missing OUT.trace",
    );
    assert!(!dir.join("--json").exists(), "trace written to a file named --json");
}

#[test]
fn unparsable_or_missing_option_values_exit_2_not_panic() {
    rejects("jobs", &["schedd_client", "--jobs", "x"], &[], "--jobs \"x\" is not a valid value");
    rejects("listen", &["schedd", "--listen"], &[], "--listen needs a value");
    rejects("replay", &["trace_replay"], &[], "missing IN.trace");
}
