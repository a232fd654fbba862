//! The one argv reader: `--flag`, `--option VALUE` (parsed to any
//! `FromStr` type) and positionals. Every problem — an option without a
//! value, a value that does not parse, a missing positional, an
//! argument nothing takes — prints the subcommand's usage and exits 2.

use std::str::FromStr;

/// The arguments after the subcommand name. Take options and flags
/// first, then positionals, then call [`Args::finish`].
pub struct Args {
    name: &'static str,
    synopsis: &'static str,
    rest: Vec<String>,
}

impl Args {
    pub fn new(name: &'static str, synopsis: &'static str, rest: Vec<String>) -> Self {
        Args { name, synopsis, rest }
    }

    /// Prints `problem` and the usage line, then exits 2.
    fn fail(&self, problem: &str) -> ! {
        eprintln!("repro {}: {problem}", self.name);
        eprintln!("usage: repro {} {}", self.name, self.synopsis);
        std::process::exit(2)
    }

    /// Removes `--name` and reports whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Removes `--name VALUE` and parses `VALUE`; `None` when the option
    /// is absent.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(i);
        if self.rest.get(i).is_none_or(|v| v.starts_with("--")) {
            self.fail(&format!("{name} needs a value"));
        }
        let raw = self.rest.remove(i);
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(&format!("{name} {raw:?} is not a valid value")),
        }
    }

    /// Removes the next positional argument, described as `what`.
    pub fn positional(&mut self, what: &str) -> String {
        match self.rest.first() {
            Some(a) if !a.starts_with("--") => self.rest.remove(0),
            _ => self.fail(&format!("missing {what}")),
        }
    }

    /// Exits 2 if any argument is left over.
    pub fn finish(self) {
        if let Some(a) = self.rest.first() {
            self.fail(&format!("unexpected argument {a:?}"));
        }
    }

    /// The whole argument list of a figure subcommand: `--profile` or
    /// nothing. Returns whether a phase-cycle profile was requested.
    pub fn profile_only(mut self) -> bool {
        let profile = self.flag("--profile");
        self.finish();
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new("t", "", v.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn options_come_out_before_positionals() {
        let mut a = args(&["BLK", "--json", "x.json", "out.trace", "--n", "7"]);
        assert_eq!(a.value::<String>("--json").as_deref(), Some("x.json"));
        assert_eq!(a.value::<u32>("--n"), Some(7));
        assert_eq!(a.value::<u32>("--absent"), None);
        assert!(!a.flag("--profile"));
        assert_eq!(a.positional("BENCH"), "BLK");
        assert_eq!(a.positional("OUT"), "out.trace");
        a.finish();
    }
}
