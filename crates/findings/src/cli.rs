//! The workspace's one command-line reader: a cursor over argv that every
//! argument-taking binary reads its flags and positionals through.
//!
//! A token that starts with `-` (other than a lone `-`) is a flag, so a
//! misspelled flag is reported as unknown instead of being taken as a
//! positional. `--help` or `-h` anywhere is a help request. A flag's
//! value is the next token, taken verbatim.
//!
//! Errors carry no tool name; [`parse_env`] adds it when it reports one.
//! Help prints the usage on stdout and exits 0. A usage error prints
//! `<tool>: <message>` and the usage on stderr and exits 2.

use std::str::FromStr;

/// One command-line token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg<'a> {
    /// A token starting with `-`, e.g. `--design`.
    Flag(&'a str),
    /// Any other token.
    Positional(&'a str),
}

/// Why reading the command line stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`.
    Help,
    /// A usage error, with a message that names the offending token.
    Usage(String),
}

impl CliError {
    /// A usage error with this message.
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError::Usage(message.into())
    }

    /// The error for a token the binary does not take.
    pub fn unexpected(arg: Arg<'_>) -> CliError {
        match arg {
            Arg::Flag(flag) => CliError::usage(format!("unknown flag `{flag}`")),
            Arg::Positional(p) => CliError::usage(format!("unexpected argument `{p}`")),
        }
    }

    /// Prints the error for `tool` as described in the module doc and
    /// returns the exit status: 0 for help, 2 for a usage error.
    fn report(&self, tool: &str, usage: &str) -> u8 {
        match self {
            CliError::Help => {
                println!("{usage}");
                0
            }
            CliError::Usage(message) => {
                eprintln!("{tool}: {message}\n{usage}");
                2
            }
        }
    }
}

/// A cursor over the arguments after the program name.
#[derive(Debug)]
pub struct Cli {
    args: std::vec::IntoIter<String>,
    current: String,
    flag: String,
    value: String,
}

impl Cli {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Cli {
        Cli::new(std::env::args().skip(1).collect())
    }

    /// The given arguments (no program name).
    pub fn new(args: Vec<String>) -> Cli {
        Cli {
            args: args.into_iter(),
            current: String::new(),
            flag: String::new(),
            value: String::new(),
        }
    }

    /// The next flag or positional, `None` at the end.
    pub fn next_arg(&mut self) -> Result<Option<Arg<'_>>, CliError> {
        let Some(token) = self.args.next() else {
            return Ok(None);
        };
        if token == "--help" || token == "-h" {
            return Err(CliError::Help);
        }
        self.current = token;
        if self.current.starts_with('-') && self.current != "-" {
            self.flag.clone_from(&self.current);
            Ok(Some(Arg::Flag(&self.current)))
        } else {
            Ok(Some(Arg::Positional(&self.current)))
        }
    }

    /// The value of the flag last returned by [`Cli::next_arg`].
    pub fn value(&mut self) -> Result<String, CliError> {
        match self.args.next() {
            Some(value) => {
                self.value.clone_from(&value);
                Ok(value)
            }
            None => Err(CliError::usage(format!("{} needs a value", self.flag))),
        }
    }

    /// The value of the last flag, parsed.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, CliError> {
        self.parse_with(|v| v.parse().ok())
    }

    /// The value of the last flag, read by `read`.
    pub fn parse_with<T>(&mut self, read: impl FnOnce(&str) -> Option<T>) -> Result<T, CliError> {
        let value = self.value()?;
        read(&value).ok_or_else(|| self.bad_value())
    }

    /// The value of the last flag as a comma-separated list, each item
    /// trimmed and parsed.
    pub fn list<T: FromStr>(&mut self) -> Result<Vec<T>, CliError> {
        self.list_with(|item| item.parse().ok())
    }

    /// The value of the last flag as a comma-separated list, each item
    /// trimmed and read by `read`.
    pub fn list_with<T>(
        &mut self,
        read: impl FnMut(&str) -> Option<T>,
    ) -> Result<Vec<T>, CliError> {
        let value = self.value()?;
        value
            .split(',')
            .map(str::trim)
            .map(read)
            .collect::<Option<_>>()
            .ok_or_else(|| self.bad_value())
    }

    /// A usage error naming the last flag and value unless `ok` holds:
    /// the range check after a [`Cli::parse`] or [`Cli::list`].
    pub fn ensure(&self, ok: bool) -> Result<(), CliError> {
        if ok {
            Ok(())
        } else {
            Err(self.bad_value())
        }
    }

    fn bad_value(&self) -> CliError {
        CliError::usage(format!("bad {} value `{}`", self.flag, self.value))
    }
}

/// Reads the process's command line with `parse`. On help or a usage
/// error it reports as described in the module doc and exits.
pub fn parse_env<T>(
    tool: &str,
    usage: &str,
    parse: impl FnOnce(&mut Cli) -> Result<T, CliError>,
) -> T {
    parse(&mut Cli::from_env())
        .unwrap_or_else(|e| std::process::exit(i32::from(e.report(tool, usage))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::new(args.iter().map(|s| s.to_string()).collect())
    }

    /// Every token, as the binaries see them.
    fn tokens(args: &[&str]) -> Result<Vec<String>, CliError> {
        let mut cli = cli(args);
        let mut out = Vec::new();
        while let Some(arg) = cli.next_arg()? {
            out.push(format!("{arg:?}"));
        }
        Ok(out)
    }

    #[test]
    fn help_is_a_request_in_any_position() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["vector", "--help"],
            &["--list", "-h"],
        ] {
            assert_eq!(tokens(args), Err(CliError::Help), "{args:?}");
        }
    }

    #[test]
    fn a_misspelled_flag_is_a_flag_not_a_positional() {
        assert_eq!(
            tokens(&["vector", "--partition", "auto", "-"]).unwrap(),
            [
                "Positional(\"vector\")",
                "Flag(\"--partition\")",
                "Positional(\"auto\")",
                "Positional(\"-\")"
            ]
        );
        assert_eq!(
            CliError::unexpected(Arg::Flag("--partition")),
            CliError::usage("unknown flag `--partition`")
        );
        assert_eq!(
            CliError::unexpected(Arg::Positional("extra")),
            CliError::usage("unexpected argument `extra`")
        );
    }

    #[test]
    fn values_are_taken_verbatim_and_errors_name_the_flag() {
        let mut c = cli(&["--design", "--list", "--budget", "x", "--clock"]);
        assert_eq!(c.next_arg(), Ok(Some(Arg::Flag("--design"))));
        assert_eq!(c.value().as_deref(), Ok("--list"));
        assert_eq!(c.next_arg(), Ok(Some(Arg::Flag("--budget"))));
        assert_eq!(
            c.parse::<usize>(),
            Err(CliError::usage("bad --budget value `x`"))
        );
        assert_eq!(c.next_arg(), Ok(Some(Arg::Flag("--clock"))));
        assert_eq!(
            c.parse::<f64>(),
            Err(CliError::usage("--clock needs a value"))
        );
        assert_eq!(c.next_arg(), Ok(None));
    }

    #[test]
    fn lists_split_on_commas_and_trim() {
        let mut c = cli(&["--clocks", "300, 333", "--seeds", "1,,2"]);
        c.next_arg().unwrap();
        assert_eq!(c.list::<f64>(), Ok(vec![300.0, 333.0]));
        c.ensure(true).unwrap();
        assert_eq!(
            c.ensure(false),
            Err(CliError::usage("bad --clocks value `300, 333`"))
        );
        c.next_arg().unwrap();
        assert_eq!(
            c.list::<u32>(),
            Err(CliError::usage("bad --seeds value `1,,2`"))
        );
    }

    #[test]
    fn reports_exit_zero_for_help_and_two_for_usage() {
        assert_eq!(CliError::Help.report("t", "usage: t"), 0);
        assert_eq!(CliError::usage("bad").report("t", "usage: t"), 2);
    }
}
