//! A small, dependency-free flag parser.
//!
//! Grammar: the first non-flag token is the command; everything else is
//! `--key value` pairs or boolean `--switch`es. A flag is boolean when it
//! is followed by another flag or by nothing. Flags may appear in any
//! order; repeated flags keep the last value. Each command declares the
//! flags it reads, and `Parsed::reject_unknown` turns any other flag into
//! a usage error before the command runs.

use std::collections::HashMap;

use crate::error::CliError;

/// Whether one of the `known` groups (each a whitespace-separated list of
/// flag names) declares flag `name`.
pub(crate) fn declares(known: &[&str], name: &str) -> bool {
    known
        .iter()
        .any(|g| g.split_whitespace().any(|k| k == name))
}

/// Parsed command line: one command plus its flags.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The subcommand (first positional token).
    pub command: String,
    flags: HashMap<String, Option<String>>,
}

impl Parsed {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError::Usage("bare `--` is not a flag".into()));
                }
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                parsed.flags.insert(name.to_owned(), value);
            } else if parsed.command.is_empty() {
                parsed.command = tok.clone();
            } else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument {tok:?}"
                )));
            }
            i += 1;
        }
        if parsed.command.is_empty() {
            return Err(CliError::Usage(format!(
                "no command given\n{}",
                crate::usage()
            )));
        }
        Ok(parsed)
    }

    /// Rejects every flag that [`declares`] does not find in `known`: a
    /// usage error naming each such flag, so a misspelled or removed flag
    /// is never ignored.
    pub(crate) fn reject_unknown(&self, known: &[&str]) -> Result<(), CliError> {
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|name| !declares(known, name))
            .map(|name| format!("--{name}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort();
        Err(CliError::Usage(format!(
            "unknown flag {} for `ppm {}` (see `ppm help`)",
            unknown.join(", "),
            self.command
        )))
    }

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name} VALUE")))
    }

    /// A required parsed flag.
    pub fn required_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse {raw:?}")))
    }

    /// An optional parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse {raw:?}"))),
        }
    }

    /// An optional comma-separated list flag (`--offsets 1,2,3`).
    pub fn parsed_list<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> Result<Option<Vec<T>>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse().map_err(|_| {
                        CliError::Usage(format!("flag --{name}: cannot parse element {s:?}"))
                    })
                })
                .collect::<Result<Vec<T>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = Parsed::parse(&argv("mine --input x.ppmc --period 24 --maximal")).unwrap();
        assert_eq!(p.command, "mine");
        assert_eq!(p.get("input"), Some("x.ppmc"));
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 24);
        assert!(p.switch("maximal"));
        assert!(!p.switch("looping"));
    }

    #[test]
    fn boolean_flag_before_valued_flag() {
        let p = Parsed::parse(&argv("mine --maximal --period 7")).unwrap();
        assert!(p.switch("maximal"));
        assert_eq!(p.get("maximal"), None);
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 7);
    }

    #[test]
    fn missing_command_errors() {
        assert!(Parsed::parse(&argv("--input x")).is_err());
        assert!(Parsed::parse(&[]).is_err());
    }

    #[test]
    fn unexpected_positional_errors() {
        assert!(Parsed::parse(&argv("mine extra")).is_err());
    }

    #[test]
    fn required_flag_errors_when_absent() {
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert!(p.required("input").is_err());
        assert!(p.required_parsed::<usize>("period").is_err());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let p = Parsed::parse(&argv("mine --period abc")).unwrap();
        let err = p.required_parsed::<usize>("period").unwrap_err();
        assert!(err.to_string().contains("--period"));
    }

    #[test]
    fn defaults_apply() {
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert_eq!(p.parsed_or("threads", 1usize).unwrap(), 1);
        let p = Parsed::parse(&argv("mine --threads 8")).unwrap();
        assert_eq!(p.parsed_or("threads", 1usize).unwrap(), 8);
    }

    #[test]
    fn list_flags_split_on_commas() {
        let p = Parsed::parse(&argv("mine --offsets 1,2,3")).unwrap();
        assert_eq!(
            p.parsed_list::<usize>("offsets").unwrap(),
            Some(vec![1, 2, 3])
        );
        let p = Parsed::parse(&argv("mine")).unwrap();
        assert_eq!(p.parsed_list::<usize>("offsets").unwrap(), None);
        let p = Parsed::parse(&argv("mine --offsets 1,x")).unwrap();
        assert!(p.parsed_list::<usize>("offsets").is_err());
    }

    #[test]
    fn repeated_flags_keep_last() {
        let p = Parsed::parse(&argv("mine --period 3 --period 5")).unwrap();
        assert_eq!(p.required_parsed::<usize>("period").unwrap(), 5);
    }

    #[test]
    fn undeclared_flags_are_named_in_the_error() {
        let p = Parsed::parse(&argv("mine --period 3 --egine apriori --zz")).unwrap();
        assert!(p.reject_unknown(&["period engine"]).is_err());
        let err = p.reject_unknown(&["period", "engine"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--egine, --zz"), "{err}");
        assert!(p.reject_unknown(&["period egine zz"]).is_ok());
    }

    #[test]
    fn bare_double_dash_rejected() {
        assert!(Parsed::parse(&argv("mine --")).is_err());
    }
}
