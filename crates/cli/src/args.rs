//! A small, dependency-free command-line argument parser.
//!
//! The `convoy` tool accepts a subcommand followed by `--key value` options
//! and positional arguments, e.g.
//!
//! ```text
//! convoy discover trajectories.csv --method cuts-star --m 3 --k 60 --e 25
//! ```
//!
//! Rolling our own keeps the workspace inside its approved dependency set;
//! the grammar is deliberately tiny (no `--key=value`, no grouped short
//! flags) but strict: unknown options are an error rather than silently
//! ignored.

use std::collections::BTreeMap;

/// Parsed command-line arguments: positional values and `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedArgs {
    /// Positional arguments in order of appearance.
    pub positional: Vec<String>,
    /// `--key value` options (keys stored without the leading dashes).
    pub options: BTreeMap<String, String>,
    /// `--flag` options that appeared without a value.
    pub flags: Vec<String>,
}

/// An error produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses a raw argument list (without the program name and subcommand).
    ///
    /// An argument starting with `--` becomes an option when it is followed
    /// by a value that does not itself start with `--`; otherwise it becomes
    /// a boolean flag (see [`ParsedArgs::get`] for what asking for its value
    /// does).
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let raw: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut parsed = ParsedArgs::default();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty option name `--`".into()));
                }
                let next_is_value = raw
                    .get(i + 1)
                    .map(|v| !v.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    if parsed.options.contains_key(key) {
                        return Err(ArgError(format!("option --{key} given twice")));
                    }
                    parsed.options.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    parsed.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                parsed.positional.push(arg.clone());
                i += 1;
            }
        }
        Ok(parsed)
    }

    /// Returns the value of `--key`, or `None` when the option is absent.
    /// An option given with no value is the error `--KEY requires a value`,
    /// so a valueless option can never pass for an absent one.
    pub fn get(&self, key: &str) -> Result<Option<&str>, ArgError> {
        match self.options.get(key) {
            Some(value) => Ok(Some(value)),
            None if self.flags.iter().any(|f| f == key) => {
                Err(ArgError(format!("--{key} requires a value")))
            }
            None => Ok(None),
        }
    }

    /// Returns `true` when `--flag` was given (with or without a value).
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag) || self.options.contains_key(flag)
    }

    /// Returns the value of `--key` parsed as `T`, or `None` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key)?
            .map(|value| {
                value
                    .parse::<T>()
                    .map_err(|_| ArgError(format!("cannot parse --{key} value `{value}`")))
            })
            .transpose()
    }

    /// Returns the value of `--key` parsed as `T`, or `default` when absent.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// Returns the value of `--key` parsed as `T`, erroring when absent.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get_parsed(key)?
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Ensures that every supplied option/flag is one of `allowed`, so typos
    /// are reported instead of ignored.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown option --{key} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positional_options_and_flags() {
        let parsed =
            ParsedArgs::parse(["input.csv", "--m", "3", "--verbose", "--e", "2.5"]).unwrap();
        assert_eq!(parsed.positional, vec!["input.csv"]);
        assert_eq!(parsed.get("m"), Ok(Some("3")));
        assert_eq!(parsed.get("e"), Ok(Some("2.5")));
        assert!(parsed.has_flag("verbose"));
        assert!(!parsed.has_flag("quiet"));
    }

    #[test]
    fn typed_access_and_defaults() {
        let parsed = ParsedArgs::parse(["--m", "4"]).unwrap();
        assert_eq!(parsed.get_parsed_or("m", 2usize).unwrap(), 4);
        assert_eq!(parsed.get_parsed_or("k", 9usize).unwrap(), 9);
        assert_eq!(parsed.require_parsed::<usize>("m").unwrap(), 4);
        assert!(parsed.require_parsed::<usize>("missing").is_err());
        let bad = ParsedArgs::parse(["--m", "not-a-number"]).unwrap();
        assert!(bad.get_parsed_or("m", 2usize).is_err());
    }

    #[test]
    fn duplicate_and_empty_options_are_rejected() {
        assert!(ParsedArgs::parse(["--m", "1", "--m", "2"]).is_err());
        assert!(ParsedArgs::parse(["--"]).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_on_request() {
        let parsed = ParsedArgs::parse(["--speed", "3"]).unwrap();
        assert!(parsed.reject_unknown(&["speed"]).is_ok());
        assert!(parsed.reject_unknown(&["m", "k"]).is_err());
    }

    #[test]
    fn flag_followed_by_option_is_a_flag() {
        let parsed = ParsedArgs::parse(["--quiet", "--m", "3"]).unwrap();
        assert!(parsed.has_flag("quiet"));
        assert_eq!(parsed.get("m"), Ok(Some("3")));
    }

    #[test]
    fn asking_for_the_value_of_a_valueless_option_is_an_error() {
        let parsed = ParsedArgs::parse(["--delta", "--m", "3", "--out"]).unwrap();
        let requires = |key: &str| ArgError(format!("--{key} requires a value"));
        assert_eq!(parsed.get("delta").unwrap_err(), requires("delta"));
        assert_eq!(parsed.get("out").unwrap_err(), requires("out"));
        assert_eq!(
            parsed.get_parsed::<f64>("delta").unwrap_err(),
            requires("delta")
        );
        assert_eq!(
            parsed.get_parsed_or("delta", 1.0).unwrap_err(),
            requires("delta")
        );
        assert_eq!(
            parsed.require_parsed::<f64>("out").unwrap_err(),
            requires("out")
        );
        assert_eq!(parsed.get("absent"), Ok(None));
        // Switches stay switches.
        assert!(parsed.has_flag("delta"));
    }
}
