//! Minimal flag parsing (no external dependencies, per the workspace
//! dependency policy).

use std::collections::HashMap;

/// A parsed command line: the subcommand plus `--flag value` pairs.
#[derive(Debug, Clone)]
pub(crate) struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Parsed {
    /// Parses `argv` (program name already stripped).
    ///
    /// # Errors
    ///
    /// Returns a message when no command is given, a flag is missing
    /// its value, or a positional argument appears after the command.
    pub(crate) fn parse(argv: &[String]) -> Result<Self, String> {
        let mut iter = argv.iter();
        let command = iter
            .next()
            .ok_or_else(|| format!("no command given\n{}", crate::usage()))?
            .clone();
        let mut flags = HashMap::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if name.is_empty() {
                return Err("empty flag `--`".to_string());
            }
            // Support both `--flag value` and `--flag=value`.
            if let Some((k, v)) = name.split_once('=') {
                flags.insert(k.to_string(), v.to_string());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag `--{name}` is missing its value"))?;
                flags.insert(name.to_string(), value.clone());
            }
        }
        Ok(Self { command, flags })
    }

    /// Fails on a flag outside `accepted`, naming it (the first in
    /// name order, so the message does not depend on hash order).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown flag and the command.
    pub(crate) fn reject_unknown(&self, accepted: &[&str]) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .filter(|k| !accepted.contains(&k.as_str()));
        match unknown.min() {
            Some(flag) => Err(format!(
                "unknown flag `--{flag}` for `{}` (see `hindex help`)",
                self.command
            )),
            None => Ok(()),
        }
    }

    /// A string flag with a default.
    #[must_use]
    pub(crate) fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing flag.
    pub(crate) fn str_required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag `--{name}`"))
    }

    /// An `f64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message on unparsable values.
    pub(crate) fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `--{name}` expects a number, got `{v}`")),
        }
    }

    /// A `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message on unparsable values.
    pub(crate) fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `--{name}` expects an integer, got `{v}`")),
        }
    }

    /// A `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message on unparsable values.
    pub(crate) fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `--{name}` expects an integer, got `{v}`")),
        }
    }

    /// An optional `u64` flag.
    ///
    /// # Errors
    ///
    /// Returns a message on unparsable values.
    pub(crate) fn u64_opt(&self, name: &str) -> Result<Option<u64>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag `--{name}` expects an integer, got `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        let v: Vec<String> = args.iter().map(ToString::to_string).collect();
        Parsed::parse(&v)
    }

    #[test]
    fn command_and_flags() {
        let p = parse(&["agg", "--eps", "0.2", "--algorithm", "heap"]).unwrap();
        assert_eq!(p.command, "agg");
        assert_eq!(p.f64_or("eps", 0.1).unwrap(), 0.2);
        assert_eq!(p.str_or("algorithm", "window"), "heap");
        assert_eq!(p.str_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn equals_syntax() {
        let p = parse(&["gen", "--kind=zipf", "--n=500"]).unwrap();
        assert_eq!(p.str_or("kind", ""), "zipf");
        assert_eq!(p.u64_or("n", 0).unwrap(), 500);
    }

    #[test]
    fn missing_value_errors() {
        assert!(parse(&["agg", "--eps"]).unwrap_err().contains("missing its value"));
    }

    #[test]
    fn stray_positional_errors() {
        assert!(parse(&["agg", "whoops"]).unwrap_err().contains("positional"));
    }

    #[test]
    fn bad_number_errors() {
        let p = parse(&["agg", "--eps", "fast"]).unwrap();
        assert!(p.f64_or("eps", 0.1).unwrap_err().contains("expects a number"));
        let p = parse(&["gen", "--n", "many"]).unwrap();
        assert!(p.u64_or("n", 1).unwrap_err().contains("expects an integer"));
    }

    #[test]
    fn required_flag() {
        let p = parse(&["gen"]).unwrap();
        assert!(p.str_required("kind").unwrap_err().contains("--kind"));
    }

    #[test]
    fn optional_u64() {
        let p = parse(&["hh", "--threshold", "12"]).unwrap();
        assert_eq!(p.u64_opt("threshold").unwrap(), Some(12));
        assert_eq!(p.u64_opt("absent").unwrap(), None);
    }
}
