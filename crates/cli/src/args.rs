//! A minimal, dependency-free option parser.
//!
//! Supports `--flag`, `--option value`, and positional arguments, in any
//! order after the subcommand. Unknown options are errors (typos should not
//! silently change behaviour).

use crate::error::CliError;

/// Parsed arguments: positionals in order plus option key/values.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl ParsedArgs {
    /// Parse `args` (not including the program or subcommand name).
    /// `value_options` lists options that consume a value; anything else
    /// starting with `--` is a boolean flag. `allowed_flags` lists those.
    pub fn parse(
        args: &[String],
        value_options: &[&str],
        allowed_flags: &[&str],
    ) -> Result<Self, CliError> {
        let mut out = ParsedArgs::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if value_options.contains(&name) {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| CliError::Usage(format!("--{name} requires a value")))?;
                    out.options.push((name.to_string(), Some(v.clone())));
                    i += 2;
                } else if allowed_flags.contains(&name) {
                    out.options.push((name.to_string(), None));
                    i += 1;
                } else {
                    return Err(CliError::Usage(format!("unknown option --{name}")));
                }
            } else {
                out.positionals.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Positional argument by index.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// Required positional (with a name for the error message).
    pub fn required(&self, i: usize, name: &str) -> Result<&str, CliError> {
        self.positional(i)
            .ok_or_else(|| CliError::Usage(format!("missing required argument <{name}>")))
    }

    /// Value of `--name`, if given.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value given for a repeatable `--name`, in the order written.
    pub fn options_all(&self, name: &str) -> Vec<&str> {
        self.options.iter().filter(|(n, _)| n == name).filter_map(|(_, v)| v.as_deref()).collect()
    }

    /// True when `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(n, v)| n == name && v.is_none())
    }

    /// Parse `--name` as a number.
    pub fn option_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.option(name) {
            None => Ok(None),
            Some(s) => s
                .parse::<T>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse `{s}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options_mix() {
        let p = ParsedArgs::parse(
            &sv(&["a.csv", "--key", "id", "lake/", "--explain"]),
            &["key"],
            &["explain"],
        )
        .unwrap();
        assert_eq!(p.positional(0), Some("a.csv"));
        assert_eq!(p.positional(1), Some("lake/"));
        assert_eq!(p.option("key"), Some("id"));
        assert!(p.flag("explain"));
        assert!(!p.flag("keyless"));
    }

    #[test]
    fn unknown_option_is_error() {
        let e = ParsedArgs::parse(&sv(&["--bogus"]), &[], &[]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn missing_value_is_error() {
        let e = ParsedArgs::parse(&sv(&["--key"]), &["key"], &[]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn last_option_wins_and_numbers_parse() {
        let p = ParsedArgs::parse(&sv(&["--seed", "1", "--seed", "9"]), &["seed"], &[]).unwrap();
        assert_eq!(p.option_parse::<u64>("seed").unwrap(), Some(9));
        assert!(ParsedArgs::parse(&sv(&["--seed", "x"]), &["seed"], &[])
            .unwrap()
            .option_parse::<u64>("seed")
            .is_err());
    }

    #[test]
    fn repeated_options_keep_every_value_in_order() {
        let p = ParsedArgs::parse(
            &sv(&["--lake", "a.gentlake", "--lake", "b=c.gentlake"]),
            &["lake"],
            &[],
        )
        .unwrap();
        assert_eq!(p.options_all("lake"), ["a.gentlake", "b=c.gentlake"]);
        assert_eq!(p.option("lake"), Some("b=c.gentlake"));
        assert!(p.options_all("addr").is_empty());
    }

    #[test]
    fn required_reports_the_missing_name() {
        let p = ParsedArgs::parse(&[], &[], &[]).unwrap();
        let e = p.required(0, "source").unwrap_err();
        assert!(e.to_string().contains("source"));
    }
}
