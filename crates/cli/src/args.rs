//! Minimal `--flag value` / `--flag` parsing.

use std::collections::HashMap;

/// Parsed flags: `--key value` pairs plus bare `--switch`es (stored with an
/// empty value).
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Presence of a bare switch.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Numeric flag with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value for --{key}: {raw}")),
        }
    }

    /// Fail on any flag outside `known` — the list of flags `command`
    /// reads — so a typo or a removed flag is an error instead of a
    /// silently ignored setting.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), String> {
        match self.values.keys().filter(|k| !known.contains(&k.as_str())).min() {
            None => Ok(()),
            Some(key) => Err(format!("unknown flag --{key} for `sage {command}`")),
        }
    }
}

/// Parse `--flag [value]` sequences. A flag followed by another flag (or by
/// nothing) is a bare switch.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}` (flags start with --)"));
        };
        if key.is_empty() {
            return Err("empty flag `--`".to_string());
        }
        let value = match args.get(i + 1) {
            Some(next) if !next.starts_with("--") => {
                i += 1;
                next.clone()
            }
            _ => String::new(),
        };
        flags.values.insert(key.to_string(), value);
        i += 1;
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = parse_flags(&argv(&["--file", "x.txt", "--naive", "--docs", "5"])).unwrap();
        assert_eq!(f.get("file"), Some("x.txt"));
        assert!(f.has("naive"));
        assert_eq!(f.get_parse::<usize>("docs", 0).unwrap(), 5);
    }

    #[test]
    fn defaults_and_requirements() {
        let f = parse_flags(&argv(&["--question", "why?"])).unwrap();
        assert_eq!(f.get_or("llm", "gpt4o-mini"), "gpt4o-mini");
        assert!(f.require("question").is_ok());
        assert!(f.require("file").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_known_ones_pass() {
        let f = parse_flags(&argv(&["--shards", "4", "--naive", "--question", "q"])).unwrap();
        assert!(f.reject_unknown("explain", &["question", "naive", "shards", "quorum"]).is_ok());
        // A typo, a removed flag and a bare unknown switch all fail, and
        // the message names the first offender and the command.
        let typo = parse_flags(&argv(&["--shard", "4", "--concurrency", "3"])).unwrap();
        assert_eq!(
            typo.reject_unknown("explain", &["question", "naive", "shards", "quorum"]),
            Err("unknown flag --concurrency for `sage explain`".to_string())
        );
        let switch = parse_flags(&argv(&["--bogus"])).unwrap();
        assert!(switch.reject_unknown("demo", &[]).is_err());
        assert!(parse_flags(&[]).unwrap().reject_unknown("demo", &[]).is_ok());
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(parse_flags(&argv(&["oops"])).is_err());
    }

    #[test]
    fn invalid_numbers_error() {
        let f = parse_flags(&argv(&["--docs", "many"])).unwrap();
        assert!(f.get_parse::<usize>("docs", 1).is_err());
    }
}
