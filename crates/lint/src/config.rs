//! Workspace lint configuration (`mgrid-lint.toml`).
//!
//! A hand-rolled parser for the TOML subset the config needs — sections,
//! string values, and string arrays — so the analyzer stays
//! zero-dependency:
//!
//! ```toml
//! [lint]
//! sim-crates = ["desim", "netsim"]
//! exclude = ["vendor", "target"]
//!
//! [lint.crates.bench]
//! allow = ["MG001", "MG005"]
//!
//! [lint.crates.gis]
//! deny = ["MG001"]
//! ```

use std::collections::BTreeMap;

/// Per-crate rule overrides.
#[derive(Debug, Default, Clone)]
pub struct CrateRules {
    /// Codes disabled for this crate even if it is a sim crate.
    pub allow: Vec<String>,
    /// Codes enabled for this crate even if it is not a sim crate.
    pub deny: Vec<String>,
}

/// The analyzer's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose sources form the deterministic simulation core; all
    /// determinism rules apply to them.
    pub sim_crates: Vec<String>,
    /// Path prefixes (relative to the workspace root) never scanned.
    pub exclude: Vec<String>,
    /// Per-crate allow/deny overrides, keyed by crate directory name.
    pub crates: BTreeMap<String, CrateRules>,
    /// Default baseline file (workspace-relative), applied unless the
    /// CLI overrides it with `--baseline`/`--no-baseline`.
    pub baseline: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sim_crates: ["desim", "netsim", "hostsim", "middleware", "mpi", "core"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            exclude: ["target", "vendor", "results", "crates/lint/tests/fixtures"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            crates: BTreeMap::new(),
            baseline: None,
        }
    }
}

/// A malformed config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mgrid-lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse the config text; unknown keys are errors so typos fail loudly.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unclosed section header {line:?}"),
                })?;
                section = name.trim().to_string();
                let ok = section == "lint"
                    || (section.starts_with("lint.crates.")
                        && section.len() > "lint.crates.".len());
                if !ok {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section [{section}]"),
                    });
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .okor(lineno, "expected `key = value`")?;
            let key = key.trim();
            if (section.as_str(), key) == ("lint", "baseline") {
                cfg.baseline = Some(parse_string(value.trim(), lineno)?);
                continue;
            }
            let values = parse_string_array(value.trim(), lineno)?;
            match (section.as_str(), key) {
                ("lint", "sim-crates") => cfg.sim_crates = values,
                ("lint", "exclude") => cfg.exclude = values,
                (s, "allow") if s.starts_with("lint.crates.") => {
                    let name = s.trim_start_matches("lint.crates.").to_string();
                    validate_codes(&values, lineno)?;
                    cfg.crates.entry(name).or_default().allow = values;
                }
                (s, "deny") if s.starts_with("lint.crates.") => {
                    let name = s.trim_start_matches("lint.crates.").to_string();
                    validate_codes(&values, lineno)?;
                    cfg.crates.entry(name).or_default().deny = values;
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key {key:?} in section [{section}]"),
                    });
                }
            }
        }
        Ok(cfg)
    }

    /// Load from `<root>/mgrid-lint.toml`, falling back to defaults when
    /// the file does not exist.
    pub fn load(root: &std::path::Path) -> Result<Config, ConfigError> {
        match std::fs::read_to_string(root.join("mgrid-lint.toml")) {
            Ok(text) => Config::parse(&text),
            Err(_) => Ok(Config::default()),
        }
    }

    /// Whether `code` applies to `crate_name` under this config.
    pub fn code_enabled(&self, crate_name: &str, code: &str) -> bool {
        if let Some(rules) = self.crates.get(crate_name) {
            if rules.allow.iter().any(|c| c == code) {
                return false;
            }
            if rules.deny.iter().any(|c| c == code) {
                return true;
            }
        }
        // MG004 (unsafe needs SAFETY) and MG000 (suppression hygiene)
        // apply to every scanned crate; determinism rules only to the
        // simulation core.
        match code {
            "MG000" | "MG004" => true,
            _ => self.sim_crates.iter().any(|c| c == crate_name),
        }
    }
}

/// Drop a trailing `# comment` (naive: the config holds no `#` inside
/// strings except rule codes, which never contain `#`).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_string(v: &str, lineno: usize) -> Result<String, ConfigError> {
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .filter(|s| !s.is_empty())
        .map(|s| s.to_string())
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a non-empty quoted string, got {v:?}"),
        })
}

fn parse_string_array(v: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a [\"...\"] array, got {v:?}"),
        })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected a quoted string, got {part:?}"),
            })?;
        out.push(s.to_string());
    }
    Ok(out)
}

fn validate_codes(codes: &[String], lineno: usize) -> Result<(), ConfigError> {
    for c in codes {
        if !crate::rules::KNOWN_CODES.contains(&c.as_str()) {
            return Err(ConfigError {
                line: lineno,
                message: format!(
                    "unknown rule code {c:?} (known: {})",
                    crate::rules::KNOWN_CODES.join(", ")
                ),
            });
        }
    }
    Ok(())
}

trait OkOr<T> {
    fn okor(self, line: usize, msg: &str) -> Result<T, ConfigError>;
}

impl<T> OkOr<T> for Option<T> {
    fn okor(self, line: usize, msg: &str) -> Result<T, ConfigError> {
        self.ok_or_else(|| ConfigError {
            line,
            message: msg.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_sim_core() {
        let c = Config::default();
        assert!(c.code_enabled("desim", "MG001"));
        assert!(c.code_enabled("bench", "MG004"));
        assert!(!c.code_enabled("bench", "MG001"));
    }

    #[test]
    fn parse_full_config() {
        let c = Config::parse(
            r#"
            # comment
            [lint]
            sim-crates = ["desim", "core"]
            exclude = ["vendor"]

            [lint.crates.bench]
            allow = ["MG001", "MG005"]

            [lint.crates.gis]
            deny = ["MG003"]
            "#,
        )
        .unwrap();
        assert_eq!(c.sim_crates, vec!["desim", "core"]);
        assert!(!c.code_enabled("bench", "MG001"));
        assert!(c.code_enabled("bench", "MG002") || !c.sim_crates.contains(&"bench".into()));
        assert!(c.code_enabled("gis", "MG003"));
        assert!(!c.code_enabled("gis", "MG001"));
    }

    #[test]
    fn allow_beats_sim_crate_membership() {
        let c = Config::parse("[lint.crates.desim]\nallow = [\"MG002\"]\n").unwrap();
        assert!(!c.code_enabled("desim", "MG002"));
        assert!(c.code_enabled("desim", "MG001"));
    }

    #[test]
    fn baseline_key_parses() {
        let c = Config::parse("[lint]\nbaseline = \"mgrid-lint.baseline\"\n").unwrap();
        assert_eq!(c.baseline.as_deref(), Some("mgrid-lint.baseline"));
        assert!(Config::parse("[lint]\nbaseline = \"\"\n").is_err());
        assert!(Config::parse("[lint]\nbaseline = unquoted\n").is_err());
    }

    #[test]
    fn unknown_key_and_code_are_errors() {
        assert!(Config::parse("[lint]\nbogus = []\n").is_err());
        assert!(Config::parse("[lint.crates.x]\nallow = [\"MG999\"]\n").is_err());
        assert!(Config::parse("[surprise]\n").is_err());
        assert!(Config::parse("[lint.files.\"x.rs\"]\nallow = [\"MG005\"]\n").is_err());
    }
}
