//! LDAP-style search filters with a string syntax:
//! `(&(objectclass=host)(Is_Virtual_Resource=Yes))`,
//! `(|(nwType=LAN)(nwType=WAN))`, `(!(is_virtual_resource=*))`,
//! `(hn=vm*.ucsd.edu)`.
//!
//! Matching follows LDAP `caseIgnoreMatch`: attribute names and values
//! compare case-insensitively.

use std::fmt;

use crate::record::Record;

/// A search filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)` — some value of the attribute equals `value`.
    Eq(String, String),
    /// `(attr=*)` — the attribute is present.
    Present(String),
    /// `(attr=ab*cd*ef)` — substring match with `*` wildcards.
    Substring(String, Vec<String>, bool, bool),
    /// `(&(f1)(f2)...)` — all must match; `(&)` is true.
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — any must match; `(|)` is false.
    Or(Vec<Filter>),
    /// `(!(f))` — negation.
    Not(Box<Filter>),
}

/// Error parsing a filter string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterParseError(pub String);

impl fmt::Display for FilterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter: {}", self.0)
    }
}

impl std::error::Error for FilterParseError {}

impl Filter {
    /// Equality filter.
    pub fn eq(attr: impl AsRef<str>, value: impl Into<String>) -> Filter {
        Filter::Eq(attr.as_ref().to_ascii_lowercase(), value.into())
    }

    /// Presence filter.
    pub fn present(attr: impl AsRef<str>) -> Filter {
        Filter::Present(attr.as_ref().to_ascii_lowercase())
    }

    /// Conjunction.
    pub fn and(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::And(filters.into_iter().collect())
    }

    /// Disjunction.
    pub fn or(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::Or(filters.into_iter().collect())
    }

    /// Negation.
    #[allow(
        clippy::should_implement_trait,
        reason = "a constructor beside `and`/`or`, not an operator on an existing filter"
    )]
    pub fn not(f: Filter) -> Filter {
        Filter::Not(Box::new(f))
    }

    /// Evaluate against a record.
    pub fn matches(&self, record: &Record) -> bool {
        match self {
            Filter::Eq(attr, value) => record
                .get_all(attr)
                .iter()
                .any(|v| v.eq_ignore_ascii_case(value)),
            Filter::Present(attr) => record.has(attr),
            Filter::Substring(attr, parts, anchored_start, anchored_end) => record
                .get_all(attr)
                .iter()
                .any(|v| substring_match(v, parts, *anchored_start, *anchored_end)),
            Filter::And(fs) => fs.iter().all(|f| f.matches(record)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(record)),
            Filter::Not(f) => !f.matches(record),
        }
    }

    /// Parse the string syntax.
    pub fn parse(s: &str) -> Result<Filter, FilterParseError> {
        let mut p = Parser {
            input: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let f = p.filter()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(FilterParseError(format!(
                "trailing input at byte {}: {s:?}",
                p.pos
            )));
        }
        Ok(f)
    }
}

fn substring_match(
    value: &str,
    parts: &[String],
    anchored_start: bool,
    anchored_end: bool,
) -> bool {
    let v = value.to_ascii_lowercase();
    let mut pos = 0usize;
    let n = parts.len();
    for (i, part) in parts.iter().enumerate() {
        let p = part.to_ascii_lowercase();
        let is_first = i == 0;
        let is_last = i + 1 == n;
        if is_last && anchored_end {
            // The final part must sit at the end, without overlapping the
            // region already consumed by earlier parts.
            return v.ends_with(&p) && v.len() >= pos + p.len();
        }
        if is_first && anchored_start {
            if !v[pos..].starts_with(&p) {
                return false;
            }
            pos += p.len();
        } else {
            match v[pos..].find(&p) {
                Some(off) => pos += off + p.len(),
                None => return false,
            }
        }
    }
    true
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), FilterParseError> {
        if self.pos < self.input.len() && self.input[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(FilterParseError(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn filter(&mut self) -> Result<Filter, FilterParseError> {
        self.expect(b'(')?;
        let f = match self.peek() {
            Some(b'&') => {
                self.pos += 1;
                Filter::And(self.filter_list()?)
            }
            Some(b'|') => {
                self.pos += 1;
                Filter::Or(self.filter_list()?)
            }
            Some(b'!') => {
                self.pos += 1;
                Filter::Not(Box::new(self.filter()?))
            }
            _ => self.comparison()?,
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>, FilterParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'(') {
                out.push(self.filter()?);
            } else {
                return Ok(out);
            }
        }
    }

    fn comparison(&mut self) -> Result<Filter, FilterParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b != b'=' && b != b')' && b != b'(')
        {
            self.pos += 1;
        }
        if self.peek() != Some(b'=') {
            return Err(FilterParseError(format!(
                "expected '=' in comparison at byte {}",
                self.pos
            )));
        }
        let attr = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| FilterParseError("non-utf8 attribute".into()))?
            .trim()
            .to_ascii_lowercase();
        if attr.is_empty() {
            return Err(FilterParseError("empty attribute name".into()));
        }
        self.pos += 1; // consume '='
        let vstart = self.pos;
        while self.peek().is_some_and(|b| b != b')') {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.input[vstart..self.pos])
            .map_err(|_| FilterParseError("non-utf8 value".into()))?
            .trim();
        if raw == "*" {
            return Ok(Filter::Present(attr));
        }
        if raw.contains('*') {
            let anchored_start = !raw.starts_with('*');
            let anchored_end = !raw.ends_with('*');
            let parts: Vec<String> = raw
                .split('*')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect();
            if parts.is_empty() {
                return Ok(Filter::Present(attr));
            }
            return Ok(Filter::Substring(attr, parts, anchored_start, anchored_end));
        }
        if raw.is_empty() {
            return Err(FilterParseError("empty value".into()));
        }
        Ok(Filter::Eq(attr, raw.to_string()))
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::Eq(a, v) => write!(f, "({a}={v})"),
            Filter::Present(a) => write!(f, "({a}=*)"),
            Filter::Substring(a, parts, s, e) => {
                write!(f, "({a}=")?;
                if !s {
                    write!(f, "*")?;
                }
                write!(f, "{}", parts.join("*"))?;
                if !e {
                    write!(f, "*")?;
                }
                write!(f, ")")
            }
            Filter::And(fs) => {
                write!(f, "(&")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Or(fs) => {
                write!(f, "(|")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Not(x) => write!(f, "(!{x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    fn host_record() -> Record {
        Record::new(Dn::parse("hn=vm.ucsd.edu, o=Grid").unwrap())
            .with("objectclass", "GridComputeResource")
            .with("Is_Virtual_Resource", "Yes")
            .with("CpuSpeed", "10")
            .with("hn", "vm.ucsd.edu")
    }

    #[test]
    fn eq_matches_case_insensitively() {
        let r = host_record();
        assert!(Filter::parse("(is_virtual_resource=YES)")
            .unwrap()
            .matches(&r));
        assert!(!Filter::parse("(is_virtual_resource=No)")
            .unwrap()
            .matches(&r));
    }

    #[test]
    fn presence() {
        let r = host_record();
        assert!(Filter::parse("(cpuspeed=*)").unwrap().matches(&r));
        assert!(!Filter::parse("(nwtype=*)").unwrap().matches(&r));
    }

    #[test]
    fn and_or_not() {
        let r = host_record();
        assert!(
            Filter::parse("(&(objectclass=GridComputeResource)(Is_Virtual_Resource=Yes))")
                .unwrap()
                .matches(&r)
        );
        assert!(Filter::parse("(|(cpuspeed=99)(cpuspeed=10))")
            .unwrap()
            .matches(&r));
        assert!(Filter::parse("(!(cpuspeed=99))").unwrap().matches(&r));
        assert!(!Filter::parse("(&(cpuspeed=10)(cpuspeed=99))")
            .unwrap()
            .matches(&r));
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let r = host_record();
        assert!(Filter::parse("(&)").unwrap().matches(&r));
        assert!(!Filter::parse("(|)").unwrap().matches(&r));
    }

    #[test]
    fn substring_wildcards() {
        let r = host_record();
        assert!(Filter::parse("(hn=vm*)").unwrap().matches(&r));
        assert!(Filter::parse("(hn=*ucsd*)").unwrap().matches(&r));
        assert!(Filter::parse("(hn=*edu)").unwrap().matches(&r));
        assert!(Filter::parse("(hn=vm*edu)").unwrap().matches(&r));
        assert!(!Filter::parse("(hn=vm*com)").unwrap().matches(&r));
        assert!(!Filter::parse("(hn=xx*)").unwrap().matches(&r));
    }

    #[test]
    fn parse_errors() {
        assert!(Filter::parse("").is_err());
        assert!(Filter::parse("(novalue)").is_err());
        assert!(Filter::parse("(a=b").is_err());
        assert!(Filter::parse("(a=b))").is_err());
        assert!(Filter::parse("(=b)").is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "(a=b)",
            "(a=*)",
            "(&(a=b)(c=d))",
            "(|(a=b)(!(c=d)))",
            "(hn=vm*edu)",
        ] {
            let f = Filter::parse(s).unwrap();
            let f2 = Filter::parse(&f.to_string()).unwrap();
            assert_eq!(f, f2);
        }
    }
}
