//! Distinguished names.
//!
//! GIS records are addressed by distinguished names such as
//! `hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid`
//! (paper Fig 3). A DN is a sequence of relative DNs (attribute=value
//! pairs) ordered leaf-first; the directory tree hangs records under their
//! parent DN.

use std::fmt;

use serde::{Deserialize, Serialize};

/// One `attr=value` component of a distinguished name.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rdn {
    /// Attribute name (normalized to lowercase).
    pub attr: String,
    /// Attribute value (as written).
    pub value: String,
}

impl Rdn {
    /// Create an RDN; the attribute name is lowercased.
    pub fn new(attr: impl AsRef<str>, value: impl Into<String>) -> Self {
        Rdn {
            attr: attr.as_ref().to_ascii_lowercase(),
            value: value.into(),
        }
    }

    /// Length in bytes of this component as [`fmt::Display`] writes it.
    pub(crate) fn text_len(&self) -> usize {
        self.attr.len() + "=".len() + self.value.len()
    }
}

/// What [`Dn`]'s text form puts between components.
pub(crate) const SEPARATOR: &str = ", ";

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// A distinguished name: RDNs ordered leaf-first (`hn=x, ou=y, o=Grid`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Dn {
    rdns: Vec<Rdn>,
}

/// Error parsing a DN string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnParseError(pub String);

impl fmt::Display for DnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN: {}", self.0)
    }
}

impl std::error::Error for DnParseError {}

impl Dn {
    /// Build from leaf-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        Dn { rdns }
    }

    /// Parse `attr=value, attr=value, ...` (leaf first, comma separated).
    pub fn parse(s: &str) -> Result<Self, DnParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::default());
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let (attr, value) = part
                .split_once('=')
                .ok_or_else(|| DnParseError(format!("component without '=': {part:?}")))?;
            let attr = attr.trim();
            let value = value.trim();
            if attr.is_empty() || value.is_empty() {
                return Err(DnParseError(format!("empty attr or value in {part:?}")));
            }
            rdns.push(Rdn::new(attr, value));
        }
        Ok(Dn { rdns })
    }

    /// Leaf-first RDNs.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// A child of this DN with the extra leaf RDN.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend(self.rdns.iter().cloned());
        Dn { rdns }
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                f.write_str(SEPARATOR)?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let dn = Dn::parse("hn=vm.ucsd.edu, ou=CSAG, o=Grid").unwrap();
        assert_eq!(dn.rdns().len(), 3);
        assert_eq!(dn.rdns()[0], Rdn::new("hn", "vm.ucsd.edu"));
        assert_eq!(dn.to_string(), "hn=vm.ucsd.edu, ou=CSAG, o=Grid");
        for rdn in dn.rdns() {
            assert_eq!(rdn.text_len(), rdn.to_string().len());
        }
    }

    #[test]
    fn attr_names_are_case_insensitive() {
        let a = Dn::parse("HN=x, OU=y").unwrap();
        let b = Dn::parse("hn=x, ou=y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn child_prepends_the_leaf() {
        let dn = Dn::parse("hn=x, ou=y, o=Grid").unwrap();
        let parent = Dn::parse("ou=y, o=Grid").unwrap();
        assert_eq!(parent.child(Rdn::new("hn", "x")), dn);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dn::parse("no-equals").is_err());
        assert!(Dn::parse("=value").is_err());
        assert!(Dn::parse("attr=").is_err());
    }

    #[test]
    fn empty_text_is_the_empty_dn() {
        let root = Dn::parse("").unwrap();
        assert!(root.rdns().is_empty());
        assert_eq!(root.to_string(), "");
    }
}
