//! LDAP-style distinguished names.
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
    /// The empty DN (root of the directory).
    pub fn root() -> Self {
        Dn::default()
    }

    /// Build from leaf-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        Dn { rdns }
    }

    /// Parse `attr=value, attr=value, ...` (leaf first, comma separated).
    pub fn parse(s: &str) -> Result<Self, DnParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::root());
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

    /// Number of components.
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// True for the empty root DN.
    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    /// The leaf (first) RDN, if any.
    pub fn leaf(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// Parent DN (everything but the leaf); `None` at the root.
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn {
                rdns: self.rdns[1..].to_vec(),
            })
        }
    }

    /// A child of this DN with the extra leaf RDN.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend(self.rdns.iter().cloned());
        Dn { rdns }
    }

    /// True if `self` equals `ancestor` or lies beneath it.
    pub fn is_within(&self, ancestor: &Dn) -> bool {
        let n = self.rdns.len();
        let m = ancestor.rdns.len();
        n >= m && self.rdns[n - m..] == ancestor.rdns[..]
    }

    /// True if `self` is an immediate child of `parent`.
    pub fn is_child_of(&self, parent: &Dn) -> bool {
        self.depth() == parent.depth() + 1 && self.is_within(parent)
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

impl std::str::FromStr for Dn {
    type Err = DnParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dn::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let dn = Dn::parse("hn=vm.ucsd.edu, ou=CSAG, o=Grid").unwrap();
        assert_eq!(dn.depth(), 3);
        assert_eq!(dn.leaf().unwrap().attr, "hn");
        assert_eq!(dn.leaf().unwrap().value, "vm.ucsd.edu");
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
    fn parent_and_child() {
        let dn = Dn::parse("hn=x, ou=y, o=Grid").unwrap();
        let parent = dn.parent().unwrap();
        assert_eq!(parent.to_string(), "ou=y, o=Grid");
        assert_eq!(parent.child(Rdn::new("hn", "x")), dn);
        assert!(dn.is_child_of(&parent));
        assert!(!parent.is_child_of(&dn));
    }

    #[test]
    fn is_within_hierarchy() {
        let org = Dn::parse("o=Grid").unwrap();
        let ou = Dn::parse("ou=y, o=Grid").unwrap();
        let host = Dn::parse("hn=x, ou=y, o=Grid").unwrap();
        assert!(host.is_within(&org));
        assert!(host.is_within(&ou));
        assert!(host.is_within(&host));
        assert!(!ou.is_within(&host));
        assert!(host.is_within(&Dn::root()));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dn::parse("no-equals").is_err());
        assert!(Dn::parse("=value").is_err());
        assert!(Dn::parse("attr=").is_err());
    }

    #[test]
    fn root_is_empty() {
        let root = Dn::root();
        assert!(root.is_root());
        assert_eq!(root.parent(), None);
        assert_eq!(Dn::parse("").unwrap(), root);
    }
}
