//! GIS records: multi-valued attribute sets addressed by DN.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::dn::Dn;

/// One directory entry.
///
/// Attribute names are case-insensitive (normalized to lowercase);
/// attributes are multi-valued, in insertion order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Where this record lives in the directory tree.
    pub dn: Dn,
    attrs: BTreeMap<String, Vec<String>>,
}

impl Record {
    /// Create an empty record at `dn`.
    pub fn new(dn: Dn) -> Self {
        Record {
            dn,
            attrs: BTreeMap::new(),
        }
    }

    /// Add a value to an attribute (keeps existing values).
    pub fn with(mut self, attr: impl AsRef<str>, value: impl Into<String>) -> Self {
        self.attrs
            .entry(attr.as_ref().to_ascii_lowercase())
            .or_default()
            .push(value.into());
        self
    }

    /// First value of an attribute.
    pub fn get(&self, attr: impl AsRef<str>) -> Option<&str> {
        self.attrs
            .get(&attr.as_ref().to_ascii_lowercase())
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// All values of an attribute.
    pub fn get_all(&self, attr: impl AsRef<str>) -> &[String] {
        self.attrs
            .get(&attr.as_ref().to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record::new(Dn::parse("hn=vm.ucsd.edu, o=Grid").unwrap())
            .with("objectclass", "GridComputeResource")
            .with("CpuSpeed", "10")
            .with("MemorySize", "100000000")
    }

    #[test]
    fn get_is_case_insensitive() {
        let r = rec();
        assert_eq!(r.get("cpuspeed"), Some("10"));
        assert_eq!(r.get("CPUSPEED"), Some("10"));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn multi_valued_attributes() {
        let r = rec().with("objectclass", "VirtualResource");
        assert_eq!(r.get_all("objectclass").len(), 2);
        assert_eq!(r.get("objectclass"), Some("GridComputeResource"));
    }

    #[test]
    fn serde_roundtrip() {
        let r = rec();
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
