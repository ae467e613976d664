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
    pub fn add(&mut self, attr: impl AsRef<str>, value: impl Into<String>) -> &mut Self {
        self.attrs
            .entry(attr.as_ref().to_ascii_lowercase())
            .or_default()
            .push(value.into());
        self
    }

    /// Builder-style [`Record::add`].
    pub fn with(mut self, attr: impl AsRef<str>, value: impl Into<String>) -> Self {
        self.add(attr, value);
        self
    }

    /// Replace all values of an attribute.
    pub fn set(&mut self, attr: impl AsRef<str>, value: impl Into<String>) -> &mut Self {
        self.attrs
            .insert(attr.as_ref().to_ascii_lowercase(), vec![value.into()]);
        self
    }

    /// Remove an attribute entirely; returns its old values.
    pub fn remove(&mut self, attr: impl AsRef<str>) -> Option<Vec<String>> {
        self.attrs.remove(&attr.as_ref().to_ascii_lowercase())
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

    /// True if the attribute exists with at least one value.
    pub fn has(&self, attr: impl AsRef<str>) -> bool {
        !self.get_all(attr).is_empty()
    }

    /// Iterate `(attr, values)` pairs in attribute order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Parse the first value of an attribute as a float.
    pub fn get_f64(&self, attr: impl AsRef<str>) -> Option<f64> {
        self.get(attr)?.trim().parse().ok()
    }

    /// Parse the first value of an attribute as an unsigned integer.
    pub fn get_u64(&self, attr: impl AsRef<str>) -> Option<u64> {
        self.get(attr)?.trim().parse().ok()
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
        let mut r = rec();
        r.add("objectclass", "VirtualResource");
        assert_eq!(r.get_all("objectclass").len(), 2);
        assert_eq!(r.get("objectclass"), Some("GridComputeResource"));
    }

    #[test]
    fn set_replaces_values() {
        let mut r = rec();
        r.add("CpuSpeed", "20");
        r.set("CpuSpeed", "30");
        assert_eq!(r.get_all("CpuSpeed"), ["30"]);
    }

    #[test]
    fn numeric_parsing() {
        let r = rec();
        assert_eq!(r.get_f64("CpuSpeed"), Some(10.0));
        assert_eq!(r.get_u64("MemorySize"), Some(100_000_000));
        assert_eq!(r.get_f64("objectclass"), None);
    }

    #[test]
    fn remove_deletes_attribute() {
        let mut r = rec();
        assert!(r.remove("CpuSpeed").is_some());
        assert!(!r.has("CpuSpeed"));
        assert!(r.remove("CpuSpeed").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let r = rec();
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
