//! The directory information tree: DN-addressed record storage with
//! LDAP-style scoped searches.

use std::collections::BTreeMap;

use crate::dn::{Dn, SEPARATOR};
use crate::filter::Filter;
use crate::record::Record;

/// Search scope, mirroring LDAP.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Only the base entry itself.
    Base,
    /// Immediate children of the base entry.
    OneLevel,
    /// The base entry and everything beneath it.
    Subtree,
}

/// Errors of directory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirError {
    /// The target DN already holds an entry.
    AlreadyExists(String),
    /// No entry at the target DN.
    NoSuchEntry(String),
    /// The entry still has children.
    NotLeaf(String),
}

impl std::fmt::Display for DirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirError::AlreadyExists(dn) => write!(f, "entry already exists: {dn}"),
            DirError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
            DirError::NotLeaf(dn) => write!(f, "entry has children: {dn}"),
        }
    }
}

impl std::error::Error for DirError {}

/// An in-memory GIS directory.
///
/// Keyed by stringified DN so iteration order (and therefore search-result
/// order) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: BTreeMap<String, Record>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a record at its DN.
    ///
    /// Missing ancestors are created as empty entries: the paper's
    /// workflow drops records into existing GIS servers without bespoke
    /// server setup, so we mirror that permissiveness while keeping the
    /// tree well-formed.
    pub fn add(&mut self, record: Record) -> Result<(), DirError> {
        let key = record.dn.to_string();
        if self.entries.contains_key(&key) {
            return Err(DirError::AlreadyExists(key));
        }
        self.insert_new(key, record);
        Ok(())
    }

    /// Replace the record at a DN (or insert it, creating ancestors).
    pub fn upsert(&mut self, record: Record) {
        let key = record.dn.to_string();
        match self.entries.get_mut(&key) {
            Some(entry) => *entry = record,
            None => self.insert_new(key, record),
        }
    }

    /// Insert `record` under `key`, its DN as text, which must be vacant;
    /// then walk up the tree creating ancestors until one exists.
    fn insert_new(&mut self, key: String, record: Record) {
        // An ancestor's key is a suffix of `key`, so each existence check
        // borrows it; only a missing ancestor costs an allocation.
        let rdns = record.dn.rdns();
        let mut ancestor = key.as_str();
        for depth in 1..rdns.len() {
            ancestor = &ancestor[rdns[depth - 1].text_len() + SEPARATOR.len()..];
            if self.entries.contains_key(ancestor) {
                break;
            }
            let dn = Dn::from_rdns(rdns[depth..].to_vec());
            self.entries.insert(ancestor.to_string(), Record::new(dn));
        }
        self.entries.insert(key, record);
    }

    /// Fetch the record at a DN.
    pub fn get(&self, dn: &Dn) -> Option<&Record> {
        self.entries.get(&dn.to_string())
    }

    /// Mutable access to the record at a DN.
    pub fn get_mut(&mut self, dn: &Dn) -> Option<&mut Record> {
        self.entries.get_mut(&dn.to_string())
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<Record, DirError> {
        let key = dn.to_string();
        if !self.entries.contains_key(&key) {
            return Err(DirError::NoSuchEntry(key));
        }
        let has_children = self.entries.values().any(|r| r.dn.is_child_of(dn));
        if has_children {
            return Err(DirError::NotLeaf(key));
        }
        Ok(self.entries.remove(&key).expect("checked above"))
    }

    /// Scoped, filtered search under `base`. Results are in DN order.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&Record> {
        self.entries
            .values()
            .filter(|r| match scope {
                Scope::Base => &r.dn == base,
                Scope::OneLevel => r.dn.is_child_of(base),
                Scope::Subtree => r.dn.is_within(base),
            })
            .filter(|r| filter.matches(r))
            .collect()
    }

    /// Search the whole tree.
    pub fn search_all(&self, filter: &Filter) -> Vec<&Record> {
        self.search(&Dn::root(), Scope::Subtree, filter)
    }

    /// Iterate all records in DN order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn sample() -> Directory {
        let mut d = Directory::new();
        d.add(Record::new(dn("o=Grid"))).unwrap();
        d.add(Record::new(dn("ou=CSAG, o=Grid")).with("ou", "CSAG"))
            .unwrap();
        for (host, speed, virt) in [
            ("csag-226-67.ucsd.edu", "533", "No"),
            ("vm.ucsd.edu", "10", "Yes"),
            ("vm2.ucsd.edu", "20", "Yes"),
        ] {
            d.add(
                Record::new(dn(&format!("hn={host}, ou=CSAG, o=Grid")))
                    .with("objectclass", "GridComputeResource")
                    .with("hn", host)
                    .with("CpuSpeed", speed)
                    .with("Is_Virtual_Resource", virt),
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn add_get_delete() {
        let mut d = sample();
        assert_eq!(d.len(), 5);
        let h = dn("hn=vm.ucsd.edu, ou=CSAG, o=Grid");
        assert_eq!(d.get(&h).unwrap().get("CpuSpeed"), Some("10"));
        d.delete(&h).unwrap();
        assert!(d.get(&h).is_none());
        assert_eq!(d.delete(&h), Err(DirError::NoSuchEntry(h.to_string())));
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut d = sample();
        let r = Record::new(dn("ou=CSAG, o=Grid"));
        assert!(matches!(d.add(r), Err(DirError::AlreadyExists(_))));
    }

    #[test]
    fn delete_nonleaf_rejected() {
        let mut d = sample();
        assert!(matches!(
            d.delete(&dn("ou=CSAG, o=Grid")),
            Err(DirError::NotLeaf(_))
        ));
    }

    #[test]
    fn ancestors_autocreated() {
        let mut d = Directory::new();
        d.add(Record::new(dn("hn=deep, ou=a, ou=b, o=Grid")))
            .unwrap();
        assert!(d.get(&dn("ou=a, ou=b, o=Grid")).is_some());
        assert!(d.get(&dn("ou=b, o=Grid")).is_some());
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn ancestors_of_values_that_contain_the_separator() {
        use crate::dn::Rdn;
        // `Dn::parse` cannot produce such a value, `Rdn::new` can; the
        // ancestor keys must still be the ancestors' own text.
        let leaf = Dn::from_rdns(vec![
            Rdn::new("hn", "a, b=c"),
            Rdn::new("ou", "x, y"),
            Rdn::new("o", "Grid"),
        ]);
        let mut d = Directory::new();
        d.upsert(Record::new(leaf.clone()).with("hn", "first"));
        d.upsert(Record::new(leaf.clone()).with("hn", "second"));
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(&leaf).unwrap().get("hn"), Some("second"));
        let parent = leaf.parent().unwrap();
        assert_eq!(d.get(&parent).unwrap().dn, parent);
        assert!(d.get(&parent.parent().unwrap()).is_some());
    }

    #[test]
    fn scoped_search() {
        let d = sample();
        let base = dn("ou=CSAG, o=Grid");
        let any = Filter::and([]);
        assert_eq!(d.search(&base, Scope::Base, &any).len(), 1);
        assert_eq!(d.search(&base, Scope::OneLevel, &any).len(), 3);
        assert_eq!(d.search(&base, Scope::Subtree, &any).len(), 4);
    }

    #[test]
    fn filtered_search_finds_virtual_hosts() {
        let d = sample();
        let f = Filter::and([
            Filter::eq("objectclass", "GridComputeResource"),
            Filter::eq("Is_Virtual_Resource", "Yes"),
        ]);
        let hits = d.search_all(&f);
        assert_eq!(hits.len(), 2);
        assert!(hits
            .iter()
            .all(|r| r.get("Is_Virtual_Resource") == Some("Yes")));
    }

    #[test]
    fn legacy_query_ignores_extension_fields() {
        // Subtype compatibility (paper §2.2.2): a pre-virtualization query
        // for compute resources sees virtual and physical records alike.
        let d = sample();
        let f = Filter::eq("objectclass", "GridComputeResource");
        assert_eq!(d.search_all(&f).len(), 3);
    }

    #[test]
    fn search_results_deterministic_order() {
        let d = sample();
        let f = Filter::present("is_virtual_resource");
        let names: Vec<&str> = d
            .search_all(&f)
            .iter()
            .map(|r| r.get("hn").unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
