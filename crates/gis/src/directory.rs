//! The directory: DN-addressed record storage, searched with a filter
//! over the whole tree.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::dn::Dn;
use crate::filter::Filter;
use crate::record::Record;

/// An in-memory GIS directory.
///
/// Keyed by DN in the order of the DNs' text, so iteration order (and
/// therefore search-result order) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: BTreeMap<Dn, Record>,
    /// The value last stored under each attribute name. A record whose
    /// value equals it shares its text: a grid publishes runs of records
    /// that repeat their configuration name, the schema's constants and
    /// the specs their hosts have in common.
    last: Vec<(&'static str, Rc<str>)>,
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

    /// Replace the record at a DN (or insert it, creating ancestors).
    pub fn upsert(&mut self, mut record: Record) {
        record.share_values(|name, value| {
            match self.last.iter_mut().find(|(held, _)| *held == name) {
                Some((_, held)) if *held == *value => held.clone(),
                Some((_, held)) => {
                    *held = value.clone();
                    value.clone()
                }
                None => {
                    self.last.push((name, value.clone()));
                    value.clone()
                }
            }
        });
        let parent = record.dn.parent().cloned();
        match self.entries.entry(record.dn.clone()) {
            Entry::Occupied(mut entry) => {
                entry.insert(record);
            }
            Entry::Vacant(entry) => {
                entry.insert(record);
                self.create_ancestors(parent);
            }
        }
    }

    /// Create `dn` and its ancestors below the root, up to the first that
    /// exists. Each shares its DN with the record that needed it.
    fn create_ancestors(&mut self, mut dn: Option<Dn>) {
        while let Some(d) = dn.filter(|d| d.parent().is_some()) {
            if self.entries.contains_key(&d) {
                break;
            }
            dn = d.parent().cloned();
            self.entries.insert(d.clone(), Record::new(d));
        }
    }

    /// Every record `filter` matches, in DN order.
    pub fn search_all(&self, filter: &Filter) -> Vec<&Record> {
        self.entries
            .values()
            .filter(|r| filter.matches(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    /// Every record's DN, in DN order.
    fn dns(d: &Directory) -> Vec<String> {
        d.search_all(&Filter::and([]))
            .iter()
            .map(|r| r.dn.to_string())
            .collect()
    }

    fn sample() -> Directory {
        let mut d = Directory::new();
        d.upsert(Record::new(dn("ou=CSAG, o=Grid")).with("ou", "CSAG"));
        for (host, speed, virt) in [
            ("csag-226-67.ucsd.edu", "533", "No"),
            ("vm.ucsd.edu", "10", "Yes"),
            ("vm2.ucsd.edu", "20", "Yes"),
        ] {
            d.upsert(
                Record::new(dn(&format!("hn={host}, ou=CSAG, o=Grid")))
                    .with("objectclass", "GridComputeResource")
                    .with("hn", host)
                    .with("CpuSpeed", speed)
                    .with("Is_Virtual_Resource", virt),
            );
        }
        d
    }

    #[test]
    fn ancestors_autocreated() {
        let mut d = Directory::new();
        d.upsert(Record::new(dn("hn=deep, ou=a, ou=b, o=Grid")));
        assert_eq!(
            dns(&d),
            [
                "hn=deep, ou=a, ou=b, o=Grid",
                "o=Grid",
                "ou=a, ou=b, o=Grid",
                "ou=b, o=Grid"
            ]
        );
    }

    #[test]
    fn ancestors_of_values_that_contain_the_separator() {
        use crate::dn::Rdn;
        // `Dn::parse` cannot produce such a value, `Rdn::new` can; the
        // ancestor keys must still be the ancestors' own text.
        let rdns = vec![
            Rdn::new("hn", "a, b=c"),
            Rdn::new("ou", "x, y"),
            Rdn::new("o", "Grid"),
        ];
        let leaf = Dn::from_rdns(rdns.clone());
        let mut d = Directory::new();
        d.upsert(Record::new(leaf.clone()).with("hn", "first"));
        d.upsert(Record::new(leaf.clone()).with("hn", "second"));
        let ancestors = [&rdns[1..], &rdns[2..]].map(|r| Dn::from_rdns(r.to_vec()).to_string());
        let mut want = vec![leaf.to_string(), ancestors[0].clone(), ancestors[1].clone()];
        want.sort();
        assert_eq!(dns(&d), want);
        let hits = d.search_all(&Filter::eq("hn", "second"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn, leaf);
        assert_eq!(hits[0].get_all("hn").collect::<Vec<_>>(), ["second"]);
        // Upserting at an ancestor's DN replaces the record created for it.
        d.upsert(Record::new(Dn::from_rdns(rdns[1..].to_vec())).with("ou", "named"));
        assert_eq!(dns(&d), want);
        assert_eq!(d.search_all(&Filter::eq("ou", "named")).len(), 1);
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
        let f = Filter::eq("objectclass", "GridComputeResource");
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
