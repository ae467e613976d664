//! GIS records: multi-valued attribute sets addressed by DN.

use std::rc::Rc;

use crate::dn::Dn;

/// One directory entry.
///
/// Attribute names are the schema's constants and match
/// case-insensitively; attributes are multi-valued, in insertion order.
/// A value is shared text: a [`crate::Directory`] lets records that
/// repeat a value hold one copy of it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Where this record lives in the directory tree.
    pub dn: Dn,
    /// `(name, value)` pairs in insertion order: a record has a handful
    /// of attributes, so a scan beats a map.
    attrs: Vec<(&'static str, Rc<str>)>,
}

impl Record {
    /// Create an empty record at `dn`.
    pub fn new(dn: Dn) -> Self {
        Record {
            dn,
            attrs: Vec::new(),
        }
    }

    /// A record at `dn` holding exactly `attrs`, in order.
    pub(crate) fn from_attrs<const N: usize>(dn: Dn, attrs: [(&'static str, Rc<str>); N]) -> Self {
        Record {
            dn,
            attrs: attrs.into(),
        }
    }

    /// Add a value to an attribute (keeps existing values).
    pub fn with(mut self, attr: &'static str, value: impl Into<Rc<str>>) -> Self {
        self.attrs.push((attr, value.into()));
        self
    }

    /// First value of an attribute.
    pub fn get(&self, attr: impl AsRef<str>) -> Option<&str> {
        let attr = attr.as_ref();
        self.attrs
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(attr))
            .map(|(_, value)| &**value)
    }

    /// All values of an attribute, in insertion order.
    pub fn get_all<'a>(&'a self, attr: impl AsRef<str> + 'a) -> impl Iterator<Item = &'a str> {
        self.attrs
            .iter()
            .filter(move |(name, _)| name.eq_ignore_ascii_case(attr.as_ref()))
            .map(|(_, value)| &**value)
    }

    /// Replace every value with `share(name, value)`, an equal value the
    /// caller already holds, and drop the spare room of the attribute
    /// list: the record is stored from here on.
    pub(crate) fn share_values(
        &mut self,
        mut share: impl FnMut(&'static str, &Rc<str>) -> Rc<str>,
    ) {
        for (name, value) in &mut self.attrs {
            *value = share(name, value);
        }
        self.attrs.shrink_to_fit();
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
        let r = rec()
            .with("ObjectClass", "VirtualResource")
            .with("cpuspeed", "20");
        assert_eq!(
            r.get_all("objectclass").collect::<Vec<_>>(),
            ["GridComputeResource", "VirtualResource"]
        );
        assert_eq!(r.get("objectclass"), Some("GridComputeResource"));
        assert_eq!(r.get_all("CpuSpeed").collect::<Vec<_>>(), ["10", "20"]);
        assert_eq!(r.get_all("missing").count(), 0);
    }
}
