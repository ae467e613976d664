//! Search filters: equality tests joined by AND, built with constructors:
//! `Filter::and([Filter::eq("objectclass", "GridComputeResource"),
//! Filter::eq("Is_Virtual_Resource", "Yes")])`.
//!
//! Matching follows LDAP `caseIgnoreMatch`: attribute names and values
//! compare case-insensitively.

use crate::record::Record;

/// A search filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)` — some value of the attribute equals `value`.
    Eq(String, String),
    /// `(&(f1)(f2)...)` — all must match; `(&)` is true.
    And(Vec<Filter>),
}

impl Filter {
    /// Equality filter.
    pub fn eq(attr: impl AsRef<str>, value: impl Into<String>) -> Filter {
        Filter::Eq(attr.as_ref().to_ascii_lowercase(), value.into())
    }

    /// Conjunction.
    pub fn and(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::And(filters.into_iter().collect())
    }

    /// Evaluate against a record.
    pub fn matches(&self, record: &Record) -> bool {
        match self {
            Filter::Eq(attr, value) => record.get_all(attr).any(|v| v.eq_ignore_ascii_case(value)),
            Filter::And(fs) => fs.iter().all(|f| f.matches(record)),
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
        assert!(Filter::eq("is_virtual_resource", "YES").matches(&r));
        assert!(!Filter::eq("is_virtual_resource", "No").matches(&r));
    }

    #[test]
    fn and_needs_every_term() {
        let r = host_record();
        assert!(Filter::and([
            Filter::eq("objectclass", "GridComputeResource"),
            Filter::eq("Is_Virtual_Resource", "Yes"),
        ])
        .matches(&r));
        assert!(
            !Filter::and([Filter::eq("cpuspeed", "10"), Filter::eq("cpuspeed", "99")]).matches(&r)
        );
    }

    #[test]
    fn empty_and_is_true() {
        assert!(Filter::and([]).matches(&host_record()));
    }
}
