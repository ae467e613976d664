//! LDAP-style search filters, built with constructors:
//! `Filter::and([Filter::eq("objectclass", "host"),
//! Filter::eq("Is_Virtual_Resource", "Yes")])`,
//! `Filter::not(Filter::present("is_virtual_resource"))`.
//!
//! Matching follows LDAP `caseIgnoreMatch`: attribute names and values
//! compare case-insensitively.

use crate::record::Record;

/// A search filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)` — some value of the attribute equals `value`.
    Eq(String, String),
    /// `(attr=*)` — the attribute is present.
    Present(String),
    /// `(&(f1)(f2)...)` — all must match; `(&)` is true.
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — any must match; `(|)` is false.
    Or(Vec<Filter>),
    /// `(!(f))` — negation.
    Not(Box<Filter>),
}

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
            Filter::And(fs) => fs.iter().all(|f| f.matches(record)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(record)),
            Filter::Not(f) => !f.matches(record),
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
    fn presence() {
        let r = host_record();
        assert!(Filter::present("cpuspeed").matches(&r));
        assert!(!Filter::present("nwtype").matches(&r));
    }

    #[test]
    fn and_or_not() {
        let r = host_record();
        assert!(Filter::and([
            Filter::eq("objectclass", "GridComputeResource"),
            Filter::eq("Is_Virtual_Resource", "Yes"),
        ])
        .matches(&r));
        assert!(
            Filter::or([Filter::eq("cpuspeed", "99"), Filter::eq("cpuspeed", "10")]).matches(&r)
        );
        assert!(Filter::not(Filter::eq("cpuspeed", "99")).matches(&r));
        assert!(
            !Filter::and([Filter::eq("cpuspeed", "10"), Filter::eq("cpuspeed", "99")]).matches(&r)
        );
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let r = host_record();
        assert!(Filter::and([]).matches(&r));
        assert!(!Filter::or([]).matches(&r));
    }
}
