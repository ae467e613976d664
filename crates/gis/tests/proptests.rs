//! Property-based tests of the information service.

use proptest::prelude::*;

use mgrid_gis::{Directory, Dn, Filter, Record};

/// A tiny generator of random AND-of-equality filters over attributes
/// a..d / values x..z.
fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = ("[a-d]", "[x-z]{1,2}").prop_map(|(a, v)| Filter::eq(a, v));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Filter::and)
    })
}

fn arb_record(idx: usize) -> impl Strategy<Value = Record> {
    prop::collection::vec(("[a-d]", "[x-z]{1,2}"), 0..6).prop_map(move |attrs| {
        let r = Record::new(Dn::parse(&format!("cn=e{idx}, o=Grid")).unwrap());
        attrs.into_iter().fold(r, |r, (k, v)| r.with(k, v))
    })
}

proptest! {
    /// Directory search equals a naive linear scan with the same filter,
    /// over the published records and the ancestor `upsert` creates.
    #[test]
    fn search_equals_naive_scan(
        recs in prop::collection::vec(arb_record(0), 0..8),
        f in arb_filter(),
    ) {
        let mut dir = Directory::new();
        let mut naive = Vec::new();
        if !recs.is_empty() {
            naive.push(Record::new(Dn::parse("o=Grid").unwrap()));
        }
        for (i, mut r) in recs.into_iter().enumerate() {
            r.dn = Dn::parse(&format!("cn=e{i}, o=Grid")).unwrap();
            naive.push(r.clone());
            dir.upsert(r);
        }
        let hits: Vec<String> = dir
            .search_all(&f)
            .into_iter()
            .map(|r| r.dn.to_string())
            .collect();
        let mut expected: Vec<String> = naive
            .iter()
            .filter(|r| f.matches(r))
            .map(|r| r.dn.to_string())
            .collect();
        expected.sort();
        prop_assert_eq!(hits, expected);
    }
}
