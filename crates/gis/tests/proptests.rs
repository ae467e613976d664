//! Property-based tests of the information service.

use proptest::prelude::*;

use mgrid_gis::{Directory, Dn, Filter, Rdn, Record};

/// A tiny generator of random AND-of-equality filters over attributes
/// a..d / values x..z.
fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = ("[a-d]", "[x-z]{1,2}").prop_map(|(a, v)| Filter::eq(a, v));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Filter::and)
    })
}

/// Record attribute names are schema constants: `a`..`d`, in either case
/// (names match case-insensitively).
const NAMES: [&str; 8] = ["a", "b", "c", "d", "A", "B", "C", "D"];

fn arb_record(idx: usize) -> impl Strategy<Value = Record> {
    prop::collection::vec((0..NAMES.len(), "[x-z]{1,2}"), 0..6).prop_map(move |attrs| {
        let r = Record::new(Dn::parse(&format!("cn=e{idx}, o=Grid")).unwrap());
        attrs.into_iter().fold(r, |r, (k, v)| r.with(NAMES[k], v))
    })
}

/// A DN of up to three RDNs whose values may hold the separator, so
/// distinct DNs can print alike and one text can prefix another.
fn arb_dn() -> impl Strategy<Value = Dn> {
    prop::collection::vec((0..2usize, "[a ,=]{1,3}"), 0..4).prop_map(|rdns| {
        Dn::from_rdns(
            rdns.into_iter()
                .map(|(a, v)| Rdn::new(["a", "b"][a], v))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// DNs sort as their text does, and compare equal exactly when equal.
    #[test]
    fn dn_order_is_text_order(a in arb_dn(), b in arb_dn()) {
        let (ta, tb) = (a.to_string(), b.to_string());
        if ta != tb {
            prop_assert_eq!(a.cmp(&b), ta.cmp(&tb));
        }
        prop_assert_eq!(a.cmp(&b).is_eq(), a == b);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }
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
