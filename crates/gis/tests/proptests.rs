//! Property-based tests of the information service.

use proptest::prelude::*;

use mgrid_gis::{Directory, Dn, Filter, Record, Scope};

/// A tiny generator of random filters over attributes a..d / values x..z.
fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-d]", "[x-z]{1,2}").prop_map(|(a, v)| Filter::eq(a, v)),
        "[a-d]".prop_map(Filter::present),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::and),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::or),
            inner.prop_map(Filter::not),
        ]
    })
}

fn arb_record(idx: usize) -> impl Strategy<Value = Record> {
    prop::collection::vec(("[a-d]", "[x-z]{1,2}"), 0..6).prop_map(move |attrs| {
        let mut r = Record::new(Dn::parse(&format!("cn=e{idx}, o=Grid")).unwrap());
        for (k, v) in attrs {
            r.add(k, v);
        }
        r
    })
}

proptest! {
    /// Directory search equals a naive linear scan with the same filter.
    #[test]
    fn search_equals_naive_scan(
        recs in prop::collection::vec(arb_record(0), 0..8),
        f in arb_filter(),
    ) {
        let mut dir = Directory::new();
        let mut naive = Vec::new();
        for (i, mut r) in recs.into_iter().enumerate() {
            r.dn = Dn::parse(&format!("cn=e{i}, o=Grid")).unwrap();
            naive.push(r.clone());
            dir.upsert(r);
        }
        let hits: Vec<String> = dir
            .search(&Dn::parse("o=Grid").unwrap(), Scope::OneLevel, &f)
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

    /// Double negation is identity on every record.
    #[test]
    fn double_negation(f in arb_filter(), rec in arb_record(1)) {
        let nn = Filter::not(Filter::not(f.clone()));
        prop_assert_eq!(f.matches(&rec), nn.matches(&rec));
    }

    /// Scope laws: Base ⊆ Subtree and OneLevel ⊆ Subtree for any base.
    #[test]
    fn scope_containment(recs in prop::collection::vec(arb_record(2), 1..8)) {
        let mut dir = Directory::new();
        for (i, mut r) in recs.into_iter().enumerate() {
            let depth = i % 3;
            let dn = match depth {
                0 => format!("cn=e{i}, o=Grid"),
                1 => format!("cn=e{i}, ou=mid, o=Grid"),
                _ => format!("cn=e{i}, ou=deep, ou=mid, o=Grid"),
            };
            r.dn = Dn::parse(&dn).unwrap();
            dir.upsert(r);
        }
        let any = Filter::and([]);
        for base in ["o=Grid", "ou=mid, o=Grid"] {
            let base = Dn::parse(base).unwrap();
            let base_hits = dir.search(&base, Scope::Base, &any).len();
            let one = dir.search(&base, Scope::OneLevel, &any).len();
            let sub = dir.search(&base, Scope::Subtree, &any).len();
            prop_assert!(base_hits <= sub);
            prop_assert!(one <= sub);
        }
    }
}
