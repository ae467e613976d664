//! Known-good fixture: `cmp::Ordering` is not a memory ordering, and a
//! reasoned suppression admits an atomic like any other finding.
use std::cmp::Ordering;

fn descending(a: u64, b: u64) -> Ordering {
    match a.cmp(&b) {
        Ordering::Less => Ordering::Greater,
        Ordering::Greater => Ordering::Less,
        Ordering::Equal => Ordering::Equal,
    }
}

// mgrid-lint: allow(MG006) id source shared with the host-side harness thread
static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
