//! Known-bad fixture: atomics in a sim crate — unpaired, invalid, or
//! impeccably paired and annotated, a simulation has no second thread
//! to share them with.
use std::sync::atomic::{AtomicU64, Ordering};

struct Publisher {
    flagx: AtomicU64,
    seqno: AtomicU64,
}

impl Publisher {
    fn publish(&self) {
        self.flagx.store(1, Ordering::Relaxed);
    }
    fn acquire_only(&self) -> u64 {
        self.seqno.load(Ordering::Acquire)
    }
    fn invalid(&self) -> u64 {
        self.flagx.load(Ordering::Release)
    }
    fn open(&self, t: u64) {
        // ORDERING: Release publishes the payload written before the
        // store; paired with the Acquire load in `acquire_only`.
        self.seqno.store(t, Ordering::Release);
    }
    fn fence(&self) {
        self.flagx.store(2, Ordering::SeqCst);
    }
}
