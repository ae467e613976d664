//! Virtual-host memory capacity enforcement (paper §3.2.1, Fig 5).
//!
//! Each virtual host carries a memory limit from its GIS record
//! (`MemorySize=...`). The MicroGrid enforces the limit when processes are
//! assigned to the virtual machine; allocations beyond it fail with an
//! out-of-memory error. The paper's microbenchmark observes that a process
//! can allocate about 1 KB less than the configured cap — per-process
//! bookkeeping overhead — which we model explicitly.

use std::cell::RefCell;
use std::rc::Rc;

use mgrid_desim::{obs, Event, FxHashMap};

/// Error returned when an allocation would exceed the virtual host's cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes still available under the cap.
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Per-process bookkeeping overhead charged at registration, matching the
/// ~1 KB shortfall the paper measures in Fig 5.
pub const PROCESS_OVERHEAD: u64 = 1024;

#[derive(Debug, Default)]
struct ProcUsage {
    used: u64,
    allocations: FxHashMap<u64, u64>,
    next_id: u64,
}

#[derive(Debug)]
struct MemState {
    limit: u64,
    used: u64,
    peak: u64,
    procs: FxHashMap<u64, ProcUsage>,
    next_proc: u64,
    /// Virtual-host label attached to emitted trace events (shared, so
    /// an event costs a reference bump).
    label: mgrid_desim::SpanStr,
}

impl MemState {
    fn note_alloc(&self, bytes: u64) {
        obs::count("mem.allocs", 1);
        obs::emit(|| Event::MemAlloc {
            host: self.label.clone(),
            bytes,
            in_use: self.used,
        });
    }

    fn note_deny(&self, requested: u64) {
        obs::count("mem.denials", 1);
        obs::emit(|| Event::MemDeny {
            host: self.label.clone(),
            requested,
            in_use: self.used,
            limit: self.limit,
        });
    }
}

/// Memory manager of one virtual host.
#[derive(Clone, Debug)]
pub struct MemoryManager {
    state: Rc<RefCell<MemState>>,
}

/// A process's view of its virtual host's memory.
#[derive(Clone, Debug)]
pub struct MemoryHandle {
    state: Rc<RefCell<MemState>>,
    proc_id: u64,
}

/// An allocation token; pass back to [`MemoryHandle::free`].
#[derive(Debug, PartialEq, Eq, Hash, Clone, Copy)]
pub struct AllocId(u64);

impl MemoryManager {
    /// Create a manager with the given capacity in bytes.
    pub fn new(limit: u64) -> Self {
        Self::labeled("vhost", limit)
    }

    /// Like [`MemoryManager::new`], but trace events emitted by this
    /// manager carry `label` as their host name.
    pub fn labeled(label: impl Into<String>, limit: u64) -> Self {
        MemoryManager {
            state: Rc::new(RefCell::new(MemState {
                limit,
                used: 0,
                peak: 0,
                procs: FxHashMap::default(),
                next_proc: 0,
                label: label.into().into(),
            })),
        }
    }

    /// Register a process on this virtual host, charging
    /// [`PROCESS_OVERHEAD`] bytes of bookkeeping.
    ///
    /// Fails if even the overhead does not fit.
    pub fn register_process(&self) -> Result<MemoryHandle, OutOfMemory> {
        let mut s = self.state.borrow_mut();
        if s.used + PROCESS_OVERHEAD > s.limit {
            s.note_deny(PROCESS_OVERHEAD);
            return Err(OutOfMemory {
                requested: PROCESS_OVERHEAD,
                available: s.limit - s.used,
            });
        }
        s.used += PROCESS_OVERHEAD;
        s.peak = s.peak.max(s.used);
        s.note_alloc(PROCESS_OVERHEAD);
        let id = s.next_proc;
        s.next_proc += 1;
        s.procs.insert(
            id,
            ProcUsage {
                used: PROCESS_OVERHEAD,
                ..ProcUsage::default()
            },
        );
        Ok(MemoryHandle {
            state: self.state.clone(),
            proc_id: id,
        })
    }

    /// Configured capacity in bytes.
    pub fn limit(&self) -> u64 {
        self.state.borrow().limit
    }

    /// Currently allocated bytes (including process overheads).
    pub fn used(&self) -> u64 {
        self.state.borrow().used
    }

    /// High-water mark of [`MemoryManager::used`].
    pub fn peak(&self) -> u64 {
        self.state.borrow().peak
    }
}

impl MemoryHandle {
    /// Allocate `bytes`; fails if the virtual host cap would be exceeded.
    pub fn alloc(&self, bytes: u64) -> Result<AllocId, OutOfMemory> {
        let mut s = self.state.borrow_mut();
        if s.used + bytes > s.limit {
            s.note_deny(bytes);
            return Err(OutOfMemory {
                requested: bytes,
                available: s.limit - s.used,
            });
        }
        s.used += bytes;
        s.peak = s.peak.max(s.used);
        s.note_alloc(bytes);
        let p = s.procs.get_mut(&self.proc_id).expect("process registered");
        p.used += bytes;
        let id = p.next_id;
        p.next_id += 1;
        p.allocations.insert(id, bytes);
        Ok(AllocId(id))
    }

    /// Free a prior allocation.
    ///
    /// # Panics
    /// Panics on a double free or foreign id.
    pub fn free(&self, id: AllocId) {
        let mut s = self.state.borrow_mut();
        let p = s.procs.get_mut(&self.proc_id).expect("process registered");
        let bytes = p
            .allocations
            .remove(&id.0)
            .expect("free of unknown allocation");
        p.used -= bytes;
        s.used -= bytes;
    }

    /// Bytes this process currently holds (including overhead).
    pub fn used(&self) -> u64 {
        self.state
            .borrow()
            .procs
            .get(&self.proc_id)
            .map(|p| p.used)
            .unwrap_or(0)
    }

    /// Release the process: frees all of its allocations and its overhead.
    pub fn release(self) {
        let mut s = self.state.borrow_mut();
        if let Some(p) = s.procs.remove(&self.proc_id) {
            s.used -= p.used;
        }
    }
}

/// Fig 5 probe: allocate `chunk`-byte blocks until out-of-memory; return
/// the total successfully allocated (excluding bookkeeping overhead).
pub fn probe_max_allocatable(limit: u64, chunk: u64) -> u64 {
    let mm = MemoryManager::new(limit);
    let Ok(h) = mm.register_process() else {
        return 0;
    };
    let mut total = 0;
    while h.alloc(chunk).is_ok() {
        total += chunk;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_within_limit_succeeds() {
        let mm = MemoryManager::new(10_000);
        let h = mm.register_process().unwrap();
        let id = h.alloc(4_000).unwrap();
        assert_eq!(mm.used(), 4_000 + PROCESS_OVERHEAD);
        h.free(id);
        assert_eq!(mm.used(), PROCESS_OVERHEAD);
    }

    #[test]
    fn alloc_beyond_limit_fails() {
        let mm = MemoryManager::new(2_048);
        let h = mm.register_process().unwrap();
        let err = h.alloc(2_000).unwrap_err();
        assert_eq!(err.requested, 2_000);
        assert_eq!(err.available, 1_024);
    }

    #[test]
    fn overhead_reduces_allocatable_by_about_1kb() {
        // The Fig 5 result: max allocatable ~= limit - 1KB, linear in limit.
        for limit_kb in [1u64, 16, 64, 256, 1024] {
            let limit = limit_kb * 1024;
            let max = probe_max_allocatable(limit, 64);
            assert_eq!(max, limit - PROCESS_OVERHEAD);
        }
    }

    #[test]
    fn two_processes_share_the_cap() {
        let mm = MemoryManager::new(10 * 1024);
        let a = mm.register_process().unwrap();
        let b = mm.register_process().unwrap();
        a.alloc(4 * 1024).unwrap();
        assert!(b.alloc(5 * 1024).is_err());
        b.alloc(3 * 1024).unwrap();
        assert_eq!(mm.used(), 7 * 1024 + 2 * PROCESS_OVERHEAD);
    }

    #[test]
    fn release_frees_everything() {
        let mm = MemoryManager::new(8 * 1024);
        let h = mm.register_process().unwrap();
        h.alloc(1_000).unwrap();
        h.alloc(2_000).unwrap();
        h.release();
        assert_eq!(mm.used(), 0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mm = MemoryManager::new(8 * 1024);
        let h = mm.register_process().unwrap();
        let id = h.alloc(5_000).unwrap();
        h.free(id);
        h.alloc(100).unwrap();
        assert_eq!(mm.peak(), 5_000 + PROCESS_OVERHEAD);
    }

    #[test]
    #[should_panic(expected = "free of unknown allocation")]
    fn double_free_panics() {
        let mm = MemoryManager::new(8 * 1024);
        let h = mm.register_process().unwrap();
        let id = h.alloc(100).unwrap();
        h.free(id);
        h.free(id);
    }

    #[test]
    fn registration_fails_when_full() {
        let mm = MemoryManager::new(1_500);
        let _a = mm.register_process().unwrap();
        assert!(mm.register_process().is_err());
    }
}
