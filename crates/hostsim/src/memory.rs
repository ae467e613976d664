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

use mgrid_desim::{obs, Event};

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

/// Bytes one registered process holds, overhead included: what its
/// release gives back.
#[derive(Debug)]
struct ProcUsage {
    id: u64,
    used: u64,
}

#[derive(Debug)]
struct MemState {
    limit: u64,
    used: u64,
    /// Registered processes in id order (ids only grow, so a
    /// registration appends), with no spare room.
    procs: Vec<ProcUsage>,
    next_proc: u64,
    /// Virtual-host label attached to emitted trace events (shared, so
    /// an event costs a reference bump).
    label: mgrid_desim::SpanStr,
}

impl MemState {
    fn proc_index(&self, id: u64) -> Option<usize> {
        self.procs.binary_search_by_key(&id, |p| p.id).ok()
    }

    fn proc_mut(&mut self, id: u64) -> &mut ProcUsage {
        let i = self.proc_index(id).expect("process registered");
        &mut self.procs[i]
    }

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

impl MemoryManager {
    /// Create a manager with the given capacity in bytes; trace events
    /// emitted by it carry `label` as their host name.
    pub fn new(label: impl Into<String>, limit: u64) -> Self {
        MemoryManager {
            state: Rc::new(RefCell::new(MemState {
                limit,
                used: 0,
                procs: Vec::new(),
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
        s.note_alloc(PROCESS_OVERHEAD);
        let id = s.next_proc;
        s.next_proc += 1;
        s.procs.reserve_exact(1);
        s.procs.push(ProcUsage {
            id,
            used: PROCESS_OVERHEAD,
        });
        Ok(MemoryHandle {
            state: self.state.clone(),
            proc_id: id,
        })
    }

    /// Currently allocated bytes (including process overheads).
    pub fn used(&self) -> u64 {
        self.state.borrow().used
    }
}

impl MemoryHandle {
    /// Allocate `bytes`; fails if the virtual host cap would be exceeded.
    /// The bytes are held until the process is released.
    pub fn alloc(&self, bytes: u64) -> Result<(), OutOfMemory> {
        let mut s = self.state.borrow_mut();
        if s.used + bytes > s.limit {
            s.note_deny(bytes);
            return Err(OutOfMemory {
                requested: bytes,
                available: s.limit - s.used,
            });
        }
        s.used += bytes;
        s.note_alloc(bytes);
        s.proc_mut(self.proc_id).used += bytes;
        Ok(())
    }

    /// Release the process: frees all of its allocations and its overhead.
    pub fn release(self) {
        let mut s = self.state.borrow_mut();
        if let Some(i) = s.proc_index(self.proc_id) {
            let p = s.procs.remove(i);
            s.used -= p.used;
        }
    }
}

/// Fig 5 probe: allocate `chunk`-byte blocks until out-of-memory; return
/// the total successfully allocated (excluding bookkeeping overhead).
pub fn probe_max_allocatable(limit: u64, chunk: u64) -> u64 {
    let mm = MemoryManager::new("vhost", limit);
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
        let mm = MemoryManager::new("vhost", 10_000);
        let h = mm.register_process().unwrap();
        h.alloc(4_000).unwrap();
        assert_eq!(mm.used(), 4_000 + PROCESS_OVERHEAD);
    }

    #[test]
    fn alloc_beyond_limit_fails() {
        let mm = MemoryManager::new("vhost", 2_048);
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
        let mm = MemoryManager::new("vhost", 10 * 1024);
        let a = mm.register_process().unwrap();
        let b = mm.register_process().unwrap();
        a.alloc(4 * 1024).unwrap();
        assert!(b.alloc(5 * 1024).is_err());
        b.alloc(3 * 1024).unwrap();
        assert_eq!(mm.used(), 7 * 1024 + 2 * PROCESS_OVERHEAD);
    }

    #[test]
    fn release_frees_everything() {
        let mm = MemoryManager::new("vhost", 8 * 1024);
        let h = mm.register_process().unwrap();
        h.alloc(1_000).unwrap();
        h.alloc(2_000).unwrap();
        h.release();
        assert_eq!(mm.used(), 0);
    }

    #[test]
    fn registration_fails_when_full() {
        let mm = MemoryManager::new("vhost", 1_500);
        let _a = mm.register_process().unwrap();
        assert!(mm.register_process().is_err());
    }
}
