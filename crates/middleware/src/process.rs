//! Process context: everything a Grid application sees through the
//! MicroGrid's interception layer.
//!
//! "By intercepting these calls, a program can run transparently on a
//! virtual host whose hostname and IP address are virtual. The program can
//! only communicate with processes running on other virtual Grid hosts."
//! (paper §2.2.1). `ProcessCtx` is that mediated surface: virtual
//! hostname, virtual `gettimeofday`, compute, memory, and sockets that
//! only reach the virtual network.

use std::cell::OnceCell;
use std::rc::Rc;

use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::SpanStr;
use mgrid_hostsim::{GridProcess, OutOfMemory};
use mgrid_netsim::{Endpoint, Network};

use crate::hosttable::{HostEntry, HostTable};

/// The execution context of one Grid process on a virtual host.
#[derive(Clone)]
pub struct ProcessCtx {
    entry: HostEntry,
    proc: GridProcess,
    endpoint: Endpoint,
    table: HostTable,
    /// The process name as a span lane, taken on first use: per-message
    /// spans clone a reference instead of allocating.
    lane: Rc<OnceCell<SpanStr>>,
}

impl ProcessCtx {
    /// Start a process on the named virtual host.
    ///
    /// Fails with [`OutOfMemory`] if the host's memory cap cannot fit the
    /// process.
    ///
    /// # Panics
    /// Panics if `host` is not in the table.
    pub fn spawn(
        table: &HostTable,
        net: &Network,
        host: &str,
        proc_name: impl Into<String>,
    ) -> Result<ProcessCtx, OutOfMemory> {
        let entry = table
            .lookup(host)
            .unwrap_or_else(|| panic!("unknown virtual host {host:?}"));
        let proc = entry.vhost.spawn_process(proc_name)?;
        let endpoint = net.endpoint(entry.node);
        Ok(ProcessCtx {
            entry,
            proc,
            endpoint,
            table: table.clone(),
            lane: Rc::default(),
        })
    }

    /// The `(track, lane)` span attribute pair for this process: the
    /// host's interned name and the process name, two reference bumps.
    pub(crate) fn span_attrs(&self) -> (SpanStr, SpanStr) {
        let lane = self
            .lane
            .get_or_init(|| self.proc.os_process().name_shared());
        (self.entry.name.clone(), lane.clone())
    }

    /// The intercepted `gethostname()`: the *virtual* host name.
    pub fn gethostname(&self) -> &str {
        &self.entry.name
    }

    /// The intercepted `gettimeofday()`: current **virtual** time
    /// (paper §2.3, "Virtualizing Time").
    pub fn gettimeofday(&self) -> SimTime {
        self.clock().virtual_at(mgrid_desim::now())
    }

    /// The virtual clock itself: the one the process's network runs on.
    pub fn clock(&self) -> &VirtualClock {
        self.endpoint.network().clock()
    }

    /// The mapping table (resource discovery helpers).
    pub fn table(&self) -> &HostTable {
        &self.table
    }

    /// The underlying compute process.
    pub fn process(&self) -> &GridProcess {
        &self.proc
    }

    /// The raw network endpoint (prefer [`crate::vsocket::VSocket`]).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Execute `mops` million abstract operations on the virtual CPU.
    pub async fn compute_mops(&self, mops: f64) {
        self.proc.compute_mops(mops).await;
    }

    /// Sleep for a span of *virtual* time (the intercepted `sleep()`).
    pub async fn sleep_virtual(&self, d: SimDuration) {
        mgrid_desim::vclock::sleep_virtual(self.clock(), d).await;
    }

    /// Terminate the process and release its resources.
    pub fn exit(&self) {
        self.proc.exit();
    }
}
