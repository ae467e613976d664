//! Process context: everything a Grid application sees through the
//! MicroGrid's interception layer.
//!
//! "By intercepting these calls, a program can run transparently on a
//! virtual host whose hostname and IP address are virtual. The program can
//! only communicate with processes running on other virtual Grid hosts."
//! (paper §2.2.1). `ProcessCtx` is that mediated surface: virtual
//! hostname, virtual `gettimeofday`, compute, memory, and sockets that
//! only reach the virtual network.

use std::rc::Rc;

use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::{obs, Counter};
use mgrid_hostsim::{GridProcess, OutOfMemory};
use mgrid_netsim::{Endpoint, Network};

use crate::hosttable::{HostEntry, HostTable};
use crate::vip::VirtIp;

/// Pre-resolved vsocket metric handles: the interception layer records
/// these per send/recv, so the registry name lookup is done once per
/// process instead of once per operation.
pub(crate) struct VsockMetrics {
    pub(crate) sends: Counter,
    pub(crate) bytes_sent: Counter,
    pub(crate) recvs: Counter,
    pub(crate) bytes_recvd: Counter,
    pub(crate) retries: Counter,
    pub(crate) send_failures: Counter,
}

/// The execution context of one Grid process on a virtual host.
#[derive(Clone)]
pub struct ProcessCtx {
    entry: HostEntry,
    proc: GridProcess,
    endpoint: Endpoint,
    table: HostTable,
    pub(crate) vsock_metrics: Rc<VsockMetrics>,
    /// Lazily interned `(track, lane)` span attributes — the virtual
    /// host name and process name never change, so per-message spans
    /// clone reference bumps instead of allocating.
    span_attrs: Rc<std::cell::OnceCell<(mgrid_desim::SpanStr, mgrid_desim::SpanStr)>>,
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
            vsock_metrics: Rc::new(VsockMetrics {
                sends: obs::counter_handle("vsock.sends"),
                bytes_sent: obs::counter_handle("vsock.bytes_sent"),
                recvs: obs::counter_handle("vsock.recvs"),
                bytes_recvd: obs::counter_handle("vsock.bytes_recvd"),
                retries: obs::counter_handle("vsock.retries"),
                send_failures: obs::counter_handle("vsock.send_failures"),
            }),
            span_attrs: Rc::new(std::cell::OnceCell::new()),
        })
    }

    /// The interned `(track, lane)` span attribute pair for this
    /// process: `(virtual hostname, process name)`. First call
    /// allocates; every later call is two reference bumps.
    pub(crate) fn span_attrs(&self) -> (mgrid_desim::SpanStr, mgrid_desim::SpanStr) {
        let (track, lane) = self.span_attrs.get_or_init(|| {
            (
                self.entry.name.as_str().into(),
                self.proc.os_process().name_shared(),
            )
        });
        (track.clone(), lane.clone())
    }

    /// The intercepted `gethostname()`: the *virtual* host name.
    pub fn gethostname(&self) -> &str {
        &self.entry.name
    }

    /// This host's virtual IP.
    pub fn virtual_ip(&self) -> VirtIp {
        self.entry.vip
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

    /// The host entry of this process.
    pub fn entry(&self) -> &HostEntry {
        &self.entry
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

    /// Execute work sized in virtual CPU seconds.
    pub async fn compute_virtual(&self, d: SimDuration) {
        self.proc.compute_virtual(d).await;
    }

    /// Sleep for a span of *virtual* time (the intercepted `sleep()`).
    pub async fn sleep_virtual(&self, d: SimDuration) {
        mgrid_desim::vclock::sleep_virtual(self.clock(), d).await;
    }

    /// Allocate virtual-host memory.
    pub fn malloc(&self, bytes: u64) -> Result<mgrid_hostsim::memory::AllocId, OutOfMemory> {
        self.proc.memory().alloc(bytes)
    }

    /// Free a prior allocation.
    pub fn free(&self, id: mgrid_hostsim::memory::AllocId) {
        self.proc.memory().free(id)
    }

    /// Terminate the process and release its resources.
    pub fn exit(&self) {
        self.proc.exit();
    }
}
