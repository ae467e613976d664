//! The virtualization mapping table (paper §2.2.1).
//!
//! "Each virtual host is mapped to a physical machine using a mapping
//! table from virtual IP address to physical IP address. All relevant
//! library calls are intercepted and mapped from virtual to physical space
//! using this table."
//!
//! In this reproduction an entry binds together the three identities of a
//! virtual host: its name and virtual IP (what applications see), its
//! node in the simulated virtual network (where its traffic goes), and its
//! compute slot on a physical host (where its cycles come from). The table
//! is the one registry of them: entries are indexed by node, one map
//! resolves a name to its node, and the virtual IP is a function of the
//! node.

use std::cell::RefCell;
use std::rc::Rc;

use mgrid_desim::{obs, Counter, FxHashMap, SpanStr};
use mgrid_hostsim::VirtualHost;
use mgrid_netsim::NodeId;

use crate::vip::VirtIp;

/// One virtual host's identity binding. A clone is two reference bumps.
#[derive(Clone)]
pub struct HostEntry {
    /// Virtual hostname (what `gethostname` returns inside the host),
    /// interned at registration: the string every span and event naming
    /// the host shares.
    pub name: SpanStr,
    /// The host's node in the simulated virtual network.
    pub node: NodeId,
    /// The host's compute/memory slot.
    pub vhost: VirtualHost,
}

impl HostEntry {
    /// The host's virtual IP: `1.0.0.1` for node 0, counting up through
    /// the 1.0.0.0/8 block. Virtual hosts take the first network nodes in
    /// configuration order, so these are the addresses in that order.
    pub fn vip(&self) -> VirtIp {
        VirtIp((1 << 24) | (self.node.0 as u32 + 1))
    }
}

/// Vsocket metric handles, resolved once per table: the interception
/// layer records these per send/recv with no registry lookup.
pub(crate) struct VsockMetrics {
    pub(crate) sends: Counter,
    pub(crate) bytes_sent: Counter,
    pub(crate) recvs: Counter,
    pub(crate) bytes_recvd: Counter,
}

#[derive(Default)]
struct TableInner {
    /// Indexed by `NodeId`; `None` for routers.
    entries: Vec<Option<HostEntry>>,
    /// Name → node, keyed by the entry's own interned name.
    nodes: FxHashMap<SpanStr, NodeId>,
    /// Interned `"name:port"` labels of an endpoint, filled by traced
    /// traffic only (see [`HostTable::endpoint_label`]).
    labels: FxHashMap<(NodeId, u16), SpanStr>,
}

/// The shared mapping table of one virtual Grid.
#[derive(Clone)]
pub struct HostTable {
    inner: Rc<RefCell<TableInner>>,
    pub(crate) vsock: Rc<VsockMetrics>,
}

impl Default for HostTable {
    fn default() -> Self {
        HostTable::new()
    }
}

impl HostTable {
    /// An empty table, its vsocket counters bound to the running
    /// simulation's registry.
    pub fn new() -> Self {
        HostTable {
            inner: Rc::default(),
            vsock: Rc::new(VsockMetrics {
                sends: obs::counter_handle("vsock.sends"),
                bytes_sent: obs::counter_handle("vsock.bytes_sent"),
                recvs: obs::counter_handle("vsock.recvs"),
                bytes_recvd: obs::counter_handle("vsock.bytes_recvd"),
            }),
        }
    }

    /// Register a virtual host on network node `node`.
    ///
    /// # Panics
    /// Panics if the name or network node is already registered.
    pub fn register(&self, name: &str, node: NodeId, vhost: VirtualHost) -> HostEntry {
        let mut t = self.inner.borrow_mut();
        assert!(
            !t.nodes.contains_key(name),
            "virtual host {name:?} already registered"
        );
        if t.entries.len() <= node.0 {
            t.entries.resize(node.0 + 1, None);
        }
        if let Some(bound) = &t.entries[node.0] {
            panic!("network node {node:?} already bound to {:?}", bound.name);
        }
        let entry = HostEntry {
            name: name.into(),
            node,
            vhost,
        };
        t.entries[node.0] = Some(entry.clone());
        t.nodes.insert(entry.name.clone(), node);
        entry
    }

    /// Resolve a virtual hostname (the intercepted `gethostbyname`).
    pub fn lookup(&self, name: &str) -> Option<HostEntry> {
        let t = self.inner.borrow();
        let node = *t.nodes.get(name)?;
        t.entries[node.0].clone()
    }

    /// The virtual host bound to a network node (how receive paths name
    /// a message's source).
    pub fn lookup_node(&self, node: NodeId) -> Option<HostEntry> {
        self.inner.borrow().entries.get(node.0)?.clone()
    }

    /// The shared `"name:port"` string traced traffic to or from `port`
    /// on `host` is labelled with (the span detail of a send, and the
    /// destination half of a `"msg"` flow key). Built on first use, so
    /// the per-message paths clone a reference instead of formatting the
    /// same text again.
    pub(crate) fn endpoint_label(&self, host: &HostEntry, port: u16) -> SpanStr {
        self.inner
            .borrow_mut()
            .labels
            .entry((host.node, port))
            .or_insert_with(|| format!("{}:{port}", host.name).into())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::{SimRng, Simulation};
    use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};

    fn vhost() -> VirtualHost {
        PhysicalHost::new(
            PhysicalHostSpec::new("p", 500.0, 1 << 30),
            OsParams::default(),
            SchedulerParams::default(),
            SimRng::new(1),
        )
        .as_direct_virtual()
    }

    #[test]
    fn register_and_lookup_all_ways() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let t = HostTable::new();
            let e = t.register("vm.ucsd.edu", NodeId(0), vhost());
            assert_eq!(e.vip().to_string(), "1.0.0.1");
            assert_eq!(t.lookup("vm.ucsd.edu").unwrap().node, NodeId(0));
            assert_eq!(&*t.lookup_node(NodeId(0)).unwrap().name, "vm.ucsd.edu");
            assert!(t.lookup("other").is_none());
            assert!(t.lookup_node(NodeId(1)).is_none());
        });
        sim.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_panics() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let t = HostTable::new();
            t.register("x", NodeId(0), vhost());
            t.register("x", NodeId(1), vhost());
        });
        sim.run_to_completion();
    }
}
