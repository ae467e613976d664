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
//! compute slot on a physical host (where its cycles come from).

use std::cell::RefCell;
use std::rc::Rc;

use mgrid_desim::{FxHashMap, SpanStr};
use mgrid_hostsim::VirtualHost;
use mgrid_netsim::NodeId;

use crate::vip::{VipAllocator, VirtIp};

/// One virtual host's identity binding.
#[derive(Clone)]
pub struct HostEntry {
    /// Virtual hostname (what `gethostname` returns inside the host).
    pub name: String,
    /// Virtual IP address.
    pub vip: VirtIp,
    /// The host's node in the simulated virtual network.
    pub node: NodeId,
    /// The host's compute/memory slot.
    pub vhost: VirtualHost,
}

#[derive(Default)]
struct TableInner {
    by_name: FxHashMap<String, HostEntry>,
    by_vip: FxHashMap<VirtIp, String>,
    by_node: FxHashMap<NodeId, String>,
    vips: VipAllocator,
    /// Interned observability labels of a `host:port` endpoint, filled
    /// by traced traffic only (see [`HostTable::endpoint_labels`]).
    labels: FxHashMap<(NodeId, u16), (SpanStr, SpanStr)>,
}

/// The shared mapping table of one virtual Grid.
#[derive(Clone, Default)]
pub struct HostTable {
    inner: Rc<RefCell<TableInner>>,
}

impl HostTable {
    /// An empty table.
    pub fn new() -> Self {
        HostTable::default()
    }

    /// Register a virtual host, allocating its virtual IP.
    ///
    /// # Panics
    /// Panics if the name or network node is already registered.
    pub fn register(&self, name: impl Into<String>, node: NodeId, vhost: VirtualHost) -> HostEntry {
        let name = name.into();
        let mut t = self.inner.borrow_mut();
        assert!(
            !t.by_name.contains_key(&name),
            "virtual host {name:?} already registered"
        );
        assert!(
            !t.by_node.contains_key(&node),
            "network node {node:?} already bound to {:?}",
            t.by_node[&node]
        );
        let vip = t.vips.allocate();
        let entry = HostEntry {
            name: name.clone(),
            vip,
            node,
            vhost,
        };
        t.by_name.insert(name.clone(), entry.clone());
        t.by_vip.insert(vip, name.clone());
        t.by_node.insert(node, name);
        entry
    }

    /// Resolve a virtual hostname (the intercepted `gethostbyname`).
    pub fn lookup(&self, name: &str) -> Option<HostEntry> {
        self.inner.borrow().by_name.get(name).cloned()
    }

    /// Reverse-resolve a virtual IP.
    pub fn lookup_vip(&self, vip: VirtIp) -> Option<HostEntry> {
        let t = self.inner.borrow();
        t.by_vip.get(&vip).and_then(|n| t.by_name.get(n)).cloned()
    }

    /// Find the virtual host bound to a network node (used by receive
    /// paths to label message sources).
    pub fn lookup_node(&self, node: NodeId) -> Option<HostEntry> {
        let t = self.inner.borrow();
        t.by_node.get(&node).and_then(|n| t.by_name.get(n)).cloned()
    }

    /// The shared strings traced traffic to or from `port` on `host`
    /// is labelled with: the host's name and `"name:port"` (the span
    /// detail of a send, and the destination half of a `"msg"` flow
    /// key). Built on first use, so the per-message paths clone
    /// reference bumps instead of formatting the same text again.
    pub(crate) fn endpoint_labels(&self, host: &HostEntry, port: u16) -> (SpanStr, SpanStr) {
        self.inner
            .borrow_mut()
            .labels
            .entry((host.node, port))
            .or_insert_with(|| {
                (
                    host.name.as_str().into(),
                    format!("{}:{port}", host.name).into(),
                )
            })
            .clone()
    }

    /// Number of registered virtual hosts.
    pub fn len(&self) -> usize {
        self.inner.borrow().by_name.len()
    }

    /// True if no hosts are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            assert_eq!(e.vip.to_string(), "1.0.0.1");
            assert_eq!(t.lookup("vm.ucsd.edu").unwrap().node, NodeId(0));
            assert_eq!(t.lookup_vip(e.vip).unwrap().name, "vm.ucsd.edu");
            assert_eq!(t.lookup_node(NodeId(0)).unwrap().vip, e.vip);
            assert!(t.lookup("other").is_none());
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
