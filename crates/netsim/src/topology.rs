//! Network topology: nodes, links, and demand-driven shortest-path routing.
//!
//! The paper's network simulator (VINT/NSE) "allows definition of an
//! arbitrary network configuration" and delivers live traffic "to the right
//! destination with the right delay" (§2.4.2). We model topologies as
//! graphs of hosts and routers joined by duplex links with bandwidth,
//! propagation delay, and a bounded FIFO queue.
//!
//! Routes are static shortest paths (Dijkstra on propagation delay, hop
//! count as first tie-break), but they are **not** precomputed: building
//! the all-pairs `next_hop` matrix eagerly is O(N·(E log N)) time and
//! O(N²) memory, which dominates construction long before the
//! thousand-host grids the paper's scalability claim is about. Instead
//! [`Topology::next_hop`] computes the per-source first-hop table lazily
//! on the first query from that source and memoizes it — the shape
//! SSFNet-style simulators use to route large topologies on demand. A
//! source whose every destination leaves by one link (every host of a
//! switched cluster) keeps that link id, not a table, so only routers
//! hold node-count tables. A source with one outgoing link gets that
//! entry without a Dijkstra when the link's head reaches every node (one
//! memoized graph walk per head), so routing a switched cluster costs one
//! Dijkstra, the switch's, not one per host.
//!
//! Determinism: equal-cost paths are broken lexicographically by
//! `(delay, hops, link id)` — among optimal predecessors of a node the
//! minimal incoming link id wins — so the cached tables are a pure
//! function of the topology, independent of query order or hash-map
//! iteration order.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use mgrid_desim::time::SimDuration;
use mgrid_desim::{obs, Counter, FxHashMap};

/// Index of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of a *directed* link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// What a node is; only hosts may bind ports and originate traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host with a NIC.
    Host,
    /// A store-and-forward router.
    Router,
}

/// Characteristics of one link direction.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct LinkSpec {
    /// Raw bandwidth in bits per second (virtual network time).
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// FIFO queue capacity in bytes; arrivals beyond this are dropped.
    pub queue_bytes: u64,
}

impl LinkSpec {
    /// A link with the given bandwidth (bits/s) and delay, with a default
    /// 512 KB queue (comfortably above one flow-control window, so drops
    /// only occur under genuine congestion).
    pub fn new(bandwidth_bps: f64, delay: SimDuration) -> Self {
        LinkSpec {
            bandwidth_bps,
            delay,
            queue_bytes: 512 * 1024,
        }
    }

    /// 100 Mb/s switched Ethernet with a typical LAN delay.
    pub fn fast_ethernet() -> Self {
        LinkSpec::new(100e6, SimDuration::from_micros(50))
    }

    /// 1.2 Gb/s Myrinet (the paper's HPVM cluster interconnect).
    pub fn myrinet() -> Self {
        LinkSpec::new(1.2e9, SimDuration::from_micros(10))
    }

    /// Serialization time of `bytes` on this link (virtual time).
    #[expect(
        clippy::disallowed_methods,
        reason = "model math: serialization time is bits over the configured f64 bandwidth"
    )]
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct NodeInfo {
    pub name: String,
    pub kind: NodeKind,
}

#[derive(Clone, Debug)]
pub(crate) struct LinkInfo {
    pub spec: LinkSpec,
    pub from: NodeId,
    pub to: NodeId,
}

/// Counters for the route cache, resolved against the current
/// simulation's metrics registry when the topology is built (detached —
/// counted but never snapshotted — when built outside a simulation).
#[derive(Clone)]
struct RouteMetrics {
    /// `net.route_cache_hits`: first-hop queries served from a cached table.
    hits: Counter,
    /// `net.route_cache_misses`: first-hop queries that had to compute.
    misses: Counter,
    /// `net.route_src_computed`: sources whose entry was computed, by a
    /// Dijkstra or the one-uplink rule (misses + warming).
    src_computed: Counter,
}

impl RouteMetrics {
    fn resolve() -> Self {
        RouteMetrics {
            hits: obs::counter_handle("net.route_cache_hits"),
            misses: obs::counter_handle("net.route_cache_misses"),
            src_computed: obs::counter_handle("net.route_src_computed"),
        }
    }
}

/// "No route" in a first-hop table; [`TopologyBuilder::build`] keeps
/// every real link id below it.
const NO_ROUTE: u32 = u32::MAX;

/// One source's cached first hops.
#[derive(Clone)]
enum SourceRoutes {
    /// Every destination but the source itself leaves by this link (or
    /// none is reachable, [`NO_ROUTE`]): a host on one uplink.
    Uniform(u32),
    /// For each `dst`, the id of the first directed link from the source
    /// towards it, or [`NO_ROUTE`]. Four bytes per node.
    Table(Box<[u32]>),
}

impl SourceRoutes {
    /// Pack a first-hop table, `first[src]` being [`NO_ROUTE`].
    fn pack(src: NodeId, first: &[u32]) -> Self {
        let mut others = first
            .iter()
            .enumerate()
            .filter(|&(dst, _)| dst != src.0)
            .map(|(_, &hop)| hop);
        let uniform = others.next().unwrap_or(NO_ROUTE);
        if others.all(|hop| hop == uniform) {
            SourceRoutes::Uniform(uniform)
        } else {
            SourceRoutes::Table(first.into())
        }
    }

    fn hop(&self, src: NodeId, dst: NodeId) -> u32 {
        match self {
            SourceRoutes::Uniform(_) if dst == src => NO_ROUTE,
            SourceRoutes::Uniform(hop) => *hop,
            SourceRoutes::Table(first) => first[dst.0],
        }
    }
}

/// The route cache and the working vectors of the Dijkstra that fills it.
#[derive(Clone, Default)]
struct Routes {
    /// `tables[src]`, once computed. Indexed by source, since every hop
    /// of every packet reads it.
    tables: Vec<Option<SourceRoutes>>,
    // Dijkstra's scratch, kept between sources so a source costs at most
    // one allocation (its table), not six.
    first: Vec<u32>,
    dist: Vec<(u64, u32)>,
    parent: Vec<u32>,
    settled: Vec<bool>,
    order: Vec<usize>,
    heap: BinaryHeap<Reverse<((u64, u32), usize)>>,
    /// For each uplink head asked about: whether it reaches every node.
    head_reaches_all: FxHashMap<NodeId, bool>,
}

/// An immutable topology with a demand-driven route cache.
///
/// Construction is O(nodes + links): no routes are computed until the
/// first [`Topology::next_hop`] query, and each
/// source's first-hop table is computed exactly once (one Dijkstra, or
/// none for a source on one uplink whose head reaches every node) and
/// memoized. See the module docs for the determinism guarantee.
#[derive(Clone)]
pub struct Topology {
    pub(crate) nodes: Vec<NodeInfo>,
    pub(crate) links: Vec<LinkInfo>,
    /// Outgoing adjacency per node, in link-id order.
    adj: Vec<Vec<(LinkId, NodeId, SimDuration)>>,
    /// Name → node index (first occurrence wins, matching the old scan).
    by_name: FxHashMap<String, NodeId>,
    /// Normalized `(min, max)` node pair → directed links joining them,
    /// in link-id order.
    pair_links: FxHashMap<(NodeId, NodeId), Vec<LinkId>>,
    /// Lazily filled per-source first-hop tables.
    routes: RefCell<Routes>,
    m: RouteMetrics,
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.nodes)
            .field("links", &self.links)
            .field("routed_sources", &self.routed_sources())
            .finish()
    }
}

/// Builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an end host.
    pub fn host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Host)
    }

    /// Add a router.
    pub fn router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Router)
    }

    fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo {
            name: name.into(),
            kind,
        });
        id
    }

    /// Add a duplex link (two directed links with the same spec).
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        assert!(a != b, "self-link on node {a:?}");
        let ab = LinkId(self.links.len());
        self.links.push(LinkInfo {
            spec: spec.clone(),
            from: a,
            to: b,
        });
        let ba = LinkId(self.links.len());
        self.links.push(LinkInfo {
            spec,
            from: b,
            to: a,
        });
        (ab, ba)
    }

    /// Add an asymmetric directed link.
    pub fn directed_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        assert!(from != to, "self-link on node {from:?}");
        let id = LinkId(self.links.len());
        self.links.push(LinkInfo { spec, from, to });
        id
    }

    /// Freeze the topology. O(nodes + links): builds the adjacency and
    /// lookup indexes only — routes are computed on demand per source.
    ///
    /// # Panics
    /// Panics if there are `u32::MAX` directed links or more (first-hop
    /// tables store link ids in 32 bits).
    pub fn build(self) -> Topology {
        assert!(
            self.links.len() < NO_ROUTE as usize,
            "{} directed links do not fit a 32-bit link id",
            self.links.len()
        );
        let n = self.nodes.len();
        let mut adj: Vec<Vec<(LinkId, NodeId, SimDuration)>> = vec![Vec::new(); n];
        let mut pair_links: FxHashMap<(NodeId, NodeId), Vec<LinkId>> = FxHashMap::default();
        for (i, l) in self.links.iter().enumerate() {
            adj[l.from.0].push((LinkId(i), l.to, l.spec.delay));
            let key = (l.from.min(l.to), l.from.max(l.to));
            pair_links.entry(key).or_default().push(LinkId(i));
        }
        let mut by_name: FxHashMap<String, NodeId> = FxHashMap::default();
        for (i, node) in self.nodes.iter().enumerate() {
            by_name.entry(node.name.clone()).or_insert(NodeId(i));
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            adj,
            by_name,
            pair_links,
            routes: RefCell::new(Routes {
                tables: vec![None; n],
                ..Routes::default()
            }),
            m: RouteMetrics::resolve(),
        }
    }
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of *directed* links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Node with the given name, if any (first added wins on duplicates).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Both directed links joining `a` and `b` (either direction), in
    /// link-index order. Empty if the nodes are not adjacent.
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let key = (a.min(b), a.max(b));
        self.pair_links.get(&key).cloned().unwrap_or_default()
    }

    /// Kind of a node.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// Spec of a directed link.
    pub fn link_spec(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0].spec
    }

    /// `src`'s packed first hops.
    ///
    /// A source with exactly one outgoing link reaches everything it
    /// reaches through that link, so when the link's head reaches every
    /// node the source's first hop to every other node is that link, and
    /// it gets the [`SourceRoutes::Uniform`] entry the Dijkstra would
    /// pack, without running it. Any other source runs one Dijkstra.
    fn compute_source(&self, routes: &mut Routes, src: NodeId) -> SourceRoutes {
        if let [(uplink, head, _)] = self.adj[src.0][..] {
            let reaches_all = *routes
                .head_reaches_all
                .entry(head)
                .or_insert_with(|| self.reaches_every_node(head));
            if reaches_all {
                return SourceRoutes::Uniform(uplink.0 as u32);
            }
        }
        self.dijkstra(routes, src)
    }

    /// Whether every node is reachable from `start`: one walk over the
    /// links, O(nodes + links).
    fn reaches_every_node(&self, start: NodeId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        seen[start.0] = true;
        let mut stack = vec![start];
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(_, v, _) in &self.adj[u.0] {
                if !seen[v.0] {
                    seen[v.0] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.nodes.len()
    }

    /// One Dijkstra from `src`, returning its packed first hops.
    ///
    /// Costs are `(delay_nanos, hops)` compared lexicographically; among
    /// equal-cost optimal predecessors of a node the minimal incoming
    /// link id wins. Every predecessor has strictly smaller cost than the
    /// node it relaxes (delay is clamped to ≥ 1 ns per hop), so all
    /// equal-cost parent offers arrive before a node is settled and the
    /// choice is independent of heap pop order.
    fn dijkstra(&self, routes: &mut Routes, src: NodeId) -> SourceRoutes {
        let n = self.nodes.len();
        let Routes {
            first,
            dist,
            parent,
            settled,
            order,
            heap,
            ..
        } = routes;
        dist.clear();
        dist.resize(n, (u64::MAX, u32::MAX));
        parent.clear();
        parent.resize(n, NO_ROUTE);
        settled.clear();
        settled.resize(n, false);
        order.clear();
        heap.clear();
        dist[src.0] = (0, 0);
        heap.push(Reverse(((0u64, 0u32), src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if settled[u] {
                continue;
            }
            settled[u] = true;
            order.push(u);
            for &(lid, v, delay) in &self.adj[u] {
                let lid = lid.0 as u32;
                let nd = (d.0 + delay.as_nanos().max(1), d.1 + 1);
                match nd.cmp(&dist[v.0]) {
                    Ordering::Less => {
                        dist[v.0] = nd;
                        parent[v.0] = lid;
                        heap.push(Reverse((nd, v.0)));
                    }
                    // `NO_ROUTE` is above every link id, so "no parent
                    // yet" loses to any offer.
                    Ordering::Equal if !settled[v.0] && lid < parent[v.0] => {
                        parent[v.0] = lid;
                    }
                    _ => {}
                }
            }
        }
        // Fold parent pointers into first hops in settle order: a node's
        // first hop is its parent's first hop, or the parent link itself
        // when the parent is the source.
        first.clear();
        first.resize(n, NO_ROUTE);
        for &u in order.iter() {
            if u == src.0 {
                continue;
            }
            let p = parent[u];
            assert_ne!(p, NO_ROUTE, "settled non-source node has a parent link");
            let from = self.links[p as usize].from;
            first[u] = if from == src { p } else { first[from.0] };
        }
        SourceRoutes::pack(src, first)
    }

    /// First directed link on the route from `src` to `dst`, computing
    /// and memoizing `src`'s table on first use.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let mut routes = self.routes.borrow_mut();
        let hop = if let Some(table) = &routes.tables[src.0] {
            self.m.hits.add(1);
            table.hop(src, dst)
        } else {
            self.m.misses.add(1);
            self.m.src_computed.add(1);
            let table = self.compute_source(&mut routes, src);
            let hop = table.hop(src, dst);
            routes.tables[src.0] = Some(table);
            hop
        };
        (hop != NO_ROUTE).then_some(LinkId(hop as usize))
    }

    /// Compute and memoize `src`'s first-hop entry if absent, without
    /// counting a cache hit or miss (counts towards
    /// `net.route_src_computed`, like a miss). Used to pre-warm caches.
    pub fn warm_routes_from(&self, src: NodeId) {
        let mut routes = self.routes.borrow_mut();
        if routes.tables[src.0].is_none() {
            self.m.src_computed.add(1);
            let table = self.compute_source(&mut routes, src);
            routes.tables[src.0] = Some(table);
        }
    }

    /// Warm every source's table — the eager all-pairs computation the
    /// lazy cache replaces, kept as the reference the property tests
    /// compare the lazy cache against.
    pub fn warm_all_routes(&self) {
        for src in 0..self.nodes.len() {
            self.warm_routes_from(NodeId(src));
        }
    }

    /// Number of sources whose first-hop tables are currently cached.
    pub fn routed_sources(&self) -> usize {
        self.routes.borrow().tables.iter().flatten().count()
    }

    /// Bytes the route cache holds: one entry per node, plus a
    /// node-count table for each cached source that does not send every
    /// destination out of one link (a router; a host on one uplink keeps
    /// just that link id). The Dijkstra scratch and the memo of which
    /// uplink heads reach every node are not counted.
    pub fn route_cache_bytes(&self) -> usize {
        let routes = self.routes.borrow();
        let tables: usize = routes
            .tables
            .iter()
            .map(|t| match t {
                Some(SourceRoutes::Table(first)) => std::mem::size_of_val(&**first),
                _ => 0,
            })
            .sum();
        routes.tables.len() * std::mem::size_of::<Option<SourceRoutes>>() + tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// The links a packet forwarded hop by hop through
    /// [`Topology::next_hop`] crosses from `s` to `d`; `None` where a hop
    /// is missing. Fails the test when the walk needs more than N − 1
    /// links: the first-hop tables chain into a loop.
    fn walk(t: &Topology, s: NodeId, d: NodeId) -> Option<Vec<LinkId>> {
        let mut path = Vec::new();
        let mut cur = s;
        while cur != d {
            assert!(
                path.len() + 1 < t.node_count(),
                "route loop {s:?} -> {d:?} at {cur:?}"
            );
            let lid = t.next_hop(cur, d)?;
            path.push(lid);
            cur = t.links[lid.0].to;
        }
        Some(path)
    }

    /// Sum of propagation delays along `route`.
    fn delay(t: &Topology, route: &[LinkId]) -> SimDuration {
        route
            .iter()
            .fold(SimDuration::ZERO, |sum, l| sum + t.links[l.0].spec.delay)
    }

    #[test]
    fn two_hosts_direct_link() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let c = b.host("c");
        b.link(a, c, LinkSpec::new(1e6, ms(5)));
        let t = b.build();
        let route = walk(&t, a, c).unwrap();
        assert_eq!(route.len(), 1);
        assert_eq!(delay(&t, &route), ms(5));
        assert_eq!(delay(&t, &walk(&t, c, a).unwrap()), ms(5));
    }

    #[test]
    fn routes_through_router() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1");
        let r = b.router("r");
        let h2 = b.host("h2");
        b.link(h1, r, LinkSpec::new(1e6, ms(1)));
        b.link(r, h2, LinkSpec::new(1e6, ms(2)));
        let t = b.build();
        let route = walk(&t, h1, h2).unwrap();
        assert_eq!(route.len(), 2);
        assert_eq!(delay(&t, &route), ms(3));
    }

    #[test]
    fn shortest_delay_path_wins() {
        let mut b = TopologyBuilder::new();
        let s = b.host("s");
        let d = b.host("d");
        let slow = b.router("slow");
        let fast = b.router("fast");
        b.link(s, slow, LinkSpec::new(1e6, ms(50)));
        b.link(slow, d, LinkSpec::new(1e6, ms(50)));
        b.link(s, fast, LinkSpec::new(1e6, ms(1)));
        b.link(fast, d, LinkSpec::new(1e6, ms(1)));
        let t = b.build();
        let route = walk(&t, s, d).unwrap();
        assert_eq!(delay(&t, &route), ms(2));
        assert_eq!(t.links[route[0].0].to, fast);
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let c = b.host("island");
        let _ = a;
        let t = b.build();
        assert!(walk(&t, a, c).is_none());
    }

    #[test]
    fn tx_time_scales_with_size() {
        let l = LinkSpec::new(100e6, ms(0));
        assert_eq!(l.tx_time(1250).as_micros(), 100); // 10 kbit at 100 Mb/s
        assert_eq!(l.tx_time(12500).as_millis(), 1);
    }

    #[test]
    fn route_is_consistent_hop_by_hop() {
        // A ring of 6 routers with hosts hanging off: next_hop chains must
        // terminate at the destination.
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..6).map(|i| b.host(format!("h{i}"))).collect();
        let routers: Vec<NodeId> = (0..6).map(|i| b.router(format!("r{i}"))).collect();
        for i in 0..6 {
            b.link(hosts[i], routers[i], LinkSpec::new(1e8, ms(1)));
            b.link(routers[i], routers[(i + 1) % 6], LinkSpec::new(1e8, ms(2)));
        }
        let t = b.build();
        for &s in &hosts {
            for &d in &hosts {
                if s == d {
                    continue;
                }
                let route = walk(&t, s, d).expect("connected");
                assert_eq!(t.links[route.last().unwrap().0].to, d);
                assert!(route.len() <= 6);
            }
        }
    }

    #[test]
    fn build_computes_no_routes_until_queried() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let r = b.router("r");
        let c = b.host("c");
        b.link(a, r, LinkSpec::new(1e8, ms(1)));
        b.link(r, c, LinkSpec::new(1e8, ms(1)));
        let t = b.build();
        assert_eq!(t.routed_sources(), 0);
        assert!(t.next_hop(a, c).is_some());
        assert_eq!(t.routed_sources(), 1);
        // Forwarding a->r->c warms r's table too, but not c's.
        assert!(walk(&t, a, c).is_some());
        assert_eq!(t.routed_sources(), 2);
    }

    #[test]
    fn lookup_indexes_match_scans() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let r = b.router("r");
        let c = b.host("c");
        let (ar, ra) = b.link(a, r, LinkSpec::new(1e8, ms(1)));
        b.link(r, c, LinkSpec::new(1e8, ms(1)));
        let extra = b.directed_link(a, r, LinkSpec::new(1e6, ms(9)));
        let t = b.build();
        assert_eq!(t.node_by_name("a"), Some(a));
        assert_eq!(t.node_by_name("r"), Some(r));
        assert_eq!(t.node_by_name("nope"), None);
        // Both directions plus the extra directed link, in link-id order,
        // queried either way round.
        assert_eq!(t.links_between(a, r), vec![ar, ra, extra]);
        assert_eq!(t.links_between(r, a), vec![ar, ra, extra]);
        assert_eq!(t.links_between(a, c), vec![]);
    }

    #[test]
    fn equal_cost_tie_breaks_are_stable_across_query_orders() {
        // Two disjoint equal-cost paths s->x->d and s->y->d (same delay,
        // same hops): the chosen route must be identical no matter which
        // queries warmed the cache first.
        let build = || {
            let mut b = TopologyBuilder::new();
            let s = b.host("s");
            let d = b.host("d");
            let x = b.router("x");
            let y = b.router("y");
            b.link(s, x, LinkSpec::new(1e8, ms(3)));
            b.link(x, d, LinkSpec::new(1e8, ms(3)));
            b.link(s, y, LinkSpec::new(1e8, ms(3)));
            b.link(y, d, LinkSpec::new(1e8, ms(3)));
            (b.build(), s, d, x, y)
        };
        let (t1, s1, d1, ..) = build();
        let fresh = walk(&t1, s1, d1).unwrap();
        let (t2, s2, d2, x2, y2) = build();
        // Warm unrelated sources first, in a different order.
        t2.warm_routes_from(y2);
        t2.warm_routes_from(d2);
        t2.warm_routes_from(x2);
        assert_eq!(walk(&t2, s2, d2).unwrap(), fresh);
        // The lexicographic (delay, hops, link-id) rule picks the path
        // through x — its links were added first.
        assert_eq!(t1.links[fresh[0].0].to, x2);
    }

    #[test]
    fn route_cache_metrics_flow_into_sim_registry() {
        let mut sim = mgrid_desim::Simulation::new(7);
        let obs = sim.obs().clone();
        sim.block_on(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let r = b.router("r");
            let c = b.host("c");
            b.link(a, r, LinkSpec::new(1e8, ms(1)));
            b.link(r, c, LinkSpec::new(1e8, ms(1)));
            let t = b.build();
            assert!(t.next_hop(a, c).is_some()); // miss
            assert!(t.next_hop(a, c).is_some()); // hit
            t.warm_all_routes();
        });
        assert_eq!(obs.metrics().counter("net.route_cache_misses"), 1);
        assert_eq!(obs.metrics().counter("net.route_cache_hits"), 1);
        // 1 miss + warming the remaining 2 sources.
        assert_eq!(obs.metrics().counter("net.route_src_computed"), 3);
    }

    #[test]
    fn star_hosts_route_without_a_dijkstra() {
        // Every host of a 4,096-host star answers its uplink from the
        // one-uplink rule; only the switch runs a Dijkstra.
        const HOSTS: usize = 4096;
        let mut sim = mgrid_desim::Simulation::new(7);
        let obs = sim.obs().clone();
        sim.block_on(async {
            let mut b = TopologyBuilder::new();
            let switch = b.router("switch");
            let hosts: Vec<(NodeId, LinkId, LinkId)> = (0..HOSTS)
                .map(|i| {
                    let h = b.host(format!("h{i}"));
                    let (up, down) = b.link(h, switch, LinkSpec::fast_ethernet());
                    (h, up, down)
                })
                .collect();
            let t = b.build();
            for (i, &(h, up, _)) in hosts.iter().enumerate() {
                let (peer, ..) = hosts[(i + 1) % HOSTS];
                assert_eq!(t.next_hop(h, peer), Some(up));
                assert_eq!(t.next_hop(h, switch), Some(up));
                assert_eq!(t.next_hop(h, h), None);
            }
            assert!(t.routes.borrow().dist.is_empty(), "a host ran a Dijkstra");
            let (h0, _, down) = hosts[0];
            assert_eq!(t.next_hop(switch, h0), Some(down));
            assert_eq!(t.routes.borrow().dist.len(), HOSTS + 1);
        });
        assert_eq!(
            obs.metrics().counter("net.route_src_computed"),
            HOSTS as u64 + 1
        );
    }
}
