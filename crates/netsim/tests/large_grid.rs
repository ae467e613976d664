//! The demand-driven route cache at the scale it exists for: a 2,560-host
//! grid (64 backbone routers in a ring, 40 hosts each) routed from a
//! bounded working set of sources, as applications do.

use mgrid_desim::time::SimDuration;
use mgrid_netsim::{LinkId, LinkSpec, NodeId, Topology, TopologyBuilder};

const ROUTERS: usize = 64;
const HOSTS_PER_ROUTER: usize = 40;
/// Distinct source hosts the query workload routes from.
const SOURCES: usize = 96;
const QUERIES: usize = 4096;

/// The topology, its hosts, and each directed link's head at the link's
/// index.
fn stress_topology() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let mut heads = Vec::new();
    let mut link = |b: &mut TopologyBuilder, x: NodeId, y: NodeId, spec: LinkSpec| {
        let (xy, yx) = b.link(x, y, spec);
        assert_eq!((xy.0, yx.0), (heads.len(), heads.len() + 1));
        heads.extend([y, x]);
    };
    let routers: Vec<NodeId> = (0..ROUTERS).map(|i| b.router(format!("bb{i}"))).collect();
    for i in 0..ROUTERS {
        link(
            &mut b,
            routers[i],
            routers[(i + 1) % ROUTERS],
            LinkSpec::new(1e9, SimDuration::from_millis(5)),
        );
    }
    let mut hosts = Vec::with_capacity(ROUTERS * HOSTS_PER_ROUTER);
    for (i, &r) in routers.iter().enumerate() {
        for j in 0..HOSTS_PER_ROUTER {
            let h = b.host(format!("h{i}x{j}"));
            link(&mut b, h, r, LinkSpec::fast_ethernet());
            hosts.push(h);
        }
    }
    (b.build(), hosts, heads)
}

/// The links a packet forwarded hop by hop through `next_hop` crosses
/// from `s` to `d`; `None` where a hop is missing. Fails the test when
/// the walk needs more than N − 1 links: the first-hop tables chain into
/// a loop.
fn walk(topo: &Topology, heads: &[NodeId], s: NodeId, d: NodeId) -> Option<Vec<LinkId>> {
    let mut path = Vec::new();
    let mut cur = s;
    while cur != d {
        assert!(
            path.len() + 1 < topo.node_count(),
            "route loop {s:?} -> {d:?} at {cur:?}"
        );
        let lid = topo.next_hop(cur, d)?;
        path.push(lid);
        cur = heads[lid.0];
    }
    Some(path)
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Route `QUERIES` host pairs (sources from the first `SOURCES` hosts,
/// destinations from all) and fold every chosen link and its delay into
/// an FNV-1a digest.
fn query_digest(topo: &Topology, hosts: &[NodeId], heads: &[NodeId], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut digest = 0xcbf29ce484222325u64;
    let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x100000001b3);
    for _ in 0..QUERIES {
        x = lcg(x);
        let s = hosts[(x >> 33) as usize % SOURCES];
        x = lcg(x);
        let d = hosts[(x >> 33) as usize % hosts.len()];
        if s == d {
            fold(u64::MAX);
            continue;
        }
        let route = walk(topo, heads, s, d).expect("the ring connects every host");
        fold(route.len() as u64);
        for l in route {
            fold(l.0 as u64);
            fold(topo.link_spec(l).delay.as_nanos());
        }
    }
    digest
}

#[test]
fn stress_grid_builds_without_routing_and_caches_only_the_working_set() {
    let (ta, hosts_a, heads_a) = stress_topology();
    assert_eq!(ta.node_count(), ROUTERS * HOSTS_PER_ROUTER + ROUTERS);
    // Building computes no routes at all — that is the point.
    assert_eq!(ta.routed_sources(), 0);

    // An empty cache is one entry per node.
    let empty_bytes = ta.route_cache_bytes();
    assert!(empty_bytes <= ta.node_count() * 32);

    let seed = 0x0005_eed1_a26e_621d;
    let (tb, hosts_b, heads_b) = stress_topology();
    assert_eq!(
        query_digest(&ta, &hosts_a, &heads_a, seed),
        query_digest(&tb, &hosts_b, &heads_b, seed),
        "same-seed workloads must digest identically"
    );
    // Only the source working set and the backbone get tables — far
    // fewer than the all-pairs matrix's node_count sources.
    assert!(ta.routed_sources() <= SOURCES + ROUTERS);
    assert!(ta.routed_sources() * 10 <= ta.node_count());
    // Every host source sends everything up its one link: it costs no
    // table, so only the backbone routers hold node-count tables.
    let tables = ta.route_cache_bytes() - empty_bytes;
    assert!(tables > 0, "the backbone routers route through tables");
    assert!(
        tables <= ROUTERS * ta.node_count() * 4,
        "{tables} bytes of tables for {} cached sources",
        ta.routed_sources()
    );
    assert!(
        ta.routed_sources() > ROUTERS,
        "host sources were cached too"
    );
}
