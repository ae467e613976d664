//! Large-grid routing stress: thousands of virtual hosts on a router
//! backbone, exercising the demand-driven route cache.
//!
//! The paper's headline claim is scalability — modeling grids much larger
//! than the physical resources running them — and the old eager all-pairs
//! `next_hop` matrix made topology construction the wall at exactly that
//! scale. This workload builds a 2,560-host grid (64 backbone routers in
//! a ring, 40 hosts each), routes a realistic communication pattern (a
//! bounded set of source hosts talking across the backbone), and digests
//! the chosen routes so runs can be compared byte-for-byte.
//! `perf --route-smoke` runs it on one and on two pool workers; the `route`
//! section of `BENCH_core.json` records build time, resident cache bytes,
//! and queries/sec against the eager all-pairs baseline.

use microgrid::desim::time::SimDuration;
use microgrid::netsim::{LinkSpec, NodeId, Topology, TopologyBuilder};

use crate::runner::run_jobs;

/// Backbone routers, joined in a ring.
pub const STRESS_ROUTERS: usize = 64;
/// Hosts hanging off each backbone router.
pub const STRESS_HOSTS_PER_ROUTER: usize = 40;
/// Total virtual hosts in the stress grid (= 2,560).
pub const STRESS_HOSTS: usize = STRESS_ROUTERS * STRESS_HOSTS_PER_ROUTER;
/// Distinct source hosts the query workload routes from — applications
/// talk from a bounded working set, which is exactly where the lazy
/// cache wins memory over the all-pairs matrix.
pub const STRESS_SOURCES: usize = 96;
/// Route queries per workload run.
pub const STRESS_QUERIES: usize = 4096;
/// LCG seed of the default workload.
pub const STRESS_SEED: u64 = 0x0005_eed1_a26e_621d;

/// Build the stress topology: `STRESS_ROUTERS` in a 1 Gb/s ring with
/// 5 ms hops, each serving `STRESS_HOSTS_PER_ROUTER` fast-Ethernet
/// hosts. Returns the topology and the host ids in creation order.
pub fn stress_topology() -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let routers: Vec<NodeId> = (0..STRESS_ROUTERS)
        .map(|i| b.router(format!("bb{i}")))
        .collect();
    for i in 0..STRESS_ROUTERS {
        b.link(
            routers[i],
            routers[(i + 1) % STRESS_ROUTERS],
            LinkSpec::new(1e9, SimDuration::from_millis(5)),
        );
    }
    let mut hosts = Vec::with_capacity(STRESS_HOSTS);
    for (i, &r) in routers.iter().enumerate() {
        for j in 0..STRESS_HOSTS_PER_ROUTER {
            let h = b.host(format!("h{i}x{j}"));
            b.link(h, r, LinkSpec::fast_ethernet());
            hosts.push(h);
        }
    }
    (b.build(), hosts)
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Route `STRESS_QUERIES` host pairs (sources drawn from the first
/// `STRESS_SOURCES` hosts, destinations from all of them) and fold every
/// chosen link and its delay into an FNV-1a digest. The digest is a pure
/// function of the topology and `seed` — byte-identical across runs,
/// and query batches.
pub fn query_workload(topo: &Topology, hosts: &[NodeId], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut digest = 0xcbf29ce484222325u64;
    let mut fold = |v: u64| {
        digest = (digest ^ v).wrapping_mul(0x100000001b3);
    };
    for _ in 0..STRESS_QUERIES {
        x = lcg(x);
        let s = hosts[(x >> 33) as usize % STRESS_SOURCES];
        x = lcg(x);
        let d = hosts[(x >> 33) as usize % hosts.len()];
        if s == d {
            fold(u64::MAX);
            continue;
        }
        match topo.route(s, d) {
            Some(route) => {
                fold(route.len() as u64);
                for l in route {
                    fold(l.0 as u64);
                    fold(topo.link_spec(l).delay.as_nanos());
                }
            }
            None => fold(u64::MAX - 1),
        }
    }
    digest
}

/// The stress workload as two independent scenarios (different seeds)
/// on `workers` pool workers. Returns the per-scenario digests in
/// submission order.
fn stress_scenarios(workers: usize) -> Vec<u64> {
    let jobs: Vec<_> = (0..2u64)
        .map(|k| {
            move || {
                let (topo, hosts) = stress_topology();
                query_workload(&topo, &hosts, STRESS_SEED ^ (k + 1))
            }
        })
        .collect();
    run_jobs(workers, jobs)
}

/// Run [`stress_scenarios`] on one and on two pool workers, and fail
/// unless the digests are byte-identical. Returns the digests on
/// success; the CI perf lane runs this as the large-grid smoke.
pub fn pool_smoke() -> Result<Vec<u64>, String> {
    let one = stress_scenarios(1);
    let two = stress_scenarios(2);
    if one != two {
        return Err(format!(
            "large-grid route digests diverged: 1 worker {one:x?} vs 2 workers {two:x?}"
        ));
    }
    Ok(one)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_grid_has_the_advertised_scale() {
        let (topo, hosts) = stress_topology();
        assert!(hosts.len() >= 2000, "stress grid must model ≥2,000 hosts");
        assert_eq!(topo.node_count(), STRESS_HOSTS + STRESS_ROUTERS);
        // Building computes no routes at all — that is the point.
        assert_eq!(topo.routed_sources(), 0);
    }

    #[test]
    fn workload_is_deterministic_and_cache_bounded() {
        let (ta, hosts_a) = stress_topology();
        let da = query_workload(&ta, &hosts_a, STRESS_SEED);
        let (tb, hosts_b) = stress_topology();
        let db = query_workload(&tb, &hosts_b, STRESS_SEED);
        assert_eq!(da, db, "same-seed workloads must digest identically");
        // Only the source working set and the backbone get tables — far
        // fewer than the all-pairs matrix's node_count sources.
        assert!(ta.routed_sources() <= STRESS_SOURCES + STRESS_ROUTERS);
        assert!(ta.routed_sources() * 10 <= ta.node_count());
    }

    #[test]
    fn one_and_two_worker_digests_agree() {
        let digests = pool_smoke().expect("smoke must pass");
        assert_eq!(digests.len(), 2);
        assert_ne!(digests[0], digests[1], "distinct seeds must digest apart");
    }
}
