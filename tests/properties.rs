//! Property-based tests over the core data structures and invariants.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use microgrid::desim::time::{SimDuration, SimTime};
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{now, sleep, sleep_until, spawn, Simulation};
use microgrid::gis::Dn;
use microgrid::netsim::{
    LinkId, LinkSpec, NetParams, Network, NodeId, Payload, Topology, TopologyBuilder,
};

/// Join `a` and `c` both ways, recording each directed link's head in
/// `heads` at the link's index.
fn link(b: &mut TopologyBuilder, heads: &mut Vec<NodeId>, a: NodeId, c: NodeId, spec: LinkSpec) {
    let (ac, ca) = b.link(a, c, spec);
    assert_eq!((ac.0, ca.0), (heads.len(), heads.len() + 1));
    heads.extend([c, a]);
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

proptest! {
    /// SimTime/SimDuration arithmetic: (t + d) - t == d for all in-range
    /// values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// Duration scaling: mul then div by the same factor is near-identity
    /// (up to rounding of the intermediate nanosecond value).
    #[test]
    fn duration_scale_roundtrip(ns in 1u64..1_000_000_000_000u64, f in 0.01f64..100.0) {
        let d = SimDuration::from_nanos(ns);
        let back = d.mul_f64(f).div_f64(f);
        let err = (back.as_nanos() as i128 - ns as i128).unsigned_abs();
        // One nanosecond of rounding per operation, scaled by 1/f when
        // dividing back.
        let bound = 2 + (1.0 / f).ceil() as u128;
        prop_assert!(err <= bound, "ns={ns} f={f} back={} err={err}", back.as_nanos());
    }
}

proptest! {
    /// JSON text round trip for arbitrary strings: quotes and backslashes,
    /// control characters (written as escapes), multi-byte and non-BMP
    /// characters, in any adjacency.
    #[test]
    fn json_string_roundtrip(
        codes in prop::collection::vec(
            prop_oneof![
                0u32..0x20,
                0x20u32..0x80,
                0x80u32..0x1_0000,
                0x1_0000u32..0x11_0000,
                0x22u32..0x23,
                0x5cu32..0x5d,
            ],
            0..24,
        ),
    ) {
        // Surrogate code points are not `char`s and drop out.
        let s: String = codes.into_iter().filter_map(char::from_u32).collect();
        let json = serde_json::to_string(&s).expect("strings serialize");
        prop_assert_eq!(serde_json::from_str::<String>(&json).expect("round trip"), s);
    }
}

proptest! {
    /// The virtual clock is monotone at any positive rate.
    #[test]
    fn vclock_monotone(
        rate in 0.01f64..50.0,
        probes in prop::collection::vec(0u64..100_000_000_000u64, 1..20),
    ) {
        let clock = VirtualClock::new(rate);
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev = SimTime::ZERO;
        for p in sorted {
            let v = clock.virtual_at(SimTime::from_nanos(p));
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// DN parse/display round-trips for simple identifiers.
    #[test]
    fn dn_roundtrip(parts in prop::collection::vec("[a-z]{1,8}", 1..5)) {
        let s: Vec<String> = parts.iter().enumerate()
            .map(|(i, p)| format!("ou{i}={p}"))
            .collect();
        let text = s.join(", ");
        let dn = Dn::parse(&text).unwrap();
        prop_assert_eq!(Dn::parse(&dn.to_string()).unwrap(), dn);
    }

    /// Routing: on random connected topologies every host pair routes: a
    /// packet forwarded hop by hop reaches its destination in at most
    /// N − 1 hops, the first of them `next_hop`'s answer.
    #[test]
    fn routing_consistency(
        n_hosts in 2usize..6,
        extra_edges in prop::collection::vec((0usize..8, 0usize..8, 1u64..60), 0..8),
    ) {
        let mut b = TopologyBuilder::new();
        let mut heads = Vec::new();
        let hosts: Vec<NodeId> = (0..n_hosts).map(|i| b.host(format!("h{i}"))).collect();
        let routers: Vec<NodeId> = (0..3).map(|i| b.router(format!("r{i}"))).collect();
        let all: Vec<NodeId> = hosts.iter().chain(&routers).copied().collect();
        // A spanning chain guarantees connectivity.
        for w in all.windows(2) {
            link(&mut b, &mut heads, w[0], w[1], LinkSpec::new(1e8, SimDuration::from_millis(1)));
        }
        for (x, y, ms) in extra_edges {
            let a = all[x % all.len()];
            let c = all[y % all.len()];
            if a != c {
                link(&mut b, &mut heads, a, c, LinkSpec::new(1e8, SimDuration::from_millis(ms)));
            }
        }
        let topo = b.build();
        for &s in &hosts {
            for &d in &hosts {
                if s == d { continue; }
                let route = walk(&topo, &heads, s, d).expect("connected");
                prop_assert_eq!(topo.next_hop(s, d), Some(route[0]));
            }
        }
    }

    /// The demand-driven route cache is byte-identical to an eager
    /// all-pairs computation and to an independent reference.
    ///
    /// Random graphs with every link at the same delay (so equal-cost
    /// ties abound): (a) each cached route is optimal under the
    /// lexicographic `(delay, hops)` cost of an independent
    /// Floyd–Warshall; (b) the full first-hop tables of a lazily queried
    /// topology, an eagerly warmed one (`warm_all_routes`, the old
    /// all-pairs behaviour), and a second same-spec build queried in
    /// reverse order are all identical — tie-breaks depend only on the
    /// topology, never on query order or cache state.
    #[test]
    fn route_cache_matches_reference_all_pairs(
        n_hosts in 2usize..6,
        extra_edges in prop::collection::vec((0usize..9, 0usize..9), 0..10),
    ) {
        let delay = SimDuration::from_millis(1);
        let n = n_hosts + 3;
        // Spanning chain plus random extras, all the same delay.
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        for &(x, y) in &extra_edges {
            let (a, c) = (x % n, y % n);
            if a != c {
                edges.push((a, c));
            }
        }
        let build = || {
            let mut b = TopologyBuilder::new();
            let mut heads = Vec::new();
            let all: Vec<NodeId> = (0..n)
                .map(|i| if i < n_hosts { b.host(format!("h{i}")) } else { b.router(format!("r{i}")) })
                .collect();
            for &(a, c) in &edges {
                link(&mut b, &mut heads, all[a], all[c], LinkSpec::new(1e8, delay));
            }
            (b.build(), heads)
        };

        // Independent reference: Floyd–Warshall over (delay_ns, hops).
        let inf = (u64::MAX, u32::MAX);
        let mut dist = vec![vec![inf; n]; n];
        for (d, row) in dist.iter_mut().enumerate() {
            row[d] = (0, 0);
        }
        for &(a, c) in &edges {
            let w = (delay.as_nanos(), 1u32);
            dist[a][c] = dist[a][c].min(w);
            dist[c][a] = dist[c][a].min(w);
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if dist[i][k] != inf && dist[k][j] != inf {
                        let via = (dist[i][k].0 + dist[k][j].0, dist[i][k].1 + dist[k][j].1);
                        dist[i][j] = dist[i][j].min(via);
                    }
                }
            }
        }

        let (lazy, heads) = build();
        for (s, dist_s) in dist.iter().enumerate() {
            for (d, &ref_sd) in dist_s.iter().enumerate() {
                if s == d { continue; }
                let route = walk(&lazy, &heads, NodeId(s), NodeId(d));
                if ref_sd == inf {
                    prop_assert_eq!(route, None);
                    continue;
                }
                let route = route.expect("reference says reachable");
                prop_assert_eq!(route.len() as u32, ref_sd.1, "hop count optimal");
                let sum: u64 = route.iter().map(|l| lazy.link_spec(*l).delay.as_nanos()).sum();
                prop_assert_eq!(sum, ref_sd.0, "delay optimal");
            }
        }

        let table = |t: &Topology, pairs: &[(usize, usize)]| -> Vec<Option<LinkId>> {
            pairs.iter().map(|&(s, d)| t.next_hop(NodeId(s), NodeId(d))).collect()
        };
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|(s, d)| s != d).collect();
        let mut reversed = pairs.clone();
        reversed.reverse();

        let (eager, _) = build();
        eager.warm_all_routes();
        prop_assert_eq!(eager.routed_sources(), n);
        prop_assert_eq!(table(&eager, &pairs), table(&lazy, &pairs), "eager == lazy");

        let (second, _) = build();
        let mut from_rev: Vec<_> = table(&second, &reversed);
        from_rev.reverse();
        prop_assert_eq!(from_rev, table(&lazy, &pairs), "query order irrelevant");
    }

    /// The compact route cache — one link id for a source whose every
    /// destination leaves by the same link — answers every `(src, dst)`
    /// exactly as a full first-hop table does, and counts each query as
    /// one hit or one miss.
    ///
    /// Topologies are `routing_consistency`'s, plus hosts on one uplink to
    /// a router (the sources the compact form exists for) and one-way
    /// leaves: a host with a link to a router and none back, so no node
    /// reaches it and a one-uplink source must fall back to the Dijkstra.
    /// The full tables come from an independent reference: Floyd–Warshall
    /// over `(delay_ns, hops)`, each node's parent the lowest-id optimal
    /// incoming link, a first hop the parent chain's first link. Every
    /// source is computed once, whichever way.
    #[test]
    fn compact_route_cache_matches_full_tables(
        n_hosts in 2usize..6,
        extra_edges in prop::collection::vec((0usize..8, 0usize..8, 1u64..60), 0..8),
        leaves in prop::collection::vec(0usize..3, 0..4),
        one_way_leaves in prop::collection::vec(0usize..3, 0..3),
    ) {
        let mut sim = Simulation::new(3);
        let obs = sim.obs().clone();
        let (answers, full, n) = sim.block_on(async move {
            let mut b = TopologyBuilder::new();
            let hosts: Vec<NodeId> = (0..n_hosts).map(|i| b.host(format!("h{i}"))).collect();
            let routers: Vec<NodeId> = (0..3).map(|i| b.router(format!("r{i}"))).collect();
            let all: Vec<NodeId> = hosts.iter().chain(&routers).copied().collect();
            // Directed links by id: (from, to, delay_ns).
            let mut links: Vec<(usize, usize, u64)> = Vec::new();
            let mut link = |b: &mut TopologyBuilder, x: NodeId, y: NodeId, ms: u64| {
                let (xy, yx) = b.link(x, y, LinkSpec::new(1e8, SimDuration::from_millis(ms)));
                assert_eq!((xy.0, yx.0), (links.len(), links.len() + 1));
                links.push((x.0, y.0, ms * 1_000_000));
                links.push((y.0, x.0, ms * 1_000_000));
            };
            for w in all.windows(2) {
                link(&mut b, w[0], w[1], 1);
            }
            for &(x, y, ms) in &extra_edges {
                let (a, c) = (all[x % all.len()], all[y % all.len()]);
                if a != c {
                    link(&mut b, a, c, ms);
                }
            }
            for (i, &r) in leaves.iter().enumerate() {
                let leaf = b.host(format!("leaf{i}"));
                link(&mut b, leaf, routers[r], 1);
            }
            for (i, &r) in one_way_leaves.iter().enumerate() {
                let leaf = b.host(format!("one-way{i}"));
                let id = b.directed_link(leaf, routers[r], LinkSpec::new(1e8, SimDuration::from_millis(1)));
                assert_eq!(id.0, links.len());
                links.push((leaf.0, routers[r].0, 1_000_000));
            }
            let topo = b.build();
            let n = topo.node_count();

            let inf = (u64::MAX, u32::MAX);
            let mut dist = vec![vec![inf; n]; n];
            for (d, row) in dist.iter_mut().enumerate() {
                row[d] = (0, 0);
            }
            for &(x, y, ns) in &links {
                dist[x][y] = dist[x][y].min((ns, 1));
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if dist[i][k] != inf && dist[k][j] != inf {
                            let via = (dist[i][k].0 + dist[k][j].0, dist[i][k].1 + dist[k][j].1);
                            dist[i][j] = dist[i][j].min(via);
                        }
                    }
                }
            }
            let mut full = Vec::new();
            let mut answers = Vec::new();
            for (s, from_s) in dist.iter().enumerate() {
                let parent: Vec<Option<usize>> = (0..n)
                    .map(|v| {
                        links.iter().position(|&(u, to, ns)| {
                            to == v
                                && v != s
                                && from_s[u] != inf
                                && (from_s[u].0 + ns, from_s[u].1 + 1) == from_s[v]
                        })
                    })
                    .collect();
                for (d, &last) in parent.iter().enumerate() {
                    let mut first = last;
                    while let Some(l) = first {
                        if links[l].0 == s {
                            break;
                        }
                        first = parent[links[l].0];
                    }
                    full.push(first);
                    answers.push(topo.next_hop(NodeId(s), NodeId(d)).map(|l| l.0));
                }
            }
            (answers, full, n)
        });
        prop_assert_eq!(&answers, &full);
        let m = obs.metrics();
        prop_assert_eq!(
            m.counter("net.route_cache_hits") + m.counter("net.route_cache_misses"),
            (n * n) as u64
        );
        prop_assert_eq!(m.counter("net.route_src_computed"), n as u64);
    }

    /// The executor delivers timers in order for arbitrary delay sets.
    #[test]
    fn executor_fires_in_time_order(delays in prop::collection::vec(0u64..1_000_000u64, 1..40)) {
        let mut sim = Simulation::new(5);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for d in delays {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_nanos(d)).await;
                log.borrow_mut().push(d);
            });
        }
        sim.run_to_completion();
        let fired = log.borrow().clone();
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }
}

/// Double-run determinism backstop: one full figure scenario (an NPB
/// kernel on the alpha-cluster MicroGrid), executed twice from the same
/// seed, must produce byte-identical serialized metrics snapshots. This
/// is the end-to-end check behind the invariants clippy enforces
/// statically (clippy.toml, docs/LINTS.md): no wall clock, no
/// entropy-seeded hashers, no OS threads in the simulation core.
#[test]
fn same_seed_runs_are_byte_identical() {
    use microgrid::apps::npb::{NpbBenchmark, NpbClass};
    use microgrid::{presets, App, GridConfig, Mode, Scenario};

    fn metrics_digest(seed: u64) -> String {
        let config = GridConfig {
            seed,
            ..presets::alpha_cluster()
        };
        let app = App::Npb(NpbBenchmark::IS, NpbClass::S);
        let scenario = Scenario::new(config, Mode::MicroGrid, app);
        let outcome = Scenario { seed, ..scenario }.run().expect("build");
        for r in &outcome.output {
            assert!(r.verified(), "failed verification: {r:?}");
        }
        let snapshot = outcome.metrics;
        assert!(!snapshot.is_empty(), "scenario recorded no metrics");
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    let first = metrics_digest(42);
    let second = metrics_digest(42);
    assert_eq!(first, second, "same-seed runs diverged");

    // A different seed must actually change the digest, proving the
    // comparison above is sensitive to the stochastic model state and
    // not vacuously equal.
    let other = metrics_digest(43);
    assert_ne!(first, other, "seed does not reach the metrics");
}

// --- Chain grids: every message arrives, outage or not ----------------

/// One delivery at a receiving host: (arrival ns, receiver site, value).
type ChainLog = Vec<(u64, u32, u32)>;

const CHAIN_MSGS: u32 = 2;
const CHAIN_BYTES: u64 = 20_000;
/// Scripted outage window on the first WAN hop (virtual ns).
const CHAIN_DOWN_NS: u64 = 50_000_000;
const CHAIN_UP_NS: u64 = 180_000_000;

/// `sites` LAN islands (host `h{i}` behind router `r{i}`) joined in a
/// chain by WAN hops `r{i}`–`r{i+1}` with per-hop delays `wan_ms`.
fn build_chain(sites: usize, wan_ms: &[u64]) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let hosts: Vec<NodeId> = (0..sites).map(|i| b.host(format!("h{i}"))).collect();
    let routers: Vec<NodeId> = (0..sites).map(|i| b.router(format!("r{i}"))).collect();
    for i in 0..sites {
        b.link(
            hosts[i],
            routers[i],
            LinkSpec::new(100e6, SimDuration::from_micros(50)),
        );
    }
    for i in 0..sites - 1 {
        b.link(
            routers[i],
            routers[i + 1],
            LinkSpec::new(45e6, SimDuration::from_millis(wan_ms[i])),
        );
    }
    (b.build(), hosts)
}

/// Spawn the scripted outage into the current simulation: both
/// directions of the `r0`–`r1` WAN hop down during
/// `[CHAIN_DOWN_NS, CHAIN_UP_NS)`.
fn spawn_chain_outage(net: &Network) {
    let net = net.clone();
    spawn(async move {
        let wan = {
            let topo = net.topology();
            let r0 = topo.node_by_name("r0").unwrap();
            let r1 = topo.node_by_name("r1").unwrap();
            topo.links_between(r0, r1)
        };
        sleep_until(SimTime::from_nanos(CHAIN_DOWN_NS)).await;
        for l in &wan {
            net.set_link_down(*l, true);
        }
        sleep_until(SimTime::from_nanos(CHAIN_UP_NS)).await;
        for l in &wan {
            net.set_link_down(*l, false);
        }
    });
}

/// Every site sends `CHAIN_MSGS` reliable messages to the next site
/// round the chain; returns the delivery log in canonical order.
fn run_chain(sites: usize, wan_ms: &[u64], seed: u64, faults: bool) -> ChainLog {
    let wan_ms = wan_ms.to_vec();
    let mut sim = Simulation::new(seed);
    let mut log = sim.block_on(async move {
        let (topo, hosts) = build_chain(sites, &wan_ms);
        let net = Network::new(topo, VirtualClock::identity(), NetParams::default());
        if faults {
            spawn_chain_outage(&net);
        }
        let log: Rc<RefCell<ChainLog>> = Rc::new(RefCell::new(Vec::new()));
        let mut waits = Vec::new();
        for site in 0..sites {
            let rx = net.endpoint(hosts[site]).bind(7);
            let log = log.clone();
            waits.push(spawn(async move {
                for _ in 0..CHAIN_MSGS {
                    let m = rx.recv().await.unwrap();
                    log.borrow_mut().push((
                        now().as_nanos(),
                        site as u32,
                        *m.payload.downcast_ref::<u32>().unwrap(),
                    ));
                }
            }));
            let tx = net.endpoint(hosts[site]);
            let dest = hosts[(site + 1) % sites];
            waits.push(spawn(async move {
                for k in 0..CHAIN_MSGS {
                    let value = (site as u32) * 16 + k;
                    tx.send(dest, 7, 1, CHAIN_BYTES, Payload::new(value))
                        .await
                        .unwrap();
                }
            }));
        }
        for w in waits {
            w.await;
        }
        let out = log.borrow().clone();
        out
    });
    log.sort_unstable();
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small chain grids (2–4 sites, random WAN delays, random
    /// seeds, scripted outage on or off) deliver every message, the same
    /// way on every same-seed run.
    #[test]
    fn chain_grid_delivers_everything_with_or_without_an_outage(
        sites in 2usize..5,
        wan_ms in prop::collection::vec(5u64..30, 3..4),
        seed in 1u64..1_000,
        faults in any::<bool>(),
    ) {
        let wans = &wan_ms[..sites - 1];
        let log = run_chain(sites, wans, seed, faults);
        prop_assert_eq!(log.len(), sites * CHAIN_MSGS as usize, "every message must arrive");
        prop_assert_eq!(run_chain(sites, wans, seed, faults), log);
    }
}
