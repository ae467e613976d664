//! `perf` — the tracked performance baseline of the simulation core.
//!
//! ```text
//! perf                          # measure, print a summary table
//! perf --out BENCH_core.json    # also write/update the tracked JSON
//! perf --set-baseline           # rewrite the baseline to this run
//! perf --check                  # nonzero exit on regression gates
//! perf --check-file FILE        # validate an existing JSON, no benches
//! MGRID_FAST=1 perf             # shrunken figure sweep (smoke only)
//! ```
//!
//! Three sections, all single-threaded for machine-to-machine
//! comparability:
//!
//! 1. **executor** — desim microbenches: timer events/sec (the discrete
//!    event loop itself) and channel messages/sec (waker churn).
//! 2. **network** — packets/sec and bytes/sec through the netsim packet
//!    path, read from the simulation's own `net.packets_tx` counter.
//! 3. **figures** — wall-clock per regenerated paper figure, run
//!    serially, plus the total.
//!
//! When `--out FILE` names an existing file with a `baseline` section,
//! that baseline is preserved and the new run is written as `current`
//! with before/after speedup ratios; `--set-baseline` re-anchors it.

use std::collections::BTreeMap;
use std::io::Write;

use mgrid_bench::experiments::route;
use mgrid_bench::runner::{fast_mode, figures};
use microgrid::apps::npb::{run as npb_run, NpbBenchmark, NpbClass, NpbResult};
use microgrid::desim::time::SimDuration;
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{sleep, spawn, Simulation};
use microgrid::mpi::MpiParams;
use microgrid::netsim::{LinkSpec, NetParams, Network, Payload, TopologyBuilder};
use microgrid::VirtualGrid;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Clone, Default)]
struct Measurements {
    /// Simulated timer events processed per wall second.
    timer_events_per_sec: f64,
    /// Channel messages moved per wall second.
    channel_msgs_per_sec: f64,
    /// Simulated packets transmitted per wall second.
    packets_per_sec: f64,
    /// Simulated wire bytes transmitted per wall second.
    bytes_per_sec: f64,
    /// Wall milliseconds per regenerated figure (serial).
    figures_ms: BTreeMap<String, f64>,
    /// Total wall milliseconds of the figure sweep.
    repro_total_ms: f64,
}

/// The demand-driven route cache against the eager all-pairs baseline,
/// on the large-grid stress topology (`experiments::route`).
#[derive(Serialize, Deserialize, Clone, Default)]
struct RouteMeasurements {
    /// Virtual hosts in the stress grid.
    stress_hosts: usize,
    /// Total nodes (hosts + backbone routers).
    stress_nodes: usize,
    /// Wall milliseconds to build the topology (lazy: no routes computed).
    build_ms: f64,
    /// Wall milliseconds to build *and* warm every source's table — the
    /// old eager all-pairs behaviour.
    eager_build_ms: f64,
    /// `eager_build_ms / build_ms` (> 1 means lazy construction is faster).
    build_speedup: f64,
    /// Route queries per wall second through the demand-driven cache,
    /// including the cache-warming Dijkstras the workload triggers.
    queries_per_sec: f64,
    /// Route-cache bytes resident after the query workload.
    bytes_resident: u64,
    /// Route-table bytes of the eager all-pairs computation.
    eager_bytes_resident: u64,
    /// `eager_bytes_resident / bytes_resident` (> 1 means less memory).
    memory_ratio: f64,
    /// FNV-1a digest of every routed path (hex) — byte-identical across
    /// runs.
    digest: String,
}

/// Observability overhead: one fixed probe workload (NPB MG class S on
/// the alpha cluster) run with span recording off and on. The simulated
/// results are identical either way — spans are pure observation — so
/// the wall-time ratio is the cost of the causal tracing layer.
#[derive(Serialize, Deserialize, Clone, Default)]
struct ObsMeasurements {
    /// Best-of-3 wall milliseconds of the probe with spans disabled.
    plain_ms: f64,
    /// Best-of-3 wall milliseconds with span recording enabled.
    spans_ms: f64,
    /// `spans_ms / plain_ms`; gated at ≤ 1.10 by `--check` (skipped
    /// under fast mode, whose timings are not comparable).
    overhead_ratio: f64,
    /// Spans recorded during one profiled probe run (sanity: non-zero).
    spans_recorded: u64,
}

#[derive(Serialize, Deserialize, Clone, Default)]
struct Speedup {
    /// Baseline total figure time / current total figure time.
    repro_total: f64,
    /// Current timer events/sec / baseline timer events/sec.
    timer_events: f64,
    /// Current packets/sec / baseline packets/sec.
    packets: f64,
}

#[derive(Serialize, Deserialize, Default)]
struct BenchFile {
    schema: String,
    /// `1` when the figure sweep ran with `MGRID_FAST=1` (not comparable
    /// to full-scale baselines).
    fast_mode: bool,
    baseline: Measurements,
    current: Measurements,
    speedup: Speedup,
    /// Large-grid route-cache results; `None` in files written before
    /// the demand-driven cache existed.
    route: Option<RouteMeasurements>,
    /// Span-tracing overhead results; `None` in files written before
    /// the observability layer existed.
    obs: Option<ObsMeasurements>,
}

fn bench_timer_events() -> f64 {
    let n = 200_000u64;
    let t0 = std::time::Instant::now();
    let mut sim = Simulation::new(1);
    sim.spawn(async move {
        for i in 0..n {
            sleep(SimDuration::from_nanos(i % 97 + 1)).await;
        }
    });
    sim.run();
    n as f64 / t0.elapsed().as_secs_f64()
}

fn bench_channel_msgs() -> f64 {
    let n = 200_000u64;
    let t0 = std::time::Instant::now();
    let mut sim = Simulation::new(1);
    sim.spawn(async move {
        let (tx, rx) = microgrid::desim::channel::channel();
        spawn(async move {
            for i in 0..n {
                tx.send(i).await.unwrap();
            }
        });
        let mut sum = 0u64;
        while let Ok(v) = rx.recv().await {
            sum += v;
        }
        assert_eq!(sum, n * (n - 1) / 2);
    });
    sim.run();
    n as f64 / t0.elapsed().as_secs_f64()
}

fn bench_packets() -> (f64, f64) {
    let bytes = 64_000_000u64;
    let t0 = std::time::Instant::now();
    let mut sim = Simulation::new(3);
    let (packets, wire_bytes) = sim.block_on(async move {
        let mut tb = TopologyBuilder::new();
        let a = tb.host("a");
        let z = tb.host("z");
        tb.link(a, z, LinkSpec::fast_ethernet());
        let net = Network::new(tb.build(), VirtualClock::identity(), NetParams::default());
        let rx = net.endpoint(z).bind(1);
        spawn({
            let ep = net.endpoint(a);
            async move {
                ep.send(z, 1, 1, bytes, Payload::empty()).await.unwrap();
            }
        });
        rx.recv().await.unwrap();
        let m = net.stats();
        let mut pk = 0u64;
        let mut by = 0u64;
        for lid in 0..net.topology().link_count() {
            let st = net.link_stats(microgrid::netsim::LinkId(lid));
            pk += st.tx_packets;
            by += st.tx_bytes;
        }
        assert_eq!(m.messages_delivered, 1);
        (pk, by)
    });
    let secs = t0.elapsed().as_secs_f64();
    (packets as f64 / secs, wire_bytes as f64 / secs)
}

fn measure() -> Measurements {
    let mut m = Measurements::default();
    eprintln!("executor: timer events ...");
    m.timer_events_per_sec = bench_timer_events();
    eprintln!("executor: channel messages ...");
    m.channel_msgs_per_sec = bench_channel_msgs();
    eprintln!("network: packet path ...");
    let (pps, bps) = bench_packets();
    m.packets_per_sec = pps;
    m.bytes_per_sec = bps;
    for f in figures() {
        eprintln!("figure {} ...", f.id);
        let t0 = std::time::Instant::now();
        let _ = (f.run)();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        m.figures_ms.insert(f.id.to_string(), ms);
        m.repro_total_ms += ms;
    }
    m
}

/// Measure the demand-driven route cache on the large-grid stress
/// topology, against the eager all-pairs baseline it replaced.
fn measure_route() -> RouteMeasurements {
    eprintln!(
        "route: large-grid stress ({} hosts) ...",
        route::STRESS_HOSTS
    );
    let t0 = std::time::Instant::now();
    let (topo, hosts) = route::stress_topology();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tq = std::time::Instant::now();
    let digest = route::query_workload(&topo, &hosts, route::STRESS_SEED);
    let queries_per_sec = route::STRESS_QUERIES as f64 / tq.elapsed().as_secs_f64();
    let bytes_resident = topo.route_bytes_resident() as u64;
    let te = std::time::Instant::now();
    let (eager, _) = route::stress_topology();
    eager.warm_all_routes();
    let eager_build_ms = te.elapsed().as_secs_f64() * 1e3;
    let eager_bytes_resident = eager.route_bytes_resident() as u64;
    RouteMeasurements {
        stress_hosts: hosts.len(),
        stress_nodes: topo.node_count(),
        build_ms,
        eager_build_ms,
        build_speedup: ratio(eager_build_ms, build_ms),
        queries_per_sec,
        bytes_resident,
        eager_bytes_resident,
        memory_ratio: ratio(eager_bytes_resident as f64, bytes_resident as f64),
        digest: format!("{digest:016x}"),
    }
}

/// Measure span-tracing overhead: the fixed probe workload with span
/// recording off vs on, best of 3 runs each (wall noise on shared
/// runners dwarfs the effect a single run would show).
fn measure_obs() -> ObsMeasurements {
    eprintln!("obs: span-tracing overhead probe (MG class S) ...");
    fn probe(spans: bool) -> (f64, u64) {
        let config = microgrid::presets::alpha_cluster();
        let mut sim = Simulation::new(config.seed);
        if spans {
            sim.obs().enable_spans();
        }
        let t0 = std::time::Instant::now();
        let results = sim.block_on(async move {
            let grid = VirtualGrid::build(config).expect("valid preset");
            grid.mpirun_all(MpiParams::default(), move |comm| {
                Box::pin(npb_run(NpbBenchmark::MG, comm, NpbClass::S, None))
                    as std::pin::Pin<Box<dyn std::future::Future<Output = NpbResult>>>
            })
            .await
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(results[0].verified, "probe workload must verify");
        (ms, sim.obs().spans().snapshot().spans.len() as u64)
    }
    let plain_ms = (0..3).map(|_| probe(false).0).fold(f64::MAX, f64::min);
    let mut spans_ms = f64::MAX;
    let mut spans_recorded = 0;
    for _ in 0..3 {
        let (ms, n) = probe(true);
        spans_ms = spans_ms.min(ms);
        spans_recorded = n;
    }
    ObsMeasurements {
        plain_ms,
        spans_ms,
        overhead_ratio: ratio(spans_ms, plain_ms),
        spans_recorded,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The regression gates behind `--check` / `--check-file`. Returns one
/// message per violated gate:
///
/// * `repro_total` speedup below 0.9 — the figure sweep regressed more
///   than 10% against the committed baseline (skipped under fast mode,
///   whose shrunken sweep is not comparable).
/// * A `route` section whose stress grid neither built ≥10x faster nor
///   held ≥10x less routing memory than the eager all-pairs baseline —
///   the demand-driven cache's reason to exist. (Wall time is noisy on
///   shared runners; memory is exact, so the OR keeps the gate fair.)
/// * An `obs` section whose span-tracing overhead ratio exceeds 1.10 —
///   profiling a run must stay within 10% of the untraced wall time
///   (skipped under fast mode).
fn validate(file: &BenchFile) -> Vec<String> {
    let mut errs = Vec::new();
    if !file.fast_mode && file.speedup.repro_total > 0.0 && file.speedup.repro_total < 0.9 {
        errs.push(format!(
            "repro_total speedup {:.3} is a >10% regression vs the baseline",
            file.speedup.repro_total
        ));
    }
    if let Some(r) = &file.route {
        if r.build_speedup < 10.0 && r.memory_ratio < 10.0 {
            errs.push(format!(
                "route stress: build_speedup {:.1} and memory_ratio {:.1} both below 10x \
                 vs the eager all-pairs baseline",
                r.build_speedup, r.memory_ratio
            ));
        }
    }
    if !file.fast_mode {
        if let Some(o) = &file.obs {
            if o.overhead_ratio > 1.10 {
                errs.push(format!(
                    "obs overhead_ratio {:.3} > 1.10: span tracing slows the probe \
                     figure by more than 10%",
                    o.overhead_ratio
                ));
            }
        }
    }
    errs
}

/// Report gate violations and exit nonzero if there are any.
fn enforce(file: &BenchFile) -> ! {
    let errs = validate(file);
    if errs.is_empty() {
        println!("perf check: all gates pass");
        std::process::exit(0);
    }
    for e in &errs {
        eprintln!("perf check FAILED: {e}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut set_baseline = false;
    let mut check = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--set-baseline" => set_baseline = true,
            "--check" => check = true,
            "--route-smoke" => {
                // The CI large-grid smoke: the stress workload must
                // digest byte-identically on one and on two pool workers.
                match route::pool_smoke() {
                    Ok(digests) => {
                        println!(
                            "route smoke: {} hosts, digests {:016x} {:016x}, \
                             1 worker == 2 workers",
                            route::STRESS_HOSTS,
                            digests[0],
                            digests[1]
                        );
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("route smoke FAILED: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--check-file" => {
                let path = it.next().unwrap_or_else(|| {
                    eprintln!("--check-file needs a file path");
                    std::process::exit(2);
                });
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                let file: BenchFile = serde_json::from_str(&text).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(2);
                });
                enforce(&file);
            }
            "--help" | "-h" => {
                println!(
                    "usage: perf [--out FILE] [--set-baseline] [--check] [--check-file FILE] \
                     [--route-smoke]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let current = measure();
    let route = measure_route();
    let obs = measure_obs();

    // Preserve an existing baseline unless re-anchoring was requested.
    let baseline = out
        .as_ref()
        .filter(|_| !set_baseline)
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|s| serde_json::from_str::<BenchFile>(&s).ok())
        .map(|f| f.baseline)
        .filter(|b| b.repro_total_ms > 0.0)
        .unwrap_or_else(|| current.clone());

    let file = BenchFile {
        schema: "mgrid-bench-core/1".into(),
        fast_mode: fast_mode(),
        speedup: Speedup {
            repro_total: ratio(baseline.repro_total_ms, current.repro_total_ms),
            timer_events: ratio(current.timer_events_per_sec, baseline.timer_events_per_sec),
            packets: ratio(current.packets_per_sec, baseline.packets_per_sec),
        },
        baseline,
        current,
        route: Some(route),
        obs: Some(obs),
    };

    println!("== simulation core performance ==");
    println!(
        "timer events/sec   {:>14.0}  ({:.2}x baseline)",
        file.current.timer_events_per_sec, file.speedup.timer_events
    );
    println!(
        "channel msgs/sec   {:>14.0}",
        file.current.channel_msgs_per_sec
    );
    println!(
        "packets/sec        {:>14.0}  ({:.2}x baseline)",
        file.current.packets_per_sec, file.speedup.packets
    );
    println!("wire bytes/sec     {:>14.0}", file.current.bytes_per_sec);
    println!("-- figure sweep (serial) --");
    for (id, ms) in &file.current.figures_ms {
        println!("{id:<8} {ms:>12.1} ms");
    }
    println!(
        "total    {:>12.1} ms  ({:.2}x baseline)",
        file.current.repro_total_ms, file.speedup.repro_total
    );
    if let Some(r) = &file.route {
        println!(
            "-- route cache ({} hosts, {} nodes) --",
            r.stress_hosts, r.stress_nodes
        );
        println!(
            "build    {:>12.1} ms  (eager all-pairs {:.1} ms, {:.0}x faster)",
            r.build_ms, r.eager_build_ms, r.build_speedup
        );
        println!(
            "resident {:>12} B   (eager {} B, {:.0}x less)",
            r.bytes_resident, r.eager_bytes_resident, r.memory_ratio
        );
        println!("queries  {:>12.0} /s", r.queries_per_sec);
    }

    if let Some(o) = &file.obs {
        println!("-- span tracing overhead (MG class S probe) --");
        println!(
            "plain    {:>12.1} ms   spans {:>8.1} ms   ratio {:.3}  ({} spans)",
            o.plain_ms, o.spans_ms, o.overhead_ratio, o.spans_recorded
        );
    }

    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&file).expect("serialize bench file");
        let mut f = std::fs::File::create(&path).expect("create bench file");
        f.write_all(json.as_bytes()).expect("write bench file");
        f.write_all(b"\n").expect("write bench file");
        println!("wrote {path}");
    }

    if check {
        enforce(&file);
    }
}
