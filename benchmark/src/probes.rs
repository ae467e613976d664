//! Probes: isolated timings of one layer's public API.
//!
//! A probe drives one layer alone and reports host nanoseconds per unit
//! of that layer's work, as the median of [`BATCHES`] batches. Probe
//! costs include the executor polls the probe causes, so `count x probe`
//! products overlap between layers: they rank layers, they do not add up.

use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::time::Instant;

use microgrid::desim::time::SimDuration;
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{sleep, spawn, SimRng, Simulation};
use microgrid::gis::{virtualization, Directory, Dn};
use microgrid::hostsim::{
    OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams, VirtualHostSpec,
};
use microgrid::mpi::{MpiData, MpiParams};
use microgrid::netsim::{LinkId, LinkSpec, NetParams, Network, NodeId, Payload, TopologyBuilder};
use microgrid::{presets, VirtualGrid};

use crate::run::median;

/// Batches per probe; the median is reported.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] runs of `batch`, which returns
/// `(host seconds, units of work)`, as nanoseconds per unit.
fn ns_per_unit(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (secs, units) = batch();
            secs * 1e9 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// `n` timer sleeps through the executor.
fn desim_timers(n: u64) -> f64 {
    ns_per_unit(|| {
        let (secs, _) = timed(|| {
            let mut sim = Simulation::new(1);
            sim.spawn(async move {
                for i in 0..n {
                    sleep(SimDuration::from_nanos(i % 97 + 1)).await;
                }
            });
            sim.run()
        });
        (secs, n)
    })
}

/// `n` messages through one channel between two tasks.
fn desim_channel(n: u64) -> f64 {
    ns_per_unit(|| {
        let (secs, _) = timed(|| {
            let mut sim = Simulation::new(1);
            sim.spawn(async move {
                let (tx, rx) = microgrid::desim::channel::channel();
                spawn(async move {
                    for i in 0..n {
                        tx.send(i).await.expect("receiver is alive");
                    }
                });
                let mut sum = 0u64;
                while let Ok(v) = rx.recv().await {
                    sum += v;
                }
                assert_eq!(sum, n * (n - 1) / 2);
            });
            sim.run()
        });
        (secs, n)
    })
}

/// `n` spawn + join pairs.
fn desim_spawn(n: u64) -> f64 {
    ns_per_unit(|| {
        let (secs, sum) = timed(|| {
            let mut sim = Simulation::new(1);
            sim.block_on(async move {
                let mut sum = 0u64;
                for i in 0..n {
                    sum += spawn(async move { i }).await;
                }
                sum
            })
        });
        assert_eq!(sum, n * (n - 1) / 2);
        (secs, n)
    })
}

/// Two compute-bound virtual hosts sharing one physical host at a 2.5 ms
/// quantum for `virtual_secs`: `(ns per quantum, polls per quantum)`.
fn hostsim_quanta(virtual_secs: u64) -> (f64, f64) {
    let mut polls_per_quantum = 0.0;
    let ns = ns_per_unit(|| {
        let mut sim = Simulation::new(2);
        let (secs, ()) = timed(|| {
            sim.block_on(async move {
                let ph = PhysicalHost::new(
                    PhysicalHostSpec::new("phys", presets::ALPHA_MOPS, 1 << 30),
                    OsParams::default(),
                    SchedulerParams {
                        quantum: SimDuration::from_micros(2500),
                        ..SchedulerParams::default()
                    },
                    SimRng::new(7),
                );
                let mut jobs = Vec::new();
                for name in ["v0", "v1"] {
                    let spec = VirtualHostSpec::new(name, presets::ALPHA_MOPS, 1 << 28);
                    let proc = ph
                        .map_virtual(spec, 0.45)
                        .spawn_process("burn")
                        .expect("memory fits");
                    jobs.push(spawn(async move {
                        proc.compute_virtual(SimDuration::from_secs(virtual_secs))
                            .await;
                    }));
                }
                for j in jobs {
                    j.await;
                }
            })
        });
        let quanta = sim.obs().metrics().counter("sched.quanta");
        polls_per_quantum = sim.poll_count() as f64 / quanta.max(1) as f64;
        (secs, quanta)
    });
    (ns, polls_per_quantum)
}

/// One message of `bytes` from `a` to `z` over one fast-ethernet link,
/// `messages` times back to back, optionally at `loss_per_mille` loss.
/// Returns `(host seconds, packets on the wire)`.
fn netsim_transfer(bytes: u64, messages: u64, loss_per_mille: u32) -> (f64, u64) {
    let mut sim = Simulation::new(3);
    let (secs, packets) = timed(|| {
        sim.block_on(async move {
            let mut tb = TopologyBuilder::new();
            let a = tb.host("a");
            let z = tb.host("z");
            let (fwd, back) = tb.link(a, z, LinkSpec::fast_ethernet());
            let net = Network::new(tb.build(), VirtualClock::identity(), NetParams::default());
            for lid in [fwd, back] {
                net.set_link_loss(lid, loss_per_mille);
            }
            let rx = net.endpoint(z).bind(1);
            spawn({
                let ep = net.endpoint(a);
                async move {
                    for _ in 0..messages {
                        ep.send(z, 1, 1, bytes, Payload::empty())
                            .await
                            .expect("retry budget is unlimited");
                    }
                }
            });
            for _ in 0..messages {
                rx.recv().await.expect("network stays up");
            }
            (0..net.topology().link_count())
                .map(|l| net.link_stats(LinkId(l)).tx_packets)
                .sum::<u64>()
        })
    });
    (secs, packets)
}

/// A star of `hosts` hosts around one switch: `(build ms, ns per route
/// query)`. The queries ask each source for 64 destinations, so every
/// source is computed once (cold) and then hit (warm).
fn netsim_routes(hosts: usize) -> (f64, f64) {
    let mut build_ms = Vec::new();
    let per_query = ns_per_unit(|| {
        let (secs, (topo, nodes)) = timed(|| {
            let mut tb = TopologyBuilder::new();
            let sw = tb.router("switch");
            let nodes: Vec<NodeId> = (0..hosts)
                .map(|i| {
                    let h = tb.host(format!("h{i}"));
                    tb.link(h, sw, LinkSpec::fast_ethernet());
                    h
                })
                .collect();
            (tb.build(), nodes)
        });
        build_ms.push(secs * 1e3);
        let (secs, found) = timed(|| {
            let mut found = 0u64;
            for (i, src) in nodes.iter().enumerate() {
                for k in 1..=64 {
                    let dst = nodes[(i + k * 7) % hosts];
                    found += u64::from(topo.next_hop(*src, dst).is_some());
                }
            }
            found
        });
        black_box(found);
        (secs, hosts as u64 * 64)
    });
    (median(&build_ms), per_query)
}

/// Two processes on two hosts of the Alpha cluster ping-pong `n`
/// one-packet messages over virtual sockets.
fn middleware_vsock(n: u64) -> f64 {
    ns_per_unit(|| {
        let mut sim = Simulation::new(4);
        let (secs, ()) = timed(|| {
            sim.block_on(async move {
                let grid = VirtualGrid::build(presets::alpha_cluster()).expect("preset is valid");
                let ping = grid.spawn_process("alpha0", "ping").expect("memory fits");
                let pong = grid.spawn_process("alpha1", "pong").expect("memory fits");
                let (ping_sock, pong_sock) = (ping.bind(7000), pong.bind(7000));
                let echo = spawn(async move {
                    for _ in 0..n / 2 {
                        pong_sock.recv().await.expect("network stays up");
                        pong_sock
                            .send_to("alpha0", 7000, 64, Payload::empty())
                            .await
                            .expect("route exists");
                    }
                });
                for _ in 0..n / 2 {
                    ping_sock
                        .send_to("alpha1", 7000, 64, Payload::empty())
                        .await
                        .expect("route exists");
                    ping_sock.recv().await.expect("network stays up");
                }
                echo.await;
            })
        });
        (secs, n)
    })
}

/// Run `body` on every rank of the 4-host Alpha cluster (MicroGrid mode);
/// host seconds of the `mpirun_all` alone.
fn mpi_on_alpha<F>(body: F) -> f64
where
    F: Fn(microgrid::mpi::Comm) -> Pin<Box<dyn Future<Output = ()>>> + 'static,
{
    let mut sim = Simulation::new(5);
    sim.block_on(async move {
        let grid = VirtualGrid::build(presets::alpha_cluster()).expect("preset is valid");
        let t0 = Instant::now();
        grid.mpirun_all(MpiParams::default(), body).await;
        t0.elapsed().as_secs_f64()
    })
}

/// `n` 8-byte allreduces across 4 ranks.
fn mpi_allreduce(n: u64) -> f64 {
    ns_per_unit(|| {
        let secs = mpi_on_alpha(move |comm| {
            Box::pin(async move {
                for _ in 0..n {
                    comm.allreduce(1u64, 8, |a, b| a + b)
                        .await
                        .expect("no faults injected");
                }
            })
        });
        (secs, n)
    })
}

/// `n` 1 KB eager sends from rank 0 to rank 1.
fn mpi_p2p(n: u64) -> f64 {
    ns_per_unit(|| {
        let secs = mpi_on_alpha(move |comm| {
            Box::pin(async move {
                for _ in 0..n {
                    match comm.rank() {
                        0 => comm
                            .send(1, 1, MpiData::bytes_only(1024))
                            .await
                            .expect("no faults injected"),
                        1 => drop(comm.recv(0, 1).await.expect("no faults injected")),
                        _ => break,
                    }
                }
            })
        });
        (secs, n)
    })
}

/// `mpirun_all` of an empty body on a `hosts`-host cluster: microseconds
/// per rank launched and torn down.
fn mpi_launch(hosts: usize) -> f64 {
    ns_per_unit(|| {
        let mut sim = Simulation::new(6);
        let secs = sim.block_on(async move {
            let grid =
                VirtualGrid::build(presets::alpha_cluster_n(hosts)).expect("preset is valid");
            let t0 = Instant::now();
            grid.mpirun_all(MpiParams::default(), |_comm| async {})
                .await;
            t0.elapsed().as_secs_f64()
        });
        (secs, hosts as u64)
    }) / 1e3
}

/// Publish `records` virtual-host records, then search them all:
/// `(us per record published, us per search)`.
fn gis(records: usize) -> (f64, f64) {
    let base = Dn::parse("ou=Concurrent Systems Architecture Group, o=Grid").expect("static DN");
    let mut search_us = Vec::new();
    let publish = ns_per_unit(|| {
        let (secs, dir) = timed(|| {
            let mut dir = Directory::new();
            for i in 0..records {
                dir.upsert(virtualization::virtual_host_record(
                    &base,
                    &format!("host{i}"),
                    "Probe",
                    &format!("phys{i}"),
                    presets::ALPHA_MOPS,
                    1 << 30,
                ));
            }
            dir
        });
        let filter = virtualization::virtual_hosts_filter("Probe");
        let (search, hits) = timed(|| dir.search_all(&filter).len());
        assert_eq!(hits, records);
        search_us.push(search * 1e6);
        (secs, records as u64)
    }) / 1e3;
    (publish, median(&search_us))
}

/// Run every probe; about 3 s in all. `smoke` shrinks the batches tenfold
/// (and the wide probes to 64 hosts): quick, not comparable.
pub fn run_all(smoke: bool) -> Vec<(String, f64)> {
    let scale = if smoke { 10 } else { 1 };
    let wide = if smoke { 64 } else { 1024 };
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    put("desim.timer_probe_ns", desim_timers(200_000 / scale));
    put("desim.channel_probe_ns", desim_channel(200_000 / scale));
    put("desim.spawn_probe_ns", desim_spawn(200_000 / scale));
    let (quantum_ns, polls) = hostsim_quanta(30 / scale);
    put("hostsim.quantum_probe_ns", quantum_ns);
    put("hostsim.polls_per_quantum", polls);
    let bulk = 16_000_000 / scale;
    put(
        "netsim.bulk_probe_ns_per_packet",
        ns_per_unit(|| netsim_transfer(bulk, 1, 0)),
    );
    put(
        "netsim.lossy_probe_ns_per_packet",
        ns_per_unit(|| netsim_transfer(bulk, 1, 50)),
    );
    let small = 30_000 / scale;
    put(
        "netsim.small_probe_ns_per_msg",
        ns_per_unit(|| (netsim_transfer(1000, small, 0).0, small)),
    );
    let (build_ms, route_ns) = netsim_routes(wide);
    put("netsim.topology_build_ms", build_ms);
    put("netsim.route_probe_ns_per_query", route_ns);
    put(
        "middleware.vsock_probe_ns_per_msg",
        middleware_vsock(20_000 / scale),
    );
    put("mpi.allreduce_probe_ns", mpi_allreduce(2_000 / scale));
    put("mpi.p2p_probe_ns_per_msg", mpi_p2p(10_000 / scale));
    put("mpi.launch_probe_us_per_rank", mpi_launch(wide));
    let (publish_us, search_us) = gis(wide);
    put("gis.publish_probe_us_per_record", publish_us);
    put("gis.search_probe_us", search_us);
    m
}
