//! `mpirun`: start one process per virtual host and run an SPMD body.

use std::future::Future;
use std::rc::Rc;

use mgrid_desim::time::SimDuration;
use mgrid_desim::timeout::with_timeout;
use mgrid_desim::{obs, spawn, Event, JoinHandle};
use mgrid_middleware::{HostTable, ProcessCtx};
use mgrid_netsim::Network;

use crate::comm::{Comm, MpiParams};

/// Start every rank's process and communicator, then spawn the bodies in
/// rank order: all sockets are bound before any body runs.
fn launch<T, F, Fut>(
    table: &HostTable,
    net: &Network,
    hosts: &[String],
    params: MpiParams,
    body: F,
) -> (Vec<Comm>, Vec<JoinHandle<T>>)
where
    T: 'static,
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let hosts_rc = Rc::new(hosts.to_vec());
    let mut comms = Vec::with_capacity(hosts.len());
    for (rank, host) in hosts.iter().enumerate() {
        let ctx = ProcessCtx::spawn(table, net, host, format!("mpi-rank{rank}"))
            .unwrap_or_else(|e| panic!("cannot start rank {rank} on {host}: {e}"));
        comms.push(Comm::create(ctx, rank, hosts_rc.clone(), params.clone()));
    }
    let handles = comms.iter().map(|comm| spawn(body(comm.clone()))).collect();
    (comms, handles)
}

/// Launch an MPI world: rank `r` runs on `hosts[r]` (hosts may repeat for
/// multi-process-per-host placements, provided the memory cap fits).
///
/// All ranks' sockets are bound before any body starts, so no traffic is
/// lost to startup races. Returns the bodies' outputs in rank order; every
/// rank's process is terminated afterwards.
///
/// # Examples
///
/// A two-host world over one switched link, each rank reporting its
/// identity (higher layers wire this up from a config — see
/// `microgrid::VirtualGrid::mpirun`):
///
/// ```
/// use mgrid_desim::vclock::VirtualClock;
/// use mgrid_desim::{SimRng, Simulation};
/// use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
/// use mgrid_middleware::HostTable;
/// use mgrid_mpi::{mpirun, MpiParams};
/// use mgrid_netsim::{LinkSpec, NetParams, Network, TopologyBuilder};
///
/// let mut sim = Simulation::new(7);
/// let out = sim.block_on(async {
///     let mut b = TopologyBuilder::new();
///     let sw = b.router("switch");
///     let hosts = ["n0.grid", "n1.grid"];
///     let nodes: Vec<_> = hosts
///         .iter()
///         .map(|name| {
///             let n = b.host(*name);
///             b.link(n, sw, LinkSpec::fast_ethernet());
///             n
///         })
///         .collect();
///     let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
///     let table = HostTable::new();
///     for (i, (name, node)) in hosts.iter().zip(&nodes).enumerate() {
///         let ph = PhysicalHost::new(
///             PhysicalHostSpec::new(format!("phys{i}"), 533.0, 1 << 30),
///             OsParams::default(),
///             SchedulerParams::default(),
///             SimRng::new(100 + i as u64),
///         );
///         table.register(*name, *node, ph.as_direct_virtual());
///     }
///     let hosts: Vec<String> = hosts.iter().map(|h| h.to_string()).collect();
///     mpirun(&table, &net, &hosts, MpiParams::default(), |comm| async move {
///         (comm.rank(), comm.size())
///     })
///     .await
/// });
/// assert_eq!(out, vec![(0, 2), (1, 2)]);
/// ```
///
/// # Panics
/// Panics if a host is unknown or a process cannot be started (memory).
pub async fn mpirun<T, F, Fut>(
    table: &HostTable,
    net: &Network,
    hosts: &[String],
    params: MpiParams,
    body: F,
) -> Vec<T>
where
    T: 'static,
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let (comms, handles) = launch(table, net, hosts, params, body);
    let mut outputs = Vec::with_capacity(handles.len());
    for h in handles {
        outputs.push(h.await);
    }
    for comm in &comms {
        comm.flush().await;
        comm.ctx().exit();
    }
    outputs
}

/// Fault-tolerant `mpirun`: like [`mpirun`], but every rank's body runs
/// under a wall-clock `deadline`. A rank that has not finished by then —
/// because its host crashed (its compute halts forever) or it deadlocked
/// waiting on a dead peer — is abandoned: its slot in the result is `None`
/// and it counts into the `faults.jobs_dropped` metric. Completed ranks
/// return `Some(output)` in rank order.
///
/// The final flush is bounded by the same deadline, so buffered sends to a
/// dead destination cannot wedge teardown.
pub async fn mpirun_resilient<T, F, Fut>(
    table: &HostTable,
    net: &Network,
    hosts: &[String],
    params: MpiParams,
    deadline: SimDuration,
    body: F,
) -> Vec<Option<T>>
where
    T: 'static,
    F: Fn(Comm) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let (comms, handles) = launch(table, net, hosts, params, body);
    let cutoff = mgrid_desim::now() + deadline;
    let mut outputs = Vec::with_capacity(handles.len());
    for (rank, h) in handles.into_iter().enumerate() {
        let remaining = cutoff.saturating_since(mgrid_desim::now());
        let out = with_timeout(remaining, h).await;
        if out.is_none() {
            obs::count("faults.jobs_dropped", 1);
            obs::emit(|| Event::RankTimeout {
                rank: rank as u64,
                waited_ns: deadline.as_nanos(),
            });
        }
        outputs.push(out);
    }
    for comm in &comms {
        let _ = with_timeout(cutoff.saturating_since(mgrid_desim::now()), comm.flush()).await;
        comm.ctx().exit();
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MpiData;
    use mgrid_desim::vclock::VirtualClock;
    use mgrid_desim::{SimRng, SimTime, Simulation};
    use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
    use mgrid_netsim::{LinkSpec, NetParams, NodeId, TopologyBuilder};

    /// A 4-host switched-Ethernet virtual grid on 4 direct physical hosts.
    fn grid4() -> (HostTable, Network, Vec<String>) {
        let mut b = TopologyBuilder::new();
        let sw = b.router("switch");
        let mut nodes: Vec<(String, NodeId)> = Vec::new();
        for i in 0..4 {
            let name = format!("node{i}.cluster");
            let n = b.host(&name);
            b.link(n, sw, LinkSpec::fast_ethernet());
            nodes.push((name, n));
        }
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        let table = HostTable::new();
        for (i, (name, node)) in nodes.iter().enumerate() {
            let ph = PhysicalHost::new(
                PhysicalHostSpec::new(format!("phys{i}"), 533.0, 1 << 30),
                OsParams::default(),
                SchedulerParams::default(),
                SimRng::new(100 + i as u64),
            );
            table.register(name, *node, ph.as_direct_virtual());
        }
        let names = nodes.into_iter().map(|(n, _)| n).collect();
        (table, net, names)
    }

    fn run_world<T: 'static>(
        seed: u64,
        body: impl Fn(Comm) -> std::pin::Pin<Box<dyn Future<Output = T>>> + 'static,
    ) -> Vec<T> {
        let mut sim = Simulation::new(seed);
        let out = sim.block_on(async move {
            let (table, net, hosts) = grid4();
            mpirun(&table, &net, &hosts, MpiParams::default(), body).await
        });
        out
    }

    #[test]
    fn ranks_and_size() {
        let out = run_world(1, |comm| {
            Box::pin(async move { (comm.rank(), comm.size()) })
        });
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_send_recv() {
        let out = run_world(2, |comm| {
            Box::pin(async move {
                let n = comm.size();
                let next = (comm.rank() + 1) % n;
                let prev = (comm.rank() + n - 1) % n;
                let msg = comm
                    .sendrecv(next, 7, MpiData::typed(8, comm.rank() as u64), prev, 7)
                    .await
                    .unwrap();
                *msg.data.downcast::<u64>().unwrap()
            })
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn nonovertaking_same_tag() {
        let out = run_world(3, |comm| {
            Box::pin(async move {
                match comm.rank() {
                    0 => {
                        // A big (rendezvous) then a small (eager) message
                        // with the same tag: receiver must see them in
                        // send order.
                        comm.send(1, 5, MpiData::typed(100_000, 1u32))
                            .await
                            .unwrap();
                        comm.send(1, 5, MpiData::typed(16, 2u32)).await.unwrap();
                        vec![]
                    }
                    1 => {
                        let a = comm.recv(0, 5).await.unwrap();
                        let b = comm.recv(0, 5).await.unwrap();
                        vec![
                            *a.data.downcast::<u32>().unwrap(),
                            *b.data.downcast::<u32>().unwrap(),
                        ]
                    }
                    _ => vec![],
                }
            })
        });
        assert_eq!(out[1], vec![1, 2]);
    }

    #[test]
    fn eager_overlapping_sends_preserve_order() {
        let out = run_world(4, |comm| {
            Box::pin(async move {
                match comm.rank() {
                    0 => {
                        // isend a large eager message, then a tiny one:
                        // the tiny one would win the race without seqs.
                        let h1 = comm.isend(1, 9, MpiData::typed(16_000, 10u32));
                        let h2 = comm.isend(1, 9, MpiData::typed(8, 20u32));
                        h1.await.unwrap();
                        h2.await.unwrap();
                        0
                    }
                    1 => {
                        let a = comm.recv(0, 9).await.unwrap();
                        *a.data.downcast::<u32>().unwrap()
                    }
                    _ => 0,
                }
            })
        });
        assert_eq!(out[1], 10);
    }

    #[test]
    fn barrier_aligns_ranks() {
        let out = run_world(5, |comm| {
            Box::pin(async move {
                // Stagger arrival; everyone leaves at (or after) the
                // slowest arrival.
                let d = mgrid_desim::SimDuration::from_millis(10 * (comm.rank() as u64 + 1));
                mgrid_desim::sleep(d).await;
                comm.barrier().await.unwrap();
                mgrid_desim::now()
            })
        });
        let max_arrival = SimTime::from_nanos(40_000_000);
        for t in out {
            assert!(t >= max_arrival, "left barrier at {t}");
            assert!(
                t < max_arrival + mgrid_desim::SimDuration::from_millis(5),
                "barrier too slow: {t}"
            );
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4usize {
            let out = run_world(6 + root as u64, move |comm| {
                Box::pin(async move {
                    let data = if comm.rank() == root {
                        Some(MpiData::typed(64, format!("from-{root}")))
                    } else {
                        None
                    };
                    let got = comm.bcast(root, data).await.unwrap();
                    got.downcast::<String>().unwrap().as_ref().clone()
                })
            });
            assert!(out.iter().all(|s| s == &format!("from-{root}")));
        }
    }

    #[test]
    fn allreduce_sums_vectors() {
        let out = run_world(10, |comm| {
            Box::pin(async move {
                let v = vec![comm.rank() as f64, 1.0];
                comm.allreduce(v, 16, |a, b| {
                    a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<f64>>()
                })
                .await
                .unwrap()
            })
        });
        for v in out {
            assert_eq!(v, vec![6.0, 4.0]); // 0+1+2+3, 1*4
        }
    }

    #[test]
    fn reduce_max_at_root() {
        let out = run_world(11, |comm| {
            Box::pin(async move {
                comm.reduce(2, (comm.rank() as u64 * 7) % 5, 8, |a, b| *a.max(b))
                    .await
                    .unwrap()
            })
        });
        assert_eq!(out[2], Some(4)); // values 0,2,4,1
        assert_eq!(out[0], None);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_world(12, |comm| {
            Box::pin(async move { comm.gather(0, comm.rank() as u32 * 100, 4).await.unwrap() })
        });
        assert_eq!(out[0], Some(vec![0, 100, 200, 300]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn alltoall_exchanges_chunks() {
        let out = run_world(13, |comm| {
            Box::pin(async move {
                let chunks: Vec<(u32, u64)> = (0..comm.size())
                    .map(|d| ((comm.rank() * 10 + d) as u32, 4))
                    .collect();
                comm.alltoall(chunks).await.unwrap()
            })
        });
        // out[r][s] = s*10 + r
        for (r, row) in out.iter().enumerate() {
            for (s, v) in row.iter().enumerate() {
                assert_eq!(*v, (s * 10 + r) as u32);
            }
        }
    }

    #[test]
    fn recv_timeout_surfaces_dead_rank() {
        let mut sim = Simulation::new(21);
        let out = sim.block_on(async move {
            let (table, net, hosts) = grid4();
            let params = MpiParams {
                recv_timeout: Some(mgrid_desim::SimDuration::from_secs(2)),
                ..MpiParams::default()
            };
            let table2 = table.clone();
            // Rank 3's host dies before it ever sends, so rank 0's receive
            // from it must time out and mark the rank suspect.
            mpirun(&table, &net, &hosts, params, move |comm| {
                let table = table2.clone();
                Box::pin(async move {
                    match comm.rank() {
                        0 => {
                            let err = comm.recv(3, 1).await.unwrap_err();
                            assert_eq!(err, mgrid_middleware::SockError::TimedOut);
                            comm.failed_ranks()
                        }
                        3 => {
                            table.lookup("node3.cluster").unwrap().vhost.crash();
                            Vec::new()
                        }
                        _ => Vec::new(),
                    }
                }) as std::pin::Pin<Box<dyn Future<Output = Vec<usize>>>>
            })
            .await
        });
        assert_eq!(out[0], vec![3]);
        let m = sim.obs().metrics().snapshot();
        assert!(m.counter("mpi.rank_timeouts") >= 1);
    }

    #[test]
    fn resilient_run_drops_crashed_rank() {
        let mut sim = Simulation::new(22);
        let out = sim.block_on(async move {
            let (table, net, hosts) = grid4();
            let params = MpiParams {
                recv_timeout: Some(mgrid_desim::SimDuration::from_secs(1)),
                ..MpiParams::default()
            };
            let table2 = table.clone();
            mpirun_resilient(
                &table,
                &net,
                &hosts,
                params,
                mgrid_desim::SimDuration::from_secs(5),
                move |comm| {
                    let table = table2.clone();
                    Box::pin(async move {
                        if comm.rank() == 2 {
                            // Host dies 100ms in; the rank's compute halts.
                            mgrid_desim::sleep(mgrid_desim::SimDuration::from_millis(100)).await;
                            table.lookup("node2.cluster").unwrap().vhost.crash();
                            comm.ctx().compute_mops(1.0).await;
                        }
                        comm.rank()
                    }) as std::pin::Pin<Box<dyn Future<Output = usize>>>
                },
            )
            .await
        });
        assert_eq!(out, vec![Some(0), Some(1), None, Some(3)]);
        let m = sim.obs().metrics().snapshot();
        assert_eq!(m.counter("faults.jobs_dropped"), 1);
    }

    #[test]
    fn ping_pong_latency_sane() {
        let out = run_world(14, |comm| {
            Box::pin(async move {
                if comm.rank() == 0 {
                    let t0 = mgrid_desim::now();
                    let iters = 10;
                    for _ in 0..iters {
                        comm.send(1, 1, MpiData::bytes_only(4)).await.unwrap();
                        comm.recv(1, 2).await.unwrap();
                    }
                    let rtt = (mgrid_desim::now() - t0).as_secs_f64() / iters as f64;
                    Some(rtt)
                } else if comm.rank() == 1 {
                    for _ in 0..10 {
                        comm.recv(0, 1).await.unwrap();
                        comm.send(0, 2, MpiData::bytes_only(4)).await.unwrap();
                    }
                    None
                } else {
                    None
                }
            })
        });
        let rtt = out[0].unwrap();
        // Two switched-Ethernet hops each way (~50us prop per link) plus
        // software overheads: plausible LAN RTT is 200us..1ms.
        assert!(rtt > 150e-6 && rtt < 1.5e-3, "rtt {rtt}");
    }
}
