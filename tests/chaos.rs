//! Chaos determinism: scripted fault scenarios are part of the
//! simulation, so a faulty run must be exactly as reproducible as a
//! healthy one. Each scenario here runs twice from the same seed and the
//! serialized metrics snapshots are compared byte-for-byte — the dynamic
//! counterpart of the static invariants clippy enforces
//! (clippy.toml, docs/LINTS.md) and the contract documented in docs/FAULTS.md.

use std::future::Future;
use std::pin::Pin;

use microgrid::desim::time::SimDuration;
use microgrid::desim::Simulation;
use microgrid::faults::{FaultKind, FaultPlan};
use microgrid::mpi::MpiParams;
use microgrid::{presets, VirtualGrid};

/// A 4-rank ring workload long enough (in simulated time) to span every
/// fault the scenarios below schedule: each round allreduces a counter,
/// then idles 10 ms.
fn ring_rounds(
    comm: microgrid::mpi::Comm,
    rounds: u64,
) -> Pin<Box<dyn Future<Output = Result<u64, microgrid::middleware::SockError>>>> {
    Box::pin(async move {
        let mut acc = 0u64;
        for round in 0..rounds {
            acc = comm.allreduce(acc + round, 8, |a, b| a + b).await?;
            microgrid::desim::sleep(SimDuration::from_millis(10)).await;
        }
        Ok(acc)
    })
}

fn loss_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimDuration::ZERO,
            FaultKind::LinkLoss {
                a: "alpha0".into(),
                b: "switch".into(),
                per_mille: 100,
            },
        )
        .at(
            SimDuration::from_millis(20),
            FaultKind::LinkDown {
                a: "alpha1".into(),
                b: "switch".into(),
            },
        )
        .at(
            SimDuration::from_millis(60),
            FaultKind::LinkUp {
                a: "alpha1".into(),
                b: "switch".into(),
            },
        )
}

/// Scenario 1: 10% loss on one edge plus a 40 ms hard outage on another.
/// The reliable transport must retransmit through both; the workload
/// completes with correct results and the run is byte-deterministic.
fn lossy_digest(seed: u64) -> String {
    let mut sim = Simulation::new(seed);
    let results = sim.block_on(async move {
        let mut config = presets::alpha_cluster();
        config.seed = seed;
        config.faults = Some(loss_plan());
        let grid = VirtualGrid::build(config).expect("build");
        grid.mpirun_all(MpiParams::default(), |comm| ring_rounds(comm, 10))
            .await
    });
    // allreduce keeps every rank in agreement despite the impairments.
    for r in &results {
        let v = r.as_ref().expect("rank completed despite link faults");
        assert_eq!(*v, *results[0].as_ref().unwrap());
    }
    let m = sim.obs().metrics();
    assert!(m.counter("faults.injected") >= 3, "plan did not replay");
    assert!(m.counter("faults.link_down") == 1);
    let snapshot = m.snapshot();
    serde_json::to_string(&snapshot).expect("snapshot serializes")
}

/// Scenario 2: a host crashes mid-run. The resilient launcher must drop
/// exactly that rank, the survivors finish, and the whole thing is still
/// byte-deterministic.
fn crash_digest(seed: u64) -> String {
    let mut sim = Simulation::new(seed);
    let results = sim.block_on(async move {
        let mut config = presets::alpha_cluster();
        config.seed = seed;
        config.faults = Some(FaultPlan::new().at(
            SimDuration::from_millis(30),
            FaultKind::HostCrash {
                host: "alpha3".into(),
            },
        ));
        let grid = VirtualGrid::build(config).expect("build");
        let hosts = grid.host_names();
        let params = MpiParams {
            recv_timeout: Some(SimDuration::from_millis(200)),
            ..MpiParams::default()
        };
        grid.mpirun_resilient(&hosts, params, SimDuration::from_secs(2), |comm| {
            Box::pin(async move {
                let rank = comm.rank();
                // Enough compute+idle rounds to straddle the 30 ms crash.
                for _ in 0..20 {
                    comm.ctx().compute_mops(0.5).await;
                    microgrid::desim::sleep(SimDuration::from_millis(5)).await;
                }
                rank
            }) as Pin<Box<dyn Future<Output = usize>>>
        })
        .await
    });
    assert_eq!(results.len(), 4);
    for (rank, r) in results.iter().enumerate() {
        if rank == 3 {
            assert_eq!(*r, None, "crashed rank must be dropped");
        } else {
            assert_eq!(*r, Some(rank), "healthy rank must survive");
        }
    }
    let m = sim.obs().metrics();
    assert_eq!(m.counter("faults.host_crash"), 1);
    assert_eq!(m.counter("faults.jobs_dropped"), 1);
    assert!(m.counter("faults.procs_killed") >= 1);
    let snapshot = m.snapshot();
    serde_json::to_string(&snapshot).expect("snapshot serializes")
}

#[test]
fn lossy_wan_runs_are_byte_identical() {
    let first = lossy_digest(1234);
    let second = lossy_digest(1234);
    assert_eq!(first, second, "same-seed chaos runs diverged");
    let other = lossy_digest(1235);
    assert_ne!(first, other, "seed does not reach the faulty run");
}

#[test]
fn host_crash_runs_are_byte_identical() {
    let first = crash_digest(77);
    let second = crash_digest(77);
    assert_eq!(first, second, "same-seed crash runs diverged");
}

/// A crashed host must not take the simulation's liveness with it: the
/// resilient launcher returns in bounded simulated time even though the
/// dead rank's task is parked forever.
#[test]
fn crash_does_not_hang_the_run() {
    let mut sim = Simulation::new(5);
    let t = sim.block_on(async move {
        let mut config = presets::alpha_cluster();
        config.seed = 5;
        config.faults = Some(FaultPlan::new().at(
            SimDuration::from_millis(10),
            FaultKind::HostCrash {
                host: "alpha0".into(),
            },
        ));
        let grid = VirtualGrid::build(config).expect("build");
        let hosts = grid.host_names();
        let _ = grid
            .mpirun_resilient(
                &hosts,
                MpiParams::default(),
                SimDuration::from_millis(500),
                |comm| {
                    Box::pin(async move {
                        comm.ctx().compute_mops(1e9).await; // far past the deadline
                    }) as Pin<Box<dyn Future<Output = ()>>>
                },
            )
            .await;
        microgrid::desim::now()
    });
    assert!(
        t.saturating_since(microgrid::desim::time::SimTime::ZERO) < SimDuration::from_secs(5),
        "resilient run overstayed its deadline: {t:?}"
    );
}
