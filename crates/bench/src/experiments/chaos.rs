//! Chaos scenarios: the paper's what-if promise under *adverse*
//! conditions. Two tracked experiments exercise the fault-injection
//! engine end to end:
//!
//! 1. **lossy-wan** — NPB IS over the vBNS distributed cluster while the
//!    scripted scenario degrades the Los Angeles–Chicago long-haul link
//!    (packet loss, then a hard outage that later heals). The reliable
//!    transport retransmits through all of it; the figure reports the
//!    healthy-vs-faulty slowdown and the recovery counters.
//! 2. **host-crash** — an EP-style master/worker run on the Alpha
//!    cluster where one host crashes mid-compute. The resilient launcher
//!    and MPI receive timeouts drop exactly the dead rank; the figure
//!    reports surviving-rank throughput and the dropped-job accounting.
//!
//! Both scenarios are deterministic: one config + one seed = one fault
//! timeline = one set of numbers. `repro --check chaos-wan chaos-crash`
//! diffs them against their tracked files and holds them to their claims
//! ([`crate::claims`]); `tests/chaos.rs` runs fault plans twice and
//! compares the bytes.

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::desim::time::SimDuration;
use microgrid::faults::{FaultKind, FaultPlan};
use microgrid::mpi::{Comm, MpiData, MpiParams};
use microgrid::{presets, App, AppResult, Mode, Outcome, Report, Scenario, Series};

use crate::runner::{run_with, Plan};

/// The scripted WAN impairment for scenario 1: 5% loss on the vBNS
/// long-haul from the start, plus a 150 ms hard outage that heals.
fn wan_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimDuration::ZERO,
            FaultKind::LinkLoss {
                a: "vbns-la".into(),
                b: "vbns-chi".into(),
                per_mille: 50,
            },
        )
        .at(
            SimDuration::from_millis(250),
            FaultKind::LinkDown {
                a: "vbns-la".into(),
                b: "vbns-chi".into(),
            },
        )
        .at(
            SimDuration::from_millis(400),
            FaultKind::LinkUp {
                a: "vbns-la".into(),
                b: "vbns-chi".into(),
            },
        )
}

/// NPB IS class S over the 155 Mb/s vBNS grid, healthy or under `faults`:
/// rank 0's result and the network's retransmit rounds.
fn run_is_vbns(faults: Option<FaultPlan>, seed: u64) -> Outcome<(AppResult, u64)> {
    let mut config = presets::vbns_grid(155e6);
    config.seed = seed;
    config.faults = faults;
    let scenario = Scenario::seeded(config, Mode::MicroGrid, seed);
    run_with(scenario, |grid| async move {
        let mut ranks = App::Npb(NpbBenchmark::IS, NpbClass::S).launch(&grid).await;
        let retransmits = grid.network().stats().retransmit_rounds;
        (ranks.swap_remove(0), retransmits)
    })
}

/// Scenario 1: NPB IS over the lossy/outaged vBNS WAN vs the healthy WAN.
pub fn chaos_wan() -> Plan {
    let jobs = [None, Some(wan_plan())].map(|faults| move || run_is_vbns(faults, 4242));
    Plan::new(jobs.into(), |runs| {
        let [healthy, faulty]: [Outcome<(AppResult, u64)>; 2] =
            runs.try_into().ok().expect("two runs");
        let (retransmits, m) = (faulty.output.1, faulty.metrics);
        let (healthy, faulty) = (healthy.output.0, faulty.output.0);
        assert!(healthy.verified(), "healthy run failed: {healthy:?}");
        assert!(
            faulty.verified(),
            "faulty run must still verify: {faulty:?}"
        );
        let recovery_ms = m
            .histograms
            .iter()
            .find(|h| h.name == "net.recovery_latency_ns")
            .map_or(0.0, |h| h.sum as f64 / 1e6);
        let mut rep = Report::new(
            "chaos-wan",
            "NPB IS over the vBNS WAN under scripted loss and a healed outage (class S)",
        );
        rep.series.push(Series {
            label: "virtual seconds".into(),
            points: vec![
                ("healthy".into(), healthy.virtual_seconds()),
                ("faulty".into(), faulty.virtual_seconds()),
            ],
        });
        rep.series.push(Series {
            label: "recovery".into(),
            points: vec![
                ("retransmits".into(), retransmits as f64),
                ("stalls".into(), m.counter("net.stalls") as f64),
                ("recovery_ms_total".into(), recovery_ms),
            ],
        });
        rep.notes.push(format!(
            "transport retransmitted through 5% loss plus a 150 ms outage; \
             slowdown {:.2}x",
            faulty.virtual_seconds() / healthy.virtual_seconds().max(1e-9)
        ));
        rep
    })
}

/// Per-rank Mops of EP-style independent work in scenario 2.
const CRASH_WORK_MOPS: f64 = 200.0;
const CRASH_BLOCKS: u32 = 20;

/// Scenario 2 worker body: EP-style independent compute, partial sums
/// funneled to rank 0, which tolerates dead workers via receive
/// timeouts and reports how much of the job survived.
async fn crash_body(comm: Comm) -> (usize, usize, f64) {
    let mut acc = 0.0f64;
    for b in 0..CRASH_BLOCKS {
        comm.ctx()
            .compute_mops(CRASH_WORK_MOPS / CRASH_BLOCKS as f64)
            .await;
        acc += f64::from(b);
    }
    if comm.rank() != 0 {
        let _ = comm.send(0, 7, MpiData::typed(8, acc)).await;
        return (0, 0, 0.0);
    }
    let mut survivors = 1; // rank 0 itself
    let mut dropped = 0;
    for src in 1..comm.size() {
        match comm.recv(src, 7).await {
            Ok(_) => survivors += 1,
            Err(_) => dropped += 1,
        }
    }
    let done = comm.ctx().gettimeofday();
    let finish_secs = done
        .saturating_since(microgrid::desim::time::SimTime::ZERO)
        .as_secs_f64();
    (survivors, dropped, finish_secs)
}

/// Scenario 2: one Alpha-cluster host crashes mid-compute; the run
/// degrades gracefully instead of hanging.
pub fn chaos_crash() -> Plan {
    let seed = 777;
    let job = move || {
        let mut config = presets::alpha_cluster();
        config.seed = seed;
        config.faults = Some(FaultPlan::new().at(
            SimDuration::from_millis(120),
            FaultKind::HostCrash {
                host: "alpha2".into(),
            },
        ));
        let scenario = Scenario::seeded(config, Mode::MicroGrid, seed);
        run_with(scenario, |grid| async move {
            let hosts = grid.host_names();
            let params = MpiParams {
                recv_timeout: Some(SimDuration::from_secs(2)),
            };
            let results = grid
                .mpirun_resilient(&hosts, params, SimDuration::from_secs(30), crash_body)
                .await;
            results[0].expect("rank 0 survives")
        })
    };
    Plan::new(vec![job], |mut runs| {
        let run: Outcome<(usize, usize, f64)> = runs.pop().expect("one run");
        let ((survivors, dropped, finish_secs), m) = (run.output, run.metrics);
        let counted = |point: &str, counter| (point.to_string(), m.counter(counter) as f64);
        let mut rep = Report::new(
            "chaos-crash",
            "EP-style run with a mid-compute host crash: graceful degradation",
        );
        rep.series.push(Series {
            label: "degradation".into(),
            points: vec![
                ("ranks_total".into(), 4.0),
                ("ranks_survived".into(), survivors as f64),
                ("ranks_dropped".into(), dropped as f64),
                counted("rank_timeouts", "mpi.rank_timeouts"),
                counted("jobs_dropped", "faults.jobs_dropped"),
                counted("procs_killed", "faults.procs_killed"),
                ("rank0_finish_seconds".into(), finish_secs),
            ],
        });
        rep.notes.push(
            "one of four hosts crashes at t=120ms; rank 0 detects the dead \
             worker via the MPI receive timeout and completes on survivors"
                .into(),
        );
        rep
    })
}
