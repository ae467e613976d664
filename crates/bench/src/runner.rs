//! Shared drivers for the figure regenerators: the figure registry, the
//! one worker pool, and the per-scenario simulation runners.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{mpsc, Mutex};

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult, NpbSensors};
use microgrid::apps::{Autopilot, WaveToyConfig, WaveToyResult};
use microgrid::desim::time::SimDuration;
use microgrid::desim::{MetricsSnapshot, Simulation};
use microgrid::mpi::MpiParams;
use microgrid::{GridConfig, Report, VirtualGrid};

use crate::experiments::{apps as fig_apps, micro, network, npb as fig_npb, scale};

thread_local! {
    /// Metrics accumulated across every simulation this thread has driven
    /// since the last [`take_metrics`] call.
    static ACCUM: RefCell<MetricsSnapshot> = RefCell::new(MetricsSnapshot::default());
    /// Pool workers [`run_scenarios`] uses on this thread: 1 (serial)
    /// until the binary driving the thread hands it a share of the
    /// thread budget through [`set_scenario_workers`].
    static SCENARIO_WORKERS: Cell<usize> = const { Cell::new(1) };
}

/// One regenerable figure of the paper's evaluation.
pub struct Figure {
    /// Short id (`fig10`), also the stem of `results/<id>.json`.
    pub id: &'static str,
    /// One-line description for `repro --help`.
    pub what: &'static str,
    /// Regenerate the figure.
    pub run: fn() -> Report,
}

/// Every figure `repro` regenerates, in canonical order.
pub fn figures() -> Vec<Figure> {
    vec![
        Figure {
            id: "fig5",
            what: "memory capacity microbenchmark",
            run: micro::fig5_memory,
        },
        Figure {
            id: "fig6",
            what: "CPU fraction fidelity under competition",
            run: || micro::fig6_cpu(SimDuration::from_secs(if fast_mode() { 3 } else { 10 })),
        },
        Figure {
            id: "fig7",
            what: "quanta-size distribution",
            run: || micro::fig7_quanta(if fast_mode() { 1000 } else { 9000 }),
        },
        Figure {
            id: "fig8",
            what: "network latency/bandwidth vs message size",
            run: || network::fig8_network(if fast_mode() { 4 } else { 20 }),
        },
        Figure {
            id: "fig9",
            what: "virtual Grid configurations table",
            run: fig_npb::fig9_configs,
        },
        Figure {
            id: "fig10",
            what: "NPB totals, physical vs MicroGrid",
            run: fig_npb::fig10_npb,
        },
        Figure {
            id: "fig11",
            what: "scheduling-quantum sweep",
            run: fig_npb::fig11_quanta_sweep,
        },
        Figure {
            id: "fig12",
            what: "CPU scaling at fixed slow network",
            run: fig_npb::fig12_cpu_scaling,
        },
        Figure {
            id: "fig14",
            what: "vBNS WAN bottleneck sweep",
            run: fig_npb::fig14_vbns,
        },
        Figure {
            id: "fig15",
            what: "emulation-rate invariance",
            run: fig_npb::fig15_emulation_rates,
        },
        Figure {
            id: "fig16",
            what: "CACTUS WaveToy",
            run: fig_apps::fig16_cactus,
        },
        Figure {
            id: "fig17",
            what: "Autopilot internal validation",
            run: fig_apps::fig17_autopilot,
        },
        Figure {
            id: "scale",
            what: "simulator scalability study (extension)",
            run: scale::scale_study,
        },
    ]
}

/// Fold one finished simulation's metrics into the thread accumulator.
fn note_run(sim: &Simulation) {
    let snap = sim.obs().metrics().snapshot();
    if !snap.is_empty() {
        ACCUM.with(|a| a.borrow_mut().merge(&snap));
    }
}

/// Take (and reset) the metrics accumulated over all runs since the last
/// call — one figure's worth when called once per figure.
pub fn take_metrics() -> MetricsSnapshot {
    ACCUM.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Which side of a comparison to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// "Physical grid": direct hosts, identity clock.
    Physical,
    /// The MicroGrid: paced hosts, rate-scaled clock.
    MicroGrid,
}

impl Mode {
    /// Both sides, physical first.
    pub fn both() -> [Mode; 2] {
        [Mode::Physical, Mode::MicroGrid]
    }
}

fn build(config: GridConfig, mode: Mode) -> VirtualGrid {
    match mode {
        Mode::Physical => VirtualGrid::build_baseline(config).expect("valid config"),
        Mode::MicroGrid => VirtualGrid::build(config).expect("valid config"),
    }
}

/// Run one NPB benchmark on `config` in `mode`; returns rank 0's result.
pub fn run_npb(config: GridConfig, mode: Mode, bench: NpbBenchmark, class: NpbClass) -> NpbResult {
    run_npb_on_hosts(config, mode, bench, class, None)
}

/// As [`run_npb`], with an explicit host subset (e.g. the 2+2 vBNS
/// placement uses all four hosts, but callers may restrict).
pub fn run_npb_on_hosts(
    config: GridConfig,
    mode: Mode,
    bench: NpbBenchmark,
    class: NpbClass,
    hosts: Option<Vec<String>>,
) -> NpbResult {
    let mut sim = Simulation::new(config.seed ^ 0x5eed);
    let results = sim.block_on(async move {
        let grid = build(config, mode);
        let hosts = hosts.unwrap_or_else(|| grid.host_names());
        grid.mpirun(&hosts, MpiParams::default(), move |comm| {
            Box::pin(npb::run(bench, comm, class, None)) as Pin<Box<dyn Future<Output = NpbResult>>>
        })
        .await
    });
    note_run(&sim);
    results.into_iter().next().expect("rank 0 result")
}

/// Run an NPB benchmark with Autopilot sensors attached to rank 0 and a
/// 1-virtual-second sampling period; returns (result, counter trace).
pub fn run_npb_with_sensors(
    config: GridConfig,
    mode: Mode,
    bench: NpbBenchmark,
    class: NpbClass,
    trace_horizon: SimDuration,
) -> (NpbResult, Vec<(f64, f64)>) {
    let mut sim = Simulation::new(config.seed ^ 0xaa);
    let out = sim.block_on(async move {
        let grid = build(config, mode);
        let ap = Autopilot::new();
        let counter = ap.sensor("counter");
        ap.start_sampling(grid.clock(), SimDuration::from_secs(1), trace_horizon);
        let hosts = grid.host_names();
        let results = grid
            .mpirun(&hosts, MpiParams::default(), move |comm| {
                let sensors = if comm.rank() == 0 {
                    Some(NpbSensors {
                        counter: counter.clone(),
                    })
                } else {
                    None
                };
                Box::pin(npb::run(bench, comm, class, sensors))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await;
        let result = results.into_iter().next().expect("rank 0 result");
        (result, ap.trace("counter"))
    });
    note_run(&sim);
    out
}

/// Run CACTUS WaveToy; returns rank 0's result.
pub fn run_wavetoy(config: GridConfig, mode: Mode, wt: WaveToyConfig) -> WaveToyResult {
    let mut sim = Simulation::new(config.seed ^ 0xcac);
    let results = sim.block_on(async move {
        let grid = build(config, mode);
        let hosts = grid.host_names();
        grid.mpirun(&hosts, MpiParams::default(), move |comm| {
            Box::pin(microgrid::apps::wavetoy::run(comm, wt, None))
                as Pin<Box<dyn Future<Output = WaveToyResult>>>
        })
        .await
    });
    note_run(&sim);
    results.into_iter().next().expect("rank 0 result")
}

/// Fast mode shrinks long experiments (set `MGRID_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("MGRID_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Worker threads for parallel figure regeneration: `MGRID_REPRO_THREADS`
/// if set (minimum 1), otherwise the machine's available parallelism.
pub fn repro_threads() -> usize {
    if let Ok(v) = std::env::var("MGRID_REPRO_THREADS") {
        return v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one worker pool: run independent `jobs` on `workers` scoped
/// threads and hand each result to `each` on the calling thread, in
/// submission order, as soon as it and all its predecessors are done.
///
/// `workers` is taken as given — not clamped to the machine's
/// parallelism, so a 1-core box still exercises the threaded path;
/// callers pass [`repro_threads`]-derived values. Jobs are claimed from
/// a shared queue for load balance; they are mutually independent and
/// individually deterministic, so placement cannot affect any result.
/// With one worker (or one job) everything runs inline on the calling
/// thread. A panicking job's panic resumes on the caller once the
/// remaining workers have drained the queue.
pub fn run_jobs_each<R, F>(workers: usize, jobs: Vec<F>, mut each: impl FnMut(R))
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        jobs.into_iter().for_each(|job| each(job()));
        return;
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, queue) = (tx.clone(), &queue);
                scope.spawn(move || loop {
                    // The guard is a temporary of this statement: the
                    // lock covers the claim, never the job.
                    let claimed = queue.lock().expect("no job runs under the lock").next();
                    let Some((i, job)) = claimed else { break };
                    if tx.send((i, job())).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        // Reorder buffer: results land in completion order.
        let mut pending = BTreeMap::new();
        let mut next = 0usize;
        for (i, result) in rx {
            pending.insert(i, result);
            while let Some(result) = pending.remove(&next) {
                each(result);
                next += 1;
            }
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Give this thread's later [`run_scenarios`] calls `workers` pool
/// workers. `repro` passes each figure worker its share of the
/// `MGRID_REPRO_THREADS` budget and `chaos` the whole budget; tests
/// leave the default of 1, a serial sweep.
pub fn set_scenario_workers(workers: usize) {
    SCENARIO_WORKERS.with(|w| w.set(workers));
}

/// A type-erased independent scenario of one figure.
pub type Scenario<R> = Box<dyn FnOnce() -> R + Send>;

/// Run one figure's independent scenarios on the pool
/// ([`run_jobs_each`]) with this thread's [`set_scenario_workers`] share.
///
/// Results come back in submission order and each scenario is a
/// self-contained deterministic simulation, so the figure is
/// byte-identical at every worker count. Each scenario's metrics are
/// taken on the thread that ran it and folded into this thread's
/// accumulator; [`MetricsSnapshot::merge`] is commutative and
/// associative, so the merged figure snapshot is count-invariant too.
pub fn run_scenarios<R: Send>(jobs: Vec<Scenario<R>>) -> Vec<R> {
    let jobs: Vec<_> = jobs
        .into_iter()
        .map(|job| move || (job(), take_metrics()))
        .collect();
    let mut out = Vec::with_capacity(jobs.len());
    run_jobs_each(SCENARIO_WORKERS.with(Cell::get), jobs, |(result, snap)| {
        ACCUM.with(|a| a.borrow_mut().merge(&snap));
        out.push(result);
    });
    out
}

/// Class A normally, class S in fast mode.
pub fn class_for_run() -> NpbClass {
    if fast_mode() {
        NpbClass::S
    } else {
        NpbClass::A
    }
}

/// Mean and standard deviation of a sample.
pub fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stddev_basic() {
        let (m, s) = mean_stddev(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
    }

    /// The property every figure relies on: the same scenarios run
    /// inline, and through the pool on 1, 2 and 4 workers (not clamped
    /// to the machine, so this is real on a 1-core box), give the same
    /// results in submission order and the same merged metrics.
    #[test]
    fn job_pool_is_byte_identical_to_sequential() {
        const CASES: [(u64, NpbBenchmark); 6] = [
            (7, NpbBenchmark::IS),
            (7, NpbBenchmark::EP),
            (11, NpbBenchmark::MG),
            (13, NpbBenchmark::IS),
            (17, NpbBenchmark::EP),
            (19, NpbBenchmark::MG),
        ];
        fn scenario(seed: u64, bench: NpbBenchmark) -> String {
            let mut config = microgrid::presets::alpha_cluster();
            config.seed = seed;
            format!("{:?}", run_npb(config, Mode::MicroGrid, bench, NpbClass::S))
        }
        fn digest(results: Vec<String>) -> (Vec<String>, String) {
            let merged = take_metrics();
            assert!(!merged.is_empty(), "scenarios recorded no metrics");
            let merged = serde_json::to_string(&merged).expect("snapshot serializes");
            (results, merged)
        }

        let _ = take_metrics();
        let inline = digest(CASES.iter().map(|&(s, b)| scenario(s, b)).collect());
        for workers in [1, 2, 4] {
            set_scenario_workers(workers);
            let jobs = CASES
                .iter()
                .map(|&(s, b)| Box::new(move || scenario(s, b)) as Scenario<String>)
                .collect();
            assert_eq!(
                inline,
                digest(run_scenarios(jobs)),
                "{workers}-worker pool diverged from inline"
            );
        }
        set_scenario_workers(1);

        // Sensitivity: every scenario digest is distinct, so the
        // equalities above compare real per-scenario output.
        let distinct: std::collections::BTreeSet<&String> = inline.0.iter().collect();
        assert_eq!(distinct.len(), CASES.len(), "scenario digests collide");
    }

    #[test]
    fn panicking_job_reaches_the_caller_after_earlier_results() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 0),
            Box::new(|| panic!("job 1 failed")),
            Box::new(|| 2),
            Box::new(|| 3),
        ];
        let mut delivered = Vec::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs_each(2, jobs, |r| delivered.push(r));
        }));
        let panic = caught.expect_err("the job's panic must propagate");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job 1 failed"));
        // In-order delivery stops at the gap the failed job left.
        assert_eq!(delivered, vec![0]);
    }

    #[test]
    fn npb_runner_runs_both_modes() {
        for mode in Mode::both() {
            let r = run_npb(
                microgrid::presets::alpha_cluster(),
                mode,
                NpbBenchmark::IS,
                NpbClass::S,
            );
            assert!(r.verified, "{mode:?}: {r:?}");
        }
    }
}
