//! Shared drivers for the figure regenerators: the registry of figures,
//! the [`Plan`] each one is (independent simulation jobs plus a pure
//! fold of their results), the one job queue `repro` and `chaos` run
//! every selected plan on ([`run_plans`]), and the one way a job runs a
//! virtual Grid ([`with_grid`]). A job is one whole deterministic
//! simulation, so the thread budget has a single level and output is
//! byte-identical at any worker count.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::sync::{mpsc, Mutex};

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult, NpbSensors};
use microgrid::apps::{wavetoy, Autopilot, WaveToyConfig, WaveToyResult};
use microgrid::desim::time::SimDuration;
use microgrid::desim::{MetricsSnapshot, Simulation};
use microgrid::mpi::MpiParams;
use microgrid::{GridConfig, Report, VirtualGrid};

use crate::experiments::{apps as fig_apps, chaos, micro, network, npb as fig_npb, scale};

thread_local! {
    /// Metrics of every simulation this thread has driven since
    /// [`run_plans`]' job wrapper last took them: one job's worth.
    static ACCUM: RefCell<MetricsSnapshot> = RefCell::new(MetricsSnapshot::default());
}

/// One regenerable figure of the paper's evaluation.
pub struct Figure {
    /// Short id (`fig10`), also the stem of `results/<id>.json`.
    pub id: &'static str,
    /// One-line description for `repro --help`.
    pub what: &'static str,
    /// The figure's simulations and the fold that makes its report.
    pub plan: fn() -> Plan,
}

/// Every figure `repro` regenerates, in canonical order.
pub fn figures() -> Vec<Figure> {
    vec![
        Figure {
            id: "fig5",
            what: "memory capacity microbenchmark",
            plan: micro::fig5_memory,
        },
        Figure {
            id: "fig6",
            what: "CPU fraction fidelity under competition",
            plan: || micro::fig6_cpu(SimDuration::from_secs(if fast_mode() { 3 } else { 10 })),
        },
        Figure {
            id: "fig7",
            what: "quanta-size distribution",
            plan: || micro::fig7_quanta(if fast_mode() { 1000 } else { 9000 }),
        },
        Figure {
            id: "fig8",
            what: "network latency/bandwidth vs message size",
            plan: || network::fig8_network(if fast_mode() { 4 } else { 20 }),
        },
        Figure {
            id: "fig9",
            what: "virtual Grid configurations table",
            plan: fig_npb::fig9_configs,
        },
        Figure {
            id: "fig10",
            what: "NPB totals, physical vs MicroGrid",
            plan: fig_npb::fig10_npb,
        },
        Figure {
            id: "fig11",
            what: "scheduling-quantum sweep",
            plan: fig_npb::fig11_quanta_sweep,
        },
        Figure {
            id: "fig12",
            what: "CPU scaling at fixed slow network",
            plan: fig_npb::fig12_cpu_scaling,
        },
        Figure {
            id: "fig14",
            what: "vBNS WAN bottleneck sweep",
            plan: fig_npb::fig14_vbns,
        },
        Figure {
            id: "fig15",
            what: "emulation-rate invariance",
            plan: fig_npb::fig15_emulation_rates,
        },
        Figure {
            id: "fig16",
            what: "CACTUS WaveToy",
            plan: fig_apps::fig16_cactus,
        },
        Figure {
            id: "fig17",
            what: "Autopilot internal validation",
            plan: fig_apps::fig17_autopilot,
        },
        Figure {
            id: "scale",
            what: "simulator scalability study (extension)",
            plan: scale::scale_study,
        },
    ]
}

/// A fault-injection scenario: its id and its plan.
pub type Scenario = (&'static str, fn() -> Plan);

/// The tracked scenarios `chaos` replays, in the order of
/// `results/chaos.json`.
pub const CHAOS_SCENARIOS: [Scenario; 2] = [
    ("chaos-wan", chaos::chaos_wan),
    ("chaos-crash", chaos::chaos_crash),
];

type Erased = Box<dyn Any + Send>;

/// A figure as the queue sees it: independent jobs, each one whole
/// self-contained simulation that may run on any worker thread, and the
/// pure fold of their results (in submission order) into the report.
pub struct Plan {
    jobs: Vec<Box<dyn FnOnce() -> Erased + Send>>,
    finish: Box<dyn FnOnce(Vec<Erased>) -> Report>,
}

impl Plan {
    /// A plan whose jobs all yield an `R`. A figure that runs no
    /// simulation (fig5, fig9) has no jobs and does its work in `finish`.
    pub fn new<R, J>(jobs: Vec<J>, finish: impl FnOnce(Vec<R>) -> Report + 'static) -> Plan
    where
        R: Send + 'static,
        J: FnOnce() -> R + Send + 'static,
    {
        Plan {
            jobs: jobs
                .into_iter()
                .map(|job| Box::new(move || Box::new(job()) as Erased) as _)
                .collect(),
            finish: Box::new(move |results| {
                let typed = results.into_iter().map(|r| {
                    *r.downcast::<R>()
                        .expect("a plan's results have its jobs' type")
                });
                finish(typed.collect())
            }),
        }
    }

    /// Run the jobs one after another on this thread and fold them: the
    /// report [`run_plans`] delivers for this plan at any worker count.
    pub fn run_inline(self) -> Report {
        let mut report = None;
        run_plans(1, vec![("inline", self)], |done| report = Some(done.report));
        report.expect("one plan delivers one report")
    }
}

/// One plan's outcome, as [`run_plans`] delivers it.
pub struct Finished {
    /// The folded report, with the merged metrics of the plan's
    /// simulations attached.
    pub report: Report,
    /// Simulations the plan ran.
    pub jobs: usize,
    /// Host seconds those simulations took, summed.
    pub sim_secs: f64,
}

/// Run every job of every plan as one list, in the order given, on
/// `workers` threads ([`run_jobs_each`]), and hand each plan's
/// [`Finished`] to `each` on the calling thread, in the order given, as
/// soon as its last result (and every earlier plan's) is in.
///
/// Each job's metrics are taken on the thread that ran it and merged
/// into its plan's snapshot; [`MetricsSnapshot::merge`] is commutative
/// and associative, so that snapshot does not depend on `workers` either.
/// A panicking job (its message is on stderr by then) is re-raised as
/// `"<id>: simulation <n> of <N> panicked"`.
pub fn run_plans(workers: usize, plans: Vec<(&'static str, Plan)>, mut each: impl FnMut(Finished)) {
    let mut queue = Vec::new();
    let mut folds = VecDeque::new();
    for (id, plan) in plans {
        let of = plan.jobs.len();
        folds.push_back((of, plan.finish));
        for (n, job) in plan.jobs.into_iter().enumerate() {
            queue.push(move || {
                let t0 = std::time::Instant::now();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                    .unwrap_or_else(|_| panic!("{id}: simulation {} of {of} panicked", n + 1));
                let metrics = ACCUM.with(RefCell::take);
                (result, metrics, t0.elapsed().as_secs_f64())
            });
        }
    }
    // Results arrive in submission order, so they fill one plan at a
    // time: the first that is still short of one.
    let mut filling = (Vec::new(), MetricsSnapshot::default(), 0.0);
    let mut fold_complete = |filling: &mut (Vec<Erased>, MetricsSnapshot, f64)| {
        while folds.front().is_some_and(|(of, _)| *of == filling.0.len()) {
            let (jobs, finish) = folds.pop_front().expect("front was just seen");
            let (results, metrics, sim_secs) = std::mem::take(filling);
            let mut report = finish(results);
            report.attach_metrics(metrics);
            each(Finished {
                report,
                jobs,
                sim_secs,
            });
        }
    };
    fold_complete(&mut filling);
    run_jobs_each(workers, queue, |(result, metrics, secs)| {
        filling.0.push(result);
        filling.1.merge(&metrics);
        filling.2 += secs;
        fold_complete(&mut filling);
    });
}

/// Which side of a comparison to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// "Physical grid": direct hosts, identity clock.
    Physical,
    /// The MicroGrid: paced hosts, rate-scaled clock.
    MicroGrid,
}

/// What one simulation left behind.
pub struct Run<T> {
    /// What the body returned.
    pub output: T,
    /// Executor polls the simulation took.
    pub polls: u64,
    /// The simulation's metrics (also folded into its job's snapshot).
    pub metrics: MetricsSnapshot,
}

/// Run `body` to completion as the root task of a fresh simulation and
/// fold the simulation's metrics into this thread's job. Figs 6 and 7,
/// which model one kernel and no Grid, call this directly; everything
/// else goes through [`with_grid`].
pub fn simulate<T: 'static>(seed: u64, body: impl Future<Output = T> + 'static) -> Run<T> {
    let mut sim = Simulation::new(seed);
    let output = sim.block_on(body);
    let metrics = sim.obs().metrics().snapshot();
    ACCUM.with(|a| a.borrow_mut().merge(&metrics));
    Run {
        output,
        polls: sim.poll_count(),
        metrics,
    }
}

/// The one scenario runner: build `config` as `mode` inside a simulation
/// seeded with `seed`, run `body` on the grid, and account for the run as
/// [`simulate`] does.
pub fn with_grid<T, Fut>(
    config: GridConfig,
    mode: Mode,
    seed: u64,
    body: impl FnOnce(VirtualGrid) -> Fut + 'static,
) -> Run<T>
where
    T: 'static,
    Fut: Future<Output = T> + 'static,
{
    simulate(seed, async move {
        let grid = match mode {
            Mode::Physical => VirtualGrid::build_baseline(config),
            Mode::MicroGrid => VirtualGrid::build(config),
        };
        body(grid.expect("valid config")).await
    })
}

/// Rank 0's result of an SPMD run.
pub fn rank0<T>(results: Vec<T>) -> T {
    results.into_iter().next().expect("rank 0 result")
}

/// Run one NPB benchmark on `config` in `mode`; returns rank 0's result.
pub fn run_npb(config: GridConfig, mode: Mode, bench: NpbBenchmark, class: NpbClass) -> NpbResult {
    let seed = config.seed ^ 0x5eed;
    with_grid(config, mode, seed, move |grid| async move {
        let body = move |comm| npb::run(bench, comm, class, None);
        rank0(grid.mpirun_all(MpiParams::default(), body).await)
    })
    .output
}

/// [`run_npb`] as a job that insists the run verified and yields its
/// virtual seconds.
pub fn npb_seconds(
    config: GridConfig,
    mode: Mode,
    bench: NpbBenchmark,
    class: NpbClass,
) -> impl FnOnce() -> f64 + Send + 'static {
    move || {
        let r = run_npb(config, mode, bench, class);
        assert!(r.verified, "verification failed: {r:?}");
        r.virtual_seconds
    }
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
    let seed = config.seed ^ 0xaa;
    with_grid(config, mode, seed, move |grid| async move {
        let ap = Autopilot::new();
        let counter = ap.sensor("counter");
        ap.start_sampling(grid.clock(), SimDuration::from_secs(1), trace_horizon);
        let body = move |comm: microgrid::mpi::Comm| {
            let sensors = (comm.rank() == 0).then(|| NpbSensors {
                counter: counter.clone(),
            });
            npb::run(bench, comm, class, sensors)
        };
        let result = rank0(grid.mpirun_all(MpiParams::default(), body).await);
        (result, ap.trace("counter"))
    })
    .output
}

/// Run CACTUS WaveToy; returns rank 0's result.
pub fn run_wavetoy(config: GridConfig, mode: Mode, wt: WaveToyConfig) -> WaveToyResult {
    let seed = config.seed ^ 0xcac;
    with_grid(config, mode, seed, move |grid| async move {
        let body = move |comm| wavetoy::run(comm, wt, None);
        rank0(grid.mpirun_all(MpiParams::default(), body).await)
    })
    .output
}

/// Fast mode shrinks long experiments (set `MGRID_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("MGRID_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Worker threads for the job queue: `MGRID_REPRO_THREADS` if set
/// (minimum 1), otherwise the machine's available parallelism.
pub fn repro_threads() -> usize {
    if let Ok(v) = std::env::var("MGRID_REPRO_THREADS") {
        return v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker pool under [`run_plans`]: run independent `jobs` on
/// `workers` scoped threads and hand each result to `each` on the calling
/// thread, in submission order, as soon as it and all its predecessors
/// are done.
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

    /// A test figure: one class S run per `(seed, benchmark)` case, the
    /// report's notes their debug-printed results.
    fn digest_plan(id: &'static str, cases: &'static [(u64, NpbBenchmark)]) -> Plan {
        let jobs = cases.iter().map(|&(seed, bench)| {
            move || {
                let mut config = microgrid::presets::alpha_cluster();
                config.seed = seed;
                format!("{:?}", run_npb(config, Mode::MicroGrid, bench, NpbClass::S))
            }
        });
        Plan::new(jobs.collect(), move |digests| {
            let mut report = Report::new(id, "digests");
            report.notes = digests;
            report
        })
    }

    /// The property every figure relies on: plans flattened into one job
    /// list and run on 1, 2 and 4 workers (not clamped to the machine, so
    /// this is real on a 1-core box) give each figure the report and the
    /// merged metrics its own inline run gives, in the order submitted —
    /// a plan without jobs between two with jobs included.
    #[test]
    fn job_pool_is_byte_identical_to_sequential() {
        const A: &[(u64, NpbBenchmark)] = &[
            (7, NpbBenchmark::IS),
            (7, NpbBenchmark::EP),
            (11, NpbBenchmark::MG),
        ];
        const B: &[(u64, NpbBenchmark)] = &[
            (13, NpbBenchmark::IS),
            (17, NpbBenchmark::EP),
            (19, NpbBenchmark::MG),
        ];
        fn plans() -> Vec<(&'static str, Plan)> {
            let empty = Plan::new(Vec::<fn()>::new(), |_| Report::new("empty", "no jobs"));
            vec![
                ("a", digest_plan("a", A)),
                ("empty", empty),
                ("b", digest_plan("b", B)),
            ]
        }

        let inline: Vec<Report> = plans().into_iter().map(|(_, p)| p.run_inline()).collect();
        for (report, jobs) in inline.iter().zip([3, 0, 3]) {
            let metrics = report.metrics.as_ref().expect("metrics attached");
            assert_eq!(metrics.is_empty(), jobs == 0, "{}", report.id);
            // Sensitivity: every digest is distinct, so the equalities
            // below compare real per-simulation output.
            let distinct: std::collections::BTreeSet<&String> = report.notes.iter().collect();
            assert_eq!(distinct.len(), jobs, "{}: digests collide", report.id);
        }
        assert_ne!(inline[0].metrics, inline[2].metrics);
        let inline: Vec<String> = inline.iter().map(Report::to_json).collect();

        for workers in [1, 2, 4] {
            let mut pooled = Vec::new();
            run_plans(workers, plans(), |done| {
                assert_eq!(done.jobs, done.report.notes.len());
                pooled.push(done.report.to_json());
            });
            assert_eq!(
                inline, pooled,
                "{workers}-worker queue diverged from inline"
            );
        }
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

    /// On the flat list a failing simulation could be any figure's: the
    /// panic that reaches the caller says whose, and which.
    #[test]
    fn panicking_job_names_its_figure() {
        fn counting(id: &'static str, jobs: Vec<fn() -> u32>) -> (&'static str, Plan) {
            let finish = move |results: Vec<u32>| {
                let mut report = Report::new(id, "count");
                report.notes.push(format!("{results:?}"));
                report
            };
            (id, Plan::new(jobs, finish))
        }
        for workers in [1, 2] {
            let plans = vec![
                counting("figA", vec![|| 1, || 2]),
                counting("figB", vec![|| 3, || panic!("boom")]),
            ];
            let mut delivered = Vec::new();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_plans(workers, plans, |done| delivered.push(done.report.notes));
            }));
            let panic = caught.expect_err("the job's panic must propagate");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("figB: simulation 2 of 2 panicked")
            );
            assert_eq!(delivered, vec![vec!["[1, 2]".to_string()]]);
        }
    }

    #[test]
    fn npb_runner_runs_both_modes() {
        for mode in [Mode::Physical, Mode::MicroGrid] {
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
