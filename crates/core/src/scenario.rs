//! One way to run a simulation. `mgrid run` and every figure job build a
//! [`Scenario`], so the seed rule ([`App::salt`]) lives here once and the
//! CLI reproduces any figure cell.

use std::future::Future;
use std::io::Write;

use mgrid_apps::npb::{self, NpbBenchmark, NpbClass, NpbResult, NpbSensors};
use mgrid_apps::{wavetoy, Autopilot, WaveToyConfig, WaveToyResult};
use mgrid_desim::obs::Obs;
use mgrid_desim::time::SimDuration;
use mgrid_desim::{MetricsSnapshot, Simulation, SpanSnapshot, TraceEvent};
use mgrid_mpi::{Comm, MpiParams};

use crate::config::{ConfigError, GridConfig};
use crate::grid::VirtualGrid;

/// Which side of a comparison to build a configuration as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The "physical grid": direct hosts, identity clock
    /// ([`VirtualGrid::build_baseline`]).
    Physical,
    /// The MicroGrid: paced hosts, rate-scaled clock ([`VirtualGrid::build`]).
    MicroGrid,
}

/// A stock application, launched with one rank per virtual host.
#[derive(Clone, Copy, Debug)]
pub enum App {
    /// One of the paper's five NAS Parallel Benchmarks.
    Npb(NpbBenchmark, NpbClass),
    /// CACTUS WaveToy.
    WaveToy(WaveToyConfig),
    /// An NPB code with an Autopilot counter sensor on rank 0, sampled
    /// once per virtual second up to the given horizon (Fig 17).
    NpbSensors(NpbBenchmark, NpbClass, SimDuration),
}

impl App {
    /// What [`Scenario::new`] XORs into the configuration's seed, so each
    /// application draws its own random stream from one configuration.
    pub fn salt(self) -> u64 {
        match self {
            App::Npb(..) => 0x5eed,
            App::WaveToy(_) => 0xcac,
            App::NpbSensors(..) => 0xaa,
        }
    }

    /// Run the app on `grid` with one rank per virtual host; returns every
    /// rank's result.
    pub async fn launch(self, grid: &VirtualGrid) -> Vec<AppResult> {
        let params = MpiParams::default();
        match self {
            App::Npb(bench, class) => {
                let body = move |comm| npb::run(bench, comm, class, None);
                let ranks = grid.mpirun_all(params, body).await;
                ranks.into_iter().map(AppResult::Npb).collect()
            }
            App::WaveToy(wt) => {
                let body = move |comm| wavetoy::run(comm, wt, None);
                let ranks = grid.mpirun_all(params, body).await;
                ranks.into_iter().map(AppResult::WaveToy).collect()
            }
            App::NpbSensors(bench, class, horizon) => {
                let ap = Autopilot::new();
                let counter = ap.sensor("counter");
                ap.start_sampling(grid.network().clock(), SimDuration::from_secs(1), horizon);
                let body = move |comm: Comm| {
                    let sensors = (comm.rank() == 0).then(|| NpbSensors {
                        counter: counter.clone(),
                    });
                    npb::run(bench, comm, class, sensors)
                };
                let mut ranks = grid.mpirun_all(params, body).await.into_iter();
                let rank0 = ranks.next().expect("a grid has a virtual host");
                let rank0 = AppResult::Sensed(rank0, ap.trace("counter"));
                std::iter::once(rank0)
                    .chain(ranks.map(AppResult::Npb))
                    .collect()
            }
        }
    }
}

/// What one rank of a stock [`App`] returned.
#[derive(Debug)]
pub enum AppResult {
    /// An NPB rank.
    Npb(NpbResult),
    /// A WaveToy rank.
    WaveToy(WaveToyResult),
    /// Rank 0 of [`App::NpbSensors`]: its result and the sampled
    /// `(virtual seconds, counter)` trace.
    Sensed(NpbResult, Vec<(f64, f64)>),
}

impl AppResult {
    /// Elapsed virtual seconds, as the application measured them.
    pub fn virtual_seconds(&self) -> f64 {
        match self {
            AppResult::Npb(r) | AppResult::Sensed(r, _) => r.virtual_seconds,
            AppResult::WaveToy(r) => r.virtual_seconds,
        }
    }

    /// Whether the application's miniature real computation verified.
    pub fn verified(&self) -> bool {
        match self {
            AppResult::Npb(r) | AppResult::Sensed(r, _) => r.verified,
            AppResult::WaveToy(r) => r.verified,
        }
    }
}

/// What a run records beyond its always-on metrics.
#[derive(Default)]
pub struct Observe {
    /// Typed-event tracing: the sink every event streams to as one JSON
    /// object per line. The in-memory ring keeps the last 65,536 events.
    pub trace: Option<Box<dyn Write + Send>>,
    /// Causal span recording, for the profile, the critical path and the
    /// Perfetto export.
    pub spans: bool,
}

/// Everything the observability layer recorded besides metrics, taken
/// at the instant the root workload completed.
pub struct Capture {
    /// The causal spans (empty unless [`Observe::spans`]).
    pub spans: SpanSnapshot,
    /// The events left in the trace ring (at most 65,536), moved out of it.
    pub events: Vec<TraceEvent>,
    /// Events written to the trace sink.
    pub streamed: u64,
    /// Events evicted from the ring (every one still reached the sink).
    pub dropped: u64,
    /// The first error the trace sink returned, if any.
    pub sink_error: Option<String>,
}

/// What one run left behind.
pub struct Outcome<T> {
    /// What the body returned: for [`Scenario::run`], one result per rank.
    pub output: T,
    /// Executor polls the simulation took.
    pub polls: u64,
    /// The run's metrics, at the instant the root workload completed.
    pub metrics: MetricsSnapshot,
    /// The rest of what the observability layer recorded.
    pub capture: Capture,
}

/// One simulation: a configuration built as `mode`, `app` (if any)
/// launched on it, and the simulation seeded with `seed`.
pub struct Scenario {
    /// The virtual Grid.
    pub config: GridConfig,
    /// The physical baseline or the MicroGrid.
    pub mode: Mode,
    /// What [`Scenario::run`] launches; with none it only builds the grid.
    pub app: Option<App>,
    /// The simulation's seed.
    pub seed: u64,
    /// What is recorded beyond metrics.
    pub observe: Observe,
}

impl Scenario {
    /// `app` on `config` as `mode`, seeded with `config.seed ^ app.salt()`
    /// and observing nothing beyond metrics.
    pub fn new(config: GridConfig, mode: Mode, app: App) -> Scenario {
        let seed = config.seed ^ app.salt();
        Scenario {
            app: Some(app),
            ..Scenario::seeded(config, mode, seed)
        }
    }

    /// A scenario with no app, seeded with `seed`: for a
    /// [`Scenario::run_with`] body that is not a stock app.
    pub fn seeded(config: GridConfig, mode: Mode, seed: u64) -> Scenario {
        Scenario {
            config,
            mode,
            app: None,
            seed,
            observe: Observe::default(),
        }
    }

    /// Build the grid, launch the app ([`App::launch`]), and collect every
    /// rank's result.
    pub fn run(self) -> Result<Outcome<Vec<AppResult>>, ConfigError> {
        let app = self.app;
        self.run_with(move |grid| async move {
            match app {
                Some(app) => app.launch(&grid).await,
                None => Vec::new(),
            }
        })
    }

    /// Build the grid and run `body` on it in place of launching `app`. The
    /// grid is the body's, so it is gone before the capture.
    pub fn run_with<T, Fut>(
        self,
        body: impl FnOnce(VirtualGrid) -> Fut + 'static,
    ) -> Result<Outcome<T>, ConfigError>
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        let mut sim = Simulation::new(self.seed);
        let obs = sim.obs().clone();
        let (traced, spans) = (self.observe.trace.is_some(), self.observe.spans);
        if let Some(sink) = self.observe.trace {
            obs.enable_tracing(TRACE_RING);
            obs.tracer().set_sink(sink);
        }
        if spans {
            obs.enable_spans();
        }
        let (config, mode) = (self.config, self.mode);
        let (output, metrics, capture) = sim.block_on(async move {
            let grid = match mode {
                Mode::Physical => VirtualGrid::build_baseline(config),
                Mode::MicroGrid => VirtualGrid::build(config),
            };
            let output = body(grid?).await;
            let (metrics, capture) = capture(&obs, traced, spans);
            Ok::<_, ConfigError>((output, metrics, capture))
        })?;
        Ok(Outcome {
            output,
            polls: sim.poll_count(),
            metrics,
            capture,
        })
    }
}

/// Capacity of the trace ring of a traced run ([`Observe::trace`]).
const TRACE_RING: usize = 65536;

/// Seal the observability layer and snapshot it. Called as the root
/// workload's final act, while still inside the simulation: sealing first
/// stops the tracer (flushing the stream sink) and the span store, so
/// nothing recorded after this instant — by tasks still ready in the
/// root's final event batch — can reach the capture.
fn capture(obs: &Obs, traced: bool, spans: bool) -> (MetricsSnapshot, Capture) {
    obs.seal();
    let tracer = obs.tracer();
    let dropped = tracer.dropped();
    if dropped > 0 || traced {
        obs.metrics().count("trace.dropped", dropped);
    }
    for (kind, n) in tracer.kind_counts() {
        obs.metrics().count(&format!("trace.events.{kind}"), n);
    }
    let snapshot = obs.spans().snapshot();
    if spans {
        obs.metrics()
            .count("trace.spans", snapshot.spans.len() as u64);
        if snapshot.dropped > 0 {
            obs.metrics().count("trace.spans_dropped", snapshot.dropped);
        }
    }
    let capture = Capture {
        events: tracer.take_events(),
        streamed: tracer.streamed(),
        dropped,
        sink_error: tracer.sink_error(),
        spans: snapshot,
    };
    (obs.metrics().snapshot(), capture)
}
