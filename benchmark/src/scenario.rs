//! Running one scenario: the calls `mgrid run` makes, each inside a
//! harness span, with every layer's counters read from outside at the
//! same boundaries.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::Future;
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use microgrid::apps::npb::{self, NpbResult};
use microgrid::desim::{perfetto, profile, Simulation};
use microgrid::faults::FaultKind;
use microgrid::mpi::{Comm, MpiParams};
use microgrid::{plan_rate, GridConfig, VirtualGrid};

use crate::spans::Recorder;
use crate::workloads::{App, Mode, Scenario, PULSE_MOPS, PULSE_ROUNDS};

/// Span names of the set-up phases, in call order. Their sum is `setup_s`.
pub const SETUP_PHASES: [&str; 4] = [
    "core.config_load",
    "core.validate",
    "core.plan_rate",
    "core.build",
];

/// Span names from the `mpirun_all` call to the last output, in call
/// order. Their sum is `wall_s`. The four `obs.*` phases are zero unless
/// the scenario is observed.
pub const RUN_PHASES: [&str; 6] = [
    "run",
    "obs.capture",
    "obs.profile",
    "obs.critical_path",
    "obs.perfetto_export",
    "report",
];

/// What one scenario produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub id: String,
    /// Why the scenario could not finish (panic or rejected input).
    pub error: Option<String>,
    pub verified: bool,
    /// Rank 0's virtual seconds.
    pub virtual_s: f64,
    /// Host seconds per span name ([`SETUP_PHASES`] and [`RUN_PHASES`]).
    pub phases: BTreeMap<&'static str, f64>,
    /// Exact counters read at the layer boundaries after the run.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    fn sum(&self, names: &[&str]) -> f64 {
        names.iter().filter_map(|n| self.phases.get(n)).sum()
    }

    /// Host seconds from handing over the inputs to the first `mpirun_all`.
    pub fn setup_s(&self) -> f64 {
        self.sum(&SETUP_PHASES)
    }

    /// Host seconds from the `mpirun_all` call to the last output.
    pub fn wall_s(&self) -> f64 {
        self.sum(&RUN_PHASES)
    }

    /// Virtual seconds as the expected-values file stores them.
    pub fn virtual_s_text(&self) -> String {
        format!("{:.9}", self.virtual_s)
    }
}

/// A trace sink that counts bytes and keeps nothing, so the cost measured
/// is the tracer's serialisation, not a disk.
struct CountingSink(Rc<Cell<u64>>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Rank 0's view of a finished application.
struct AppResult {
    virtual_s: f64,
    verified: bool,
    summary: String,
}

/// `wide_setup`'s body (see [`App::Pulse`]). Verified when every
/// allreduce returned the rank count.
async fn pulse(comm: Comm) -> AppResult {
    let t0 = comm.ctx().gettimeofday();
    let mut verified = true;
    for _ in 0..PULSE_ROUNDS {
        comm.ctx().compute_mops(PULSE_MOPS).await;
        let sum = comm.allreduce(1u64, 8, |a, b| a + b).await;
        verified &= sum == Ok(comm.size() as u64);
    }
    let virtual_s = comm.ctx().gettimeofday().saturating_since(t0).as_secs_f64();
    AppResult {
        virtual_s,
        verified,
        summary: format!("pulse x{PULSE_ROUNDS} on {} ranks", comm.size()),
    }
}

/// What the root future hands back across `block_on`. It times its own
/// phases: the set-up/run boundary (end of build, start of `mpirun_all`)
/// lies inside it.
struct RunOutput {
    build: Duration,
    run: Duration,
    capture_time: Duration,
    app: AppResult,
    retransmit_rounds: u64,
    gis_records: u64,
    /// Sealed span and event capture (observed scenarios only).
    capture: Option<(
        microgrid::desim::SpanSnapshot,
        Vec<microgrid::desim::TraceEvent>,
    )>,
}

/// Run one scenario. Never panics: a panic inside the program, or an
/// input it rejects, comes back as [`Outcome::error`].
pub fn run_scenario(s: &Scenario, rec: &Recorder) -> Outcome {
    rec.set_scenario(&s.id);
    let whole = rec.begin("scenario");
    let mut out = Outcome {
        id: s.id.clone(),
        ..Outcome::default()
    };
    let result = catch_unwind(AssertUnwindSafe(|| execute(s, rec, &mut out)));
    rec.end(whole);
    match result {
        Ok(Ok(())) => {}
        Ok(Err(why)) => out.error = Some(why),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            out.error = Some(format!("panicked: {msg}"));
        }
    }
    out
}

/// The program's counters by the names the benchmark reports them under.
const COUNTERS: [(&str, &str); 16] = [
    ("desim.timers_purged", "desim.timers_purged"),
    ("hostsim.quanta", "sched.quanta"),
    ("hostsim.mem_allocs", "mem.allocs"),
    ("netsim.packets_tx", "net.packets_tx"),
    ("netsim.bytes_tx", "net.bytes_tx"),
    ("netsim.drops", "net.drops"),
    ("netsim.stalls", "net.stalls"),
    ("netsim.route_src_computed", "net.route_src_computed"),
    ("netsim.route_cache_hits", "net.route_cache_hits"),
    ("netsim.route_cache_misses", "net.route_cache_misses"),
    ("middleware.vsock_sends", "vsock.sends"),
    ("middleware.vsock_bytes_sent", "vsock.bytes_sent"),
    ("middleware.vsock_bytes_recvd", "vsock.bytes_recvd"),
    ("middleware.vsock_retries", "vsock.retries"),
    ("middleware.vsock_send_failures", "vsock.send_failures"),
    ("mpi.collectives", "mpi.collectives"),
];

/// Run `f` inside the harness span `name` and book its duration.
fn phase<T>(rec: &Recorder, out: &mut Outcome, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, d) = rec.span(name, f);
    out.phases.insert(name, d.as_secs_f64());
    value
}

fn execute(s: &Scenario, rec: &Recorder, out: &mut Outcome) -> Result<(), String> {
    // Set-up: the program is handed its inputs here.
    let config = phase(rec, out, "core.config_load", || {
        GridConfig::from_json(&s.config_json)
    })
    .map_err(|e| format!("config rejected: {e}"))?;
    phase(rec, out, "core.validate", || config.validate())
        .map_err(|e| format!("config invalid: {e}"))?;
    let plan = phase(rec, out, "core.plan_rate", || plan_rate(&config))
        .map_err(|e| format!("rate infeasible: {e}"))?;
    black_box(plan);

    let link_downs_planned: Vec<_> = config
        .faults
        .iter()
        .flat_map(|p| &p.events)
        .filter(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
        .map(|e| e.at)
        .collect();

    // Seeded as `mgrid_bench::runner::run_npb` seeds it, so seed 0
    // reproduces the tracked figure rows.
    let mut sim = Simulation::new(config.seed ^ 0x5eed);
    let obs = sim.obs().clone();
    let trace_bytes = Rc::new(Cell::new(0u64));
    if s.observed {
        obs.enable_spans();
        obs.enable_tracing(65536);
        obs.tracer()
            .set_sink(Box::new(CountingSink(trace_bytes.clone())));
    }

    let (mode, app, class, observed) = (s.mode, s.app, s.class, s.observed);
    let (rec2, obs2) = (rec.clone(), obs.clone());
    let output = sim.block_on(async move {
        let open = rec2.begin("core.build");
        let grid = match mode {
            Mode::Physical => VirtualGrid::build_baseline(config),
            Mode::MicroGrid => VirtualGrid::build(config),
        };
        let build = rec2.end(open);
        let grid = grid.map_err(|e| format!("cannot build grid: {e}"))?;

        let open = rec2.begin("run");
        let ranks: Vec<AppResult> = match app {
            App::Npb(bench) => grid
                .mpirun_all(MpiParams::default(), move |comm| {
                    Box::pin(npb::run(bench, comm, class, None))
                        as Pin<Box<dyn Future<Output = NpbResult>>>
                })
                .await
                .into_iter()
                .map(|r| AppResult {
                    virtual_s: r.virtual_seconds,
                    verified: r.verified,
                    summary: format!(
                        "{} class {} on {} ranks",
                        r.benchmark,
                        r.class.name(),
                        r.ranks
                    ),
                })
                .collect(),
            App::Pulse => grid.mpirun_all(MpiParams::default(), pulse).await,
        };
        let run = rec2.end(open);

        let open = rec2.begin("obs.capture");
        let capture = observed.then(|| {
            obs2.seal();
            (obs2.spans().snapshot(), obs2.tracer().events())
        });
        let capture_time = rec2.end(open);

        Ok::<_, String>(RunOutput {
            build,
            run,
            capture_time,
            app: ranks.into_iter().next().ok_or("no rank 0 result")?,
            retransmit_rounds: grid.network().stats().retransmit_rounds,
            gis_records: grid.gis().borrow().len() as u64,
            capture,
        })
    })?;
    for (name, d) in [
        ("core.build", output.build),
        ("run", output.run),
        ("obs.capture", output.capture_time),
    ] {
        out.phases.insert(name, d.as_secs_f64());
    }

    if let Some((spans, events)) = &output.capture {
        let tables = (
            phase(rec, out, "obs.profile", || {
                profile::Profile::from_snapshot(spans).to_table()
            }),
            phase(rec, out, "obs.critical_path", || {
                profile::critical_path(spans).to_table()
            }),
        );
        black_box(tables);
        let json = phase(rec, out, "obs.perfetto_export", || {
            perfetto::export(spans, events, &[])
        });
        let tracer = obs.tracer();
        if let Some(e) = tracer.sink_error() {
            return Err(format!("trace sink failed: {e}"));
        }
        out.counts.extend([
            ("obs.spans_recorded", spans.spans.len() as u64),
            ("obs.spans_dropped", spans.dropped),
            ("obs.flows", spans.flows.len() as u64),
            ("obs.trace_events", tracer.streamed()),
            ("obs.trace_ring_dropped", tracer.dropped()),
            ("obs.trace_bytes", trace_bytes.get()),
            ("obs.perfetto_bytes", json.len() as u64),
        ]);
    }

    // The result line and metrics table `mgrid run` prints last.
    let snap = phase(rec, out, "report", || {
        let snap = obs.metrics().snapshot();
        black_box(format!(
            "{}: {:.3} virtual s, verified {}\n{}",
            output.app.summary,
            output.app.virtual_s,
            output.app.verified,
            snap.to_table()
        ));
        snap
    });

    out.verified = output.app.verified;
    out.virtual_s = output.app.virtual_s;

    let end = sim.now();
    let mut count = |name: &'static str, n: u64| {
        out.counts.insert(name, n);
    };
    for (name, counter) in COUNTERS {
        count(name, snap.counter(counter));
    }
    count("core.config_bytes", s.config_json.len() as u64);
    count("desim.polls", sim.poll_count());
    count("netsim.retransmit_rounds", output.retransmit_rounds);
    let collective_ns = snap
        .histograms
        .iter()
        .find(|h| h.name == "mpi.collective_ns")
        .map_or(0, |h| h.sum);
    count("mpi.collective_ns", collective_ns);
    count("gis.records", output.gis_records);
    count("faults.injected", snap.counter("faults.injected"));
    // The fault bus has no per-kind counter: count the scripted outages
    // that were due before the run's last simulated instant.
    let downs = link_downs_planned
        .iter()
        .filter(|at| microgrid::desim::SimTime::ZERO + **at <= end)
        .count();
    count("faults.link_down", downs as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::scenarios;

    #[test]
    fn a_scenario_reports_phases_counts_and_a_verified_result() {
        let all = scenarios("npb_lan", 0, true).unwrap();
        let s = all.last().unwrap(); // IS, MicroGrid
        let out = run_scenario(s, &Recorder::new());
        assert_eq!(out.error, None);
        assert!(out.verified && out.virtual_s > 0.0);
        assert!(out.setup_s() > 0.0 && out.wall_s() > 0.0);
        assert!(out.counts["desim.polls"] > 0);
        assert!(out.counts["netsim.packets_tx"] > 0);
        assert!(out.counts["hostsim.quanta"] > 0);
        assert!(out.counts["gis.records"] >= 8); // 4 hosts + 4 links, and their parents
    }

    #[test]
    fn rejected_input_is_an_error_not_a_panic() {
        let mut s = scenarios("npb_lan", 0, true).unwrap().remove(0);
        s.config_json = "{ not json".into();
        let out = run_scenario(&s, &Recorder::new());
        assert!(out.error.unwrap().starts_with("config rejected"));
        assert!(!out.verified);
    }

    #[test]
    fn observed_scenario_runs_the_obs_phases_and_counts_what_it_recorded() {
        let all = scenarios("observed_lu", 0, true).unwrap();
        let s = all.iter().find(|s| s.observed).unwrap();
        let rec = Recorder::new();
        rec.set_keep(true);
        let out = run_scenario(s, &rec);
        assert_eq!(out.error, None);
        assert!(out.counts["obs.spans_recorded"] > 0);
        assert!(out.counts["obs.perfetto_bytes"] > 0);
        assert!(out.counts["obs.trace_bytes"] > 0);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        for n in SETUP_PHASES.iter().chain(RUN_PHASES.iter()) {
            assert!(names.contains(n), "missing span {n}");
        }
    }
}
