//! `mgrid` — run Grid workloads on virtual Grids from the command line.
//!
//! ```text
//! mgrid presets                          # list built-in configurations
//! mgrid dump alpha_cluster > grid.json   # write a preset's JSON
//! mgrid validate grid.json               # check a configuration
//! mgrid rate grid.json                   # show the coordinator's plan
//! mgrid run grid.json MG S               # NPB MG class S on the MicroGrid
//! mgrid run grid.json MG S --baseline    # ... on the physical baseline
//! mgrid run grid.json wavetoy 50         # CACTUS WaveToy, 50^3 grid
//! mgrid run grid.json MG S --trace-out trace.jsonl    # + JSON-lines trace
//! mgrid run grid.json MG S --profile-out trace.json   # + Perfetto export
//! ```
//!
//! Every `run` prints a per-category metrics summary (scheduler quanta,
//! network traffic, vsocket and MPI activity) after the result line.
//! `--trace-out <path>` additionally enables the typed-event tracer and
//! streams one JSON object per line to the file as events are recorded;
//! `--trace-cap <n>` bounds the in-memory ring (default 65536, oldest
//! evicted first — evictions show up as the `trace.dropped` counter in
//! the summary, but every event still reaches the stream).
//!
//! `--profile-out <path>` enables causal span recording and, after the
//! run, prints the virtual-time profiler attribution table and the
//! critical-path report, then writes a Chrome trace-event JSON file
//! loadable at <https://ui.perfetto.dev> (see `docs/OBSERVABILITY.md`).

use std::future::Future;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass};
use microgrid::apps::wavetoy::{self, WaveToyConfig};
use microgrid::desim::metrics::MetricsSnapshot;
use microgrid::desim::obs::Obs;
use microgrid::desim::trace::TraceEvent;
use microgrid::desim::{perfetto, profile, Simulation, SpanSnapshot};
use microgrid::mpi::{Comm, MpiParams};
use microgrid::{out, outln, plan_rate, presets, GridConfig, VirtualGrid};

fn load_config(path_or_preset: &str) -> GridConfig {
    if let Some(c) = presets::by_name(path_or_preset) {
        return c;
    }
    let text = std::fs::read_to_string(path_or_preset).unwrap_or_else(|e| {
        eprintln!("cannot read {path_or_preset}: {e}");
        std::process::exit(2);
    });
    GridConfig::from_json(&text).unwrap_or_else(|e| {
        eprintln!("invalid configuration {path_or_preset}: {e}");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: mgrid <command>\n\
         \x20 presets\n\
         \x20 dump <preset>\n\
         \x20 validate <config.json|preset>\n\
         \x20 rate <config.json|preset>\n\
         \x20 run <config.json|preset> <EP|BT|LU|MG|IS> <S|A> [--baseline]\n\
         \x20 run <config.json|preset> wavetoy <grid-edge> [--baseline]\n\
         \x20 run options: --trace-out <path> [--trace-cap <n>] --profile-out <path>"
    );
    std::process::exit(2);
}

/// Observability options of `mgrid run`.
#[derive(Clone)]
struct ObsOpts {
    trace_out: Option<String>,
    trace_cap: usize,
    profile_out: Option<String>,
}

/// Strip `--trace-out`/`--trace-cap`/`--profile-out` from `args`,
/// returning the rest.
fn parse_obs_opts(args: &[String]) -> (Vec<String>, ObsOpts) {
    let mut rest = Vec::new();
    let mut opts = ObsOpts {
        trace_out: None,
        trace_cap: 65536,
        profile_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                let Some(path) = args.get(i + 1) else { usage() };
                opts.trace_out = Some(path.clone());
                i += 2;
            }
            "--trace-cap" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    usage()
                };
                opts.trace_cap = n;
                i += 2;
            }
            "--profile-out" => {
                let Some(path) = args.get(i + 1) else { usage() };
                opts.profile_out = Some(path.clone());
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    (rest, opts)
}

/// Everything the observability layer recorded, snapshotted at the
/// instant the root workload completed (and the [`Obs`] was sealed).
struct ObsCapture {
    metrics: MetricsSnapshot,
    spans: SpanSnapshot,
    events: Vec<TraceEvent>,
    streamed: u64,
    dropped: u64,
    sink_error: Option<String>,
}

/// Seal the observability layer and snapshot it. Called as the root
/// workload's final act, while still inside the simulation: sealing
/// first stops the tracer (flushing the stream sink) and the span store,
/// so nothing recorded after this instant — by tasks still ready in the
/// root's final event batch — can reach the capture.
fn capture_obs(obs: &Obs, opts: &ObsOpts) -> ObsCapture {
    obs.seal();
    let tracer = obs.tracer();
    let dropped = tracer.dropped();
    if dropped > 0 || opts.trace_out.is_some() {
        obs.metrics().count("trace.dropped", dropped);
    }
    for (kind, n) in tracer.kind_counts() {
        obs.metrics().count(&format!("trace.events.{kind}"), n);
    }
    let spans = obs.spans().snapshot();
    if opts.profile_out.is_some() {
        obs.metrics().count("trace.spans", spans.spans.len() as u64);
        if spans.dropped > 0 {
            obs.metrics().count("trace.spans_dropped", spans.dropped);
        }
    }
    ObsCapture {
        metrics: obs.metrics().snapshot(),
        events: tracer.events(),
        streamed: tracer.streamed(),
        dropped,
        sink_error: tracer.sink_error(),
        spans,
    }
}

/// Build `config` (as the physical baseline or the MicroGrid) and run
/// `body` on every virtual host to completion under the observability
/// options. Returns the per-rank results and the sealed observability
/// capture.
fn execute<R: 'static, Fut: Future<Output = R> + 'static>(
    config: GridConfig,
    baseline: bool,
    opts: &ObsOpts,
    body: impl Fn(Comm) -> Fut + 'static,
) -> (Vec<R>, ObsCapture) {
    let mut sim = Simulation::new(config.seed);
    let obs = sim.obs().clone();
    if let Some(path) = &opts.trace_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        obs.enable_tracing(opts.trace_cap);
        obs.tracer()
            .set_sink(Box::new(std::io::BufWriter::new(file)));
    }
    if opts.profile_out.is_some() {
        obs.enable_spans();
    }
    let opts = opts.clone();
    sim.block_on(async move {
        // The grid is a temporary of this statement: it is gone, as the
        // workload is, before the capture.
        let results = build(config, baseline)
            .mpirun_all(MpiParams::default(), body)
            .await;
        (results, capture_obs(&obs, &opts))
    })
}

/// After a run: report the trace stream, print the profiler attribution
/// and critical-path tables plus write the Perfetto export (when
/// profiling), and print the metrics summary.
fn report_run(capture: &ObsCapture, opts: &ObsOpts) {
    if let Some(path) = &opts.trace_out {
        if let Some(e) = &capture.sink_error {
            eprintln!("trace stream to {path} failed: {e}");
            std::process::exit(1);
        }
        outln!(
            "trace: {} events streamed to {path} ({} dropped from ring)",
            capture.streamed,
            capture.dropped
        );
    }
    if let Some(path) = &opts.profile_out {
        let prof = profile::Profile::from_snapshot(&capture.spans);
        outln!("-- profile --");
        out!("{}", prof.to_table());
        let cp = profile::critical_path(&capture.spans);
        outln!("-- critical path --");
        out!("{}", cp.to_table());
        // `export_to` hands the file 64 KB at a time, so the document is
        // never held in memory and the file needs no `BufWriter`.
        let written = std::fs::File::create(path)
            .and_then(|mut file| perfetto::export_to(&capture.spans, &capture.events, &mut file));
        if let Err(e) = written {
            eprintln!("cannot write profile to {path}: {e}");
            std::process::exit(1);
        }
        let (spans, bytes) = (capture.spans.spans.len(), capture.spans.spans.heap_bytes());
        outln!(
            "profile: {spans} spans, {} flows written to {path}; span table {} KB ({} bytes/span)",
            capture.spans.flows.len(),
            bytes / 1024,
            bytes.div_ceil(spans.max(1)),
        );
    }
    if !capture.metrics.is_empty() {
        outln!("-- metrics --");
        out!("{}", capture.metrics.to_table());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("presets") => {
            for (name, _) in presets::NAMED {
                outln!("{name}");
            }
        }
        Some("dump") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let Some(c) = presets::by_name(name) else {
                eprintln!("unknown preset {name:?} (try `mgrid presets`)");
                std::process::exit(2);
            };
            outln!("{}", c.to_json());
        }
        Some("validate") => {
            let config = load_config(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            // `plan_rate` validates, then checks what depends on the rate
            // it chooses: `ok` means `run` can build this grid.
            match plan_rate(&config) {
                Ok(_) => outln!(
                    "ok: {} ({} virtual hosts)",
                    config.name,
                    config.virtual_hosts.len()
                ),
                Err(e) => {
                    eprintln!("invalid: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("rate") => {
            let config = load_config(args.get(1).map(String::as_str).unwrap_or_else(|| usage()));
            match plan_rate(&config) {
                Ok(plan) => {
                    outln!("feasible rate bound: {:.4}", plan.feasible);
                    outln!("chosen rate:         {:.4}", plan.chosen);
                    for (host, bound) in &plan.cpu_bounds {
                        outln!("  {host}: <= {bound:.4}");
                    }
                }
                Err(e) => {
                    eprintln!("infeasible: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("run") => run_cmd(&args[1..]),
        _ => usage(),
    }
}

/// What `mgrid run` was asked to run.
enum App {
    WaveToy(u32),
    Npb(NpbBenchmark, NpbClass),
}

fn run_cmd(args: &[String]) {
    let (args, obs_opts) = parse_obs_opts(args);
    let baseline = args.iter().any(|a| a == "--baseline");
    let positional: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--baseline")
        .collect();
    // Exactly `<config> <app> <class|edge>`. A missing or unknown class, a
    // missing, non-numeric or zero edge and an argument `run` does not know
    // are usage errors: not a silent class S, a 50^3 run, an empty grid
    // that "verifies", or a `--basline` that runs the MicroGrid.
    let &[config, app, size] = positional.as_slice() else {
        usage()
    };
    let name = app.to_ascii_uppercase();
    let app = if name == "WAVETOY" {
        match size.parse() {
            Ok(edge) if edge > 0 => App::WaveToy(edge),
            _ => usage(),
        }
    } else {
        let bench = match name.as_str() {
            "EP" => NpbBenchmark::EP,
            "BT" => NpbBenchmark::BT,
            "LU" => NpbBenchmark::LU,
            "MG" => NpbBenchmark::MG,
            "IS" => NpbBenchmark::IS,
            other => {
                eprintln!("unknown application {other:?}");
                std::process::exit(2);
            }
        };
        let class = match size {
            "S" | "s" => NpbClass::S,
            "A" | "a" => NpbClass::A,
            _ => usage(),
        };
        App::Npb(bench, class)
    };
    let config = load_config(config);
    let mode = if baseline {
        "physical baseline"
    } else {
        "MicroGrid"
    };
    outln!("running {name} on '{}' ({mode})", config.name);

    let capture = match app {
        App::WaveToy(grid_edge) => {
            let wt = WaveToyConfig {
                grid_edge,
                steps: 100,
            };
            let body = move |comm| wavetoy::run(comm, wt, None);
            let (results, capture) = execute(config, baseline, &obs_opts, body);
            let r = &results[0];
            outln!(
                "wavetoy {}^3: {:.3} virtual s, energy drift {:.4}, verified {}",
                r.grid_edge,
                r.virtual_seconds,
                r.energy_drift,
                r.verified
            );
            capture
        }
        App::Npb(bench, class) => {
            let body = move |comm| npb::run(bench, comm, class, None);
            let (results, capture) = execute(config, baseline, &obs_opts, body);
            let r = &results[0];
            outln!(
                "{} class {}: {:.3} virtual s on {} ranks, verified {}",
                r.benchmark,
                r.class.name(),
                r.virtual_seconds,
                r.ranks,
                r.verified
            );
            capture
        }
    };
    report_run(&capture, &obs_opts);
}

fn build(config: GridConfig, baseline: bool) -> VirtualGrid {
    let result = if baseline {
        VirtualGrid::build_baseline(config)
    } else {
        VirtualGrid::build(config)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot build grid: {e}");
        std::process::exit(1);
    })
}
