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
//! `run` is the [`Scenario`] a figure job runs, seed included, so `mgrid
//! run alpha_cluster EP A` prints the MicroGrid cell of fig10's `EP
//! (Alpha_Cluster)` row and `--baseline` its physical cell.
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

use std::fs::File;

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::apps::WaveToyConfig;
use microgrid::desim::{perfetto, profile};
use microgrid::{
    out, outln, plan_rate, presets, App, AppResult, GridConfig, Mode, Observe, Outcome, Scenario,
};

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

/// Create an output file before the run, so a bad path costs no
/// simulation.
fn create(path: &str, what: &str) -> File {
    File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {what} {path}: {e}");
        std::process::exit(2);
    })
}

/// After a run: report the trace stream, print the profiler attribution
/// and critical-path tables plus write the Perfetto export (when
/// profiling), and print the metrics summary.
fn report_run<T>(outcome: &Outcome<T>, trace_out: Option<&str>, profile: Option<(&str, File)>) {
    let capture = &outcome.capture;
    if let Some(path) = trace_out {
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
    if let Some((path, mut file)) = profile {
        let prof = profile::Profile::from_snapshot(&capture.spans);
        outln!("-- profile --");
        out!("{}", prof.to_table());
        let cp = profile::critical_path(&capture.spans);
        outln!("-- critical path --");
        out!("{}", cp.to_table());
        // `export_to` hands the file 64 KB at a time, so the document is
        // never held in memory and the file needs no `BufWriter`.
        if let Err(e) = perfetto::export_to(&capture.spans, &capture.events, &mut file) {
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
    if !outcome.metrics.is_empty() {
        outln!("-- metrics --");
        out!("{}", outcome.metrics.to_table());
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

fn run_cmd(args: &[String]) {
    let (mut baseline, mut positional) = (false, Vec::new());
    let (mut trace_out, mut trace_cap, mut profile_out) = (None, None, None);
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg {
            "--baseline" => baseline = true,
            "--trace-out" => trace_out = Some(value()),
            "--trace-cap" => trace_cap = Some(value().parse().unwrap_or_else(|_| usage())),
            "--profile-out" => profile_out = Some(value()),
            _ => positional.push(arg),
        }
    }
    // Exactly `<config> <app> <class|edge>`. A missing or unknown class, a
    // missing, non-numeric or zero edge, an argument `run` does not know
    // and a ring capacity with no trace are usage errors: not a silent
    // class S, a 50^3 run, an empty grid that "verifies", a `--basline`
    // that runs the MicroGrid or a `--trace-cap` that does nothing.
    let &[config, app, size] = positional.as_slice() else {
        usage()
    };
    if trace_cap.is_some() && trace_out.is_none() {
        usage()
    }
    let name = app.to_ascii_uppercase();
    let app = if name == "WAVETOY" {
        match size.parse() {
            Ok(grid_edge) if grid_edge > 0 => App::WaveToy(WaveToyConfig {
                grid_edge,
                steps: 100,
            }),
            _ => usage(),
        }
    } else {
        let Some(bench) = NpbBenchmark::all().into_iter().find(|b| b.name() == name) else {
            eprintln!("unknown application {name:?}");
            std::process::exit(2);
        };
        let class = match size {
            "S" | "s" => NpbClass::S,
            "A" | "a" => NpbClass::A,
            _ => usage(),
        };
        App::Npb(bench, class)
    };
    let config = load_config(config);
    let (mode, side) = if baseline {
        (Mode::Physical, "physical baseline")
    } else {
        (Mode::MicroGrid, "MicroGrid")
    };
    let trace = trace_out.map(|path| {
        let sink = std::io::BufWriter::new(create(path, "trace file"));
        (trace_cap.unwrap_or(65536), Box::new(sink) as Box<_>)
    });
    let profile = profile_out.map(|path| (path, create(path, "profile file")));
    outln!("running {name} on '{}' ({side})", config.name);

    let spans = profile.is_some();
    let outcome = Scenario {
        observe: Observe { trace, spans },
        ..Scenario::new(config, mode, app)
    }
    .run()
    .unwrap_or_else(|e| {
        eprintln!("cannot build grid: {e}");
        std::process::exit(1);
    });
    match &outcome.output[0] {
        AppResult::WaveToy(r) => outln!(
            "wavetoy {}^3: {:.3} virtual s, energy drift {:.4}, verified {}",
            r.grid_edge,
            r.virtual_seconds,
            r.energy_drift,
            r.verified
        ),
        AppResult::Npb(r) | AppResult::Sensed(r, _) => outln!(
            "{} class {}: {:.3} virtual s on {} ranks, verified {}",
            r.benchmark,
            r.class.name(),
            r.virtual_seconds,
            r.ranks,
            r.verified
        ),
    }
    report_run(&outcome, trace_out, profile);
}
