//! `chaos` — the tracked fault-injection scenarios.
//!
//! ```text
//! chaos             # run both scenarios, print tables, verify determinism
//! chaos --check     # additionally diff against results/chaos.json (CI lane)
//! chaos --bless     # rewrite results/chaos.json from this run
//! ```
//!
//! Every invocation runs each scenario **twice** and insists the two
//! serialized reports are byte-identical: scripted faults are part of
//! the simulation, so a chaotic run must be exactly as reproducible as a
//! healthy one. `--check` then compares against the tracked expected
//! output, which also pins the numbers across machines (everything in a
//! report is virtual-time; nothing depends on the host).

use mgrid_bench::runner::{run_plans, settings, CHAOS_SCENARIOS};
use microgrid::outln;

const TRACKED: &str = "results/chaos.json";

fn main() {
    let settings = settings().unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut bless = false;
    for a in &args {
        match a.as_str() {
            "--check" => check = true,
            "--bless" => bless = true,
            "--help" | "-h" => {
                outln!("usage: chaos [--check | --bless]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if check && bless {
        eprintln!("chaos: --check and --bless exclude each other");
        std::process::exit(2);
    }

    // Each scenario runs twice; the simulations of all four runs are one
    // job list on the MGRID_REPRO_THREADS workers. Every job is a
    // self-contained simulation, so the tracked output is byte-identical
    // at any count.
    let mut plans = Vec::new();
    for (id, plan) in CHAOS_SCENARIOS {
        for pass in 1..=2 {
            eprintln!("scenario {id} (run {pass}/2) ...");
            plans.push((id, plan()));
        }
    }
    let mut runs = Vec::new();
    run_plans(settings.threads(), plans, |mut done| {
        // The tracked file holds what the scenario reports, not the
        // metrics of the simulations behind it.
        done.report.metrics = None;
        runs.push(done.report);
    });
    let mut reports = Vec::new();
    for ((id, _), pair) in CHAOS_SCENARIOS.iter().zip(runs.chunks(2)) {
        let (a, b) = (pair[0].to_json(), pair[1].to_json());
        if a != b {
            eprintln!("FAIL: scenario {id} diverged between same-seed runs");
            std::process::exit(1);
        }
        outln!("{}", pair[0].to_table());
        outln!("determinism: double run byte-identical ({} bytes)", a.len());
        reports.push(&pair[0]);
    }

    let combined = serde_json::to_string_pretty(&reports).expect("reports serialize");
    if bless {
        std::fs::write(TRACKED, format!("{combined}\n")).expect("write tracked file");
        eprintln!("blessed {TRACKED}");
        return;
    }
    if check {
        let expected = std::fs::read_to_string(TRACKED).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {TRACKED}: {e} (run `chaos --bless`)");
            std::process::exit(1);
        });
        if expected.trim_end() != combined {
            eprintln!("FAIL: {TRACKED} does not match this run; inspect and re-bless if intended");
            std::process::exit(1);
        }
        outln!("check: output matches {TRACKED}");
    }
}
