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

use mgrid_bench::experiments::chaos;
use mgrid_bench::runner::{repro_threads, run_scenarios, set_scenario_workers, Scenario as Job};
use microgrid::{outln, Report};

const TRACKED: &str = "results/chaos.json";

struct Scenario {
    id: &'static str,
    run: fn() -> Report,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            id: "chaos-wan",
            run: chaos::chaos_wan,
        },
        Scenario {
            id: "chaos-crash",
            run: chaos::chaos_crash,
        },
    ]
}

fn main() {
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

    // Each scenario runs twice; the four runs share the whole
    // MGRID_REPRO_THREADS budget on the pool. Scenarios are self-contained
    // simulations, so the tracked output is byte-identical at any count.
    set_scenario_workers(repro_threads());
    let mut jobs: Vec<Job<Report>> = Vec::new();
    for s in scenarios() {
        for pass in 1..=2 {
            eprintln!("scenario {} (run {pass}/2) ...", s.id);
            let run = s.run;
            jobs.push(Box::new(run));
        }
    }
    let mut runs = run_scenarios(jobs).into_iter();
    let mut reports = Vec::new();
    for s in scenarios() {
        let first = runs.next().expect("first run");
        let second = runs.next().expect("second run");
        let (a, b) = (first.to_json(), second.to_json());
        if a != b {
            eprintln!("FAIL: scenario {} diverged between same-seed runs", s.id);
            std::process::exit(1);
        }
        outln!("{}", first.to_table());
        outln!("determinism: double run byte-identical ({} bytes)", a.len());
        reports.push(first);
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
