//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # every figure (slow: full class A runs)
//! repro fig5 fig6 fig11     # selected figures
//! repro --json out/ fig10   # also write JSON reports into out/
//! repro --check all         # regenerate and diff against results/<id>.json
//! repro --bless fig12       # rewrite results/<id>.json from this run
//! MGRID_FAST=1 repro all    # shrunken runs (class S, fewer points)
//! MGRID_REPRO_THREADS=1 repro all   # force serial regeneration
//! ```
//!
//! Every simulation is single-threaded and self-contained, so every
//! simulation of every selected figure is one job on one list
//! ([`run_plans`]), claimed in canonical order by `MGRID_REPRO_THREADS`
//! workers (default: available parallelism; `1` runs one simulation at a
//! time). A figure is folded and printed when its last simulation and
//! every earlier figure are done, so stdout is byte-identical to a serial
//! run but for the lines that report host seconds. The last line, on
//! stderr, is the sweep's end-to-end number: simulations run, their
//! summed host seconds (more threads than cores stretch each one),
//! threads, wall seconds and the share of the thread budget that was
//! busy.
//!
//! A setting it cannot read exits 2 before anything runs: `MGRID_FAST`
//! other than `0` or `1`, or `MGRID_REPRO_THREADS` other than a whole
//! number of at least 1 (`chaos` reads both the same way).
//!
//! `--check` and `--bless` also hold each regenerated report to the
//! paper's claims ([`mgrid_bench::claims`]): a report that breaks one
//! fails the check, and is not blessed, by the claim's name.

use mgrid_bench::claims;
use mgrid_bench::runner::{figures, run_plans, settings, Finished};
use microgrid::{outln, ComparisonRow, Report, Series};
use serde::Serialize;

/// Directory of the tracked figure outputs `--check`/`--bless` use.
const TRACKED_DIR: &str = "results";

/// What to do with each regenerated figure.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Print the table (and write JSON under `--json`).
    Print,
    /// Compare against `results/<id>.json`.
    Check,
    /// Rewrite `results/<id>.json`.
    Bless,
}

/// The part of a [`Report`] that `results/<id>.json` tracks: everything
/// but the metrics snapshot.
#[derive(Serialize)]
struct Tracked {
    id: String,
    title: String,
    rows: Vec<ComparisonRow>,
    series: Vec<Series>,
    notes: Vec<String>,
}

fn tracked_json(r: &Report) -> String {
    let tracked = Tracked {
        id: r.id.clone(),
        title: r.title.clone(),
        rows: r.rows.clone(),
        series: r.series.clone(),
        notes: r.notes.clone(),
    };
    serde_json::to_string_pretty(&tracked).expect("report serializes")
}

/// One line per row, series point, title or note that differs.
fn row_diff(tracked: &Report, fresh: &Report) -> Vec<String> {
    let mut out = Vec::new();
    if tracked.title != fresh.title {
        out.push(format!(
            "title: tracked {:?}, regenerated {:?}",
            tracked.title, fresh.title
        ));
    }
    if tracked.rows.len() != fresh.rows.len() {
        out.push(format!(
            "rows: tracked {}, regenerated {}",
            tracked.rows.len(),
            fresh.rows.len()
        ));
    }
    for (t, f) in tracked.rows.iter().zip(&fresh.rows) {
        let (tv, fv) = (
            (&t.label, t.physical_seconds, t.microgrid_seconds),
            (&f.label, f.physical_seconds, f.microgrid_seconds),
        );
        if tv != fv {
            out.push(format!("row: tracked {tv:?}, regenerated {fv:?}"));
        }
    }
    if tracked.series.len() != fresh.series.len() {
        out.push(format!(
            "series: tracked {}, regenerated {}",
            tracked.series.len(),
            fresh.series.len()
        ));
    }
    for (t, f) in tracked.series.iter().zip(&fresh.series) {
        if t.label != f.label || t.points.len() != f.points.len() {
            out.push(format!(
                "series {:?} ({} points): regenerated {:?} ({} points)",
                t.label,
                t.points.len(),
                f.label,
                f.points.len()
            ));
            continue;
        }
        for (tp, fp) in t.points.iter().zip(&f.points) {
            if tp != fp {
                out.push(format!(
                    "series {:?}: tracked {tp:?}, regenerated {fp:?}",
                    t.label
                ));
            }
        }
    }
    if tracked.notes != fresh.notes {
        out.push("notes differ".into());
    }
    out
}

/// Print the claims `report` breaks, one per line; returns whether it
/// breaks none.
fn claims_hold(report: &Report) -> bool {
    let broken = claims::broken(report);
    for claim in &broken {
        outln!("{}: FAIL breaks claim {claim}", report.id);
    }
    broken.is_empty()
}

/// Compare one regenerated figure with its tracked file; prints the
/// verdict (and a row-level diff) and returns whether they match.
fn check_figure(report: &Report) -> bool {
    let id = &report.id;
    let path = format!("{TRACKED_DIR}/{id}.json");
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            outln!("{id}: FAIL cannot read {path}: {e} (run `repro --bless {id}`)");
            return false;
        }
    };
    if expected == tracked_json(report) {
        outln!("{id}: matches {path}");
        return true;
    }
    outln!("{id}: FAIL differs from {path}");
    match serde_json::from_str::<Report>(&expected) {
        Ok(tracked) => {
            let diff = row_diff(&tracked, report);
            if diff.is_empty() {
                outln!("  bytes differ, rows do not (formatting only)");
            }
            for line in diff {
                outln!("  {line}");
            }
        }
        Err(e) => outln!("  tracked file does not parse: {e}"),
    }
    false
}

const USAGE: &str = "usage: repro [--json DIR | --check | --bless] (all | figN ...)";

fn main() {
    let settings = settings().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut mode = Mode::Print;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }));
            }
            "--check" => mode = Mode::Check,
            "--bless" => mode = Mode::Bless,
            "--help" | "-h" => {
                outln!("{USAGE}");
                outln!("figures:");
                for f in figures() {
                    outln!("  {:<6} {}", f.id, f.what);
                }
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        eprintln!("{USAGE}; --help for the list");
        std::process::exit(2);
    }
    let all = wanted.iter().any(|w| w == "all");
    let figs = figures();
    let known: Vec<&str> = figs.iter().map(|f| f.id).collect();
    for w in &wanted {
        if w != "all" && !known.contains(&w.as_str()) {
            eprintln!("unknown figure {w:?}; known: {known:?}");
            std::process::exit(2);
        }
    }
    if mode != Mode::Print && settings.fast {
        eprintln!(
            "--check/--bless need full-scale runs: {TRACKED_DIR}/ holds those (unset MGRID_FAST)"
        );
        std::process::exit(2);
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    if settings.fast {
        outln!("(MGRID_FAST=1: shrunken experiment parameters)\n");
    }
    let plans: Vec<_> = figs
        .iter()
        .filter(|f| all || wanted.iter().any(|w| w == f.id))
        .map(|f| (f.id, (f.plan)()))
        .collect();
    let threads = settings.threads();
    if mode == Mode::Print && threads > 1 {
        outln!(
            "(regenerating {} figures on {threads} threads)\n",
            plans.len()
        );
    }
    let t0 = std::time::Instant::now();
    let (mut failures, mut simulations, mut sim_secs) = (0usize, 0usize, 0.0f64);
    run_plans(threads, plans, |done| {
        simulations += done.jobs;
        sim_secs += done.sim_secs;
        match mode {
            Mode::Print => emit_figure(&done, &json_dir),
            Mode::Check => {
                // Both verdicts, not the first: a byte diff and the claim
                // it broke are read together.
                let (matches, holds) = (check_figure(&done.report), claims_hold(&done.report));
                failures += usize::from(!(matches && holds));
            }
            Mode::Bless if claims_hold(&done.report) => {
                let path = format!("{TRACKED_DIR}/{}.json", done.report.id);
                std::fs::write(&path, tracked_json(&done.report)).expect("write tracked file");
                outln!("blessed {path}");
            }
            Mode::Bless => failures += 1,
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "repro: {simulations} simulations, {sim_secs:.1} simulation seconds, threads={threads}, \
         {wall:.1} s wall, {:.0} % of the thread budget busy",
        sim_secs / (wall * threads as f64) * 100.0
    );
    if failures > 0 {
        eprintln!(
            "FAILED: {failures} figure(s) differ from {TRACKED_DIR}/ or break a claim; \
             inspect, then `repro --bless` if the new bytes are intended"
        );
        std::process::exit(1);
    }
}

/// Print one regenerated figure and, if requested, write its JSON files.
fn emit_figure(done: &Finished, json_dir: &Option<String>) {
    let report = &done.report;
    let id = &report.id;
    outln!("{}", report.to_table());
    outln!(
        "({id}: {} simulations, {:.1} simulation seconds)\n",
        done.jobs,
        done.sim_secs
    );
    if let Some(dir) = json_dir {
        let path = format!("{dir}/{id}.json");
        std::fs::write(&path, report.to_json()).expect("write report");
        outln!("wrote {path}");
        if let Some(metrics) = report.metrics.as_ref().filter(|m| !m.is_empty()) {
            let mpath = format!("{dir}/{id}.metrics.json");
            let json = serde_json::to_string_pretty(metrics).expect("metrics serialize");
            std::fs::write(&mpath, json).expect("write metrics");
            outln!("wrote {mpath}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_diff_names_the_series_point_that_moved() {
        let mut tracked = Report::new("figX", "t");
        tracked.series.push(Series {
            label: "MG".into(),
            points: vec![("1x CPU".into(), 1.0), ("2x CPU".into(), 0.5)],
        });
        let mut fresh = tracked.clone();
        assert!(row_diff(&tracked, &fresh).is_empty());
        fresh.series[0].points[1].1 = 0.75;
        let diff = row_diff(&tracked, &fresh);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(
            diff[0].contains("\"MG\"") && diff[0].contains("2x CPU"),
            "{diff:?}"
        );
        assert!(
            diff[0].contains("0.5") && diff[0].contains("0.75"),
            "{diff:?}"
        );
    }
}
