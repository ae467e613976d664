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
//! Every simulation is single-threaded and self-contained, so whole
//! figures — and the independent scenarios inside one — run in parallel
//! on the worker pool ([`run_jobs_each`]). The `MGRID_REPRO_THREADS`
//! budget (default: available parallelism) is split as
//! `F = min(threads, figures selected)` figure workers, each with
//! `threads / F` scenario workers. Output stays byte-identical
//! to a serial run: the pool hands finished figures to the main thread
//! in canonical figure order (per-figure wall times vary with load,
//! nothing else does).

use std::io::Write;

use mgrid_bench::runner::{
    fast_mode, figures, repro_threads, run_jobs_each, set_scenario_workers, take_metrics, Figure,
};
use microgrid::desim::MetricsSnapshot;
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
    if mode != Mode::Print && fast_mode() {
        eprintln!(
            "--check/--bless need full-scale runs: {TRACKED_DIR}/ holds those (unset MGRID_FAST)"
        );
        std::process::exit(2);
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    if fast_mode() {
        outln!("(MGRID_FAST=1: shrunken experiment parameters)\n");
    }
    let selected: Vec<Figure> = figs
        .into_iter()
        .filter(|f| all || wanted.iter().any(|w| w == f.id))
        .collect();
    // Split the thread budget: figures first, the rest to the scenarios
    // inside each figure.
    let threads = repro_threads();
    let figure_workers = threads.min(selected.len()).max(1);
    let scenario_workers = threads / figure_workers;
    if mode == Mode::Print && figure_workers > 1 {
        outln!(
            "(regenerating {} figures on {figure_workers} threads)\n",
            selected.len()
        );
    }

    struct Done {
        report: Report,
        metrics: MetricsSnapshot,
        secs: f64,
    }

    // A figure's simulations stay on its worker (or on that worker's own
    // scenario workers, which hand their metrics back), so the runner's
    // thread-local accumulator holds exactly that figure's runs.
    let jobs: Vec<_> = selected
        .iter()
        .map(|f| {
            move || {
                set_scenario_workers(scenario_workers);
                let t0 = std::time::Instant::now();
                let report = (f.run)();
                let secs = t0.elapsed().as_secs_f64();
                Done {
                    report,
                    metrics: take_metrics(),
                    secs,
                }
            }
        })
        .collect();
    let mut mismatches = 0usize;
    run_jobs_each(figure_workers, jobs, |mut done: Done| match mode {
        Mode::Print => {
            done.report.attach_metrics(done.metrics.clone());
            emit_figure(&done.report, &done.metrics, done.secs, &json_dir);
        }
        Mode::Check => mismatches += usize::from(!check_figure(&done.report)),
        Mode::Bless => {
            let path = format!("{TRACKED_DIR}/{}.json", done.report.id);
            std::fs::write(&path, tracked_json(&done.report)).expect("write tracked file");
            outln!("blessed {path}");
        }
    });
    if mismatches > 0 {
        eprintln!(
            "check FAILED: {mismatches} figure(s) differ from {TRACKED_DIR}/; \
             inspect, then `repro --bless` if intended"
        );
        std::process::exit(1);
    }
}

/// Print one regenerated figure and, if requested, write its JSON files.
fn emit_figure(report: &Report, metrics: &MetricsSnapshot, secs: f64, json_dir: &Option<String>) {
    let id = &report.id;
    outln!("{}", report.to_table());
    outln!("({id} regenerated in {secs:.1}s wall)\n");
    if let Some(dir) = json_dir {
        let path = format!("{dir}/{id}.json");
        let mut file = std::fs::File::create(&path).expect("create report file");
        file.write_all(report.to_json().as_bytes())
            .expect("write report");
        outln!("wrote {path}");
        if !metrics.is_empty() {
            let mpath = format!("{dir}/{id}.metrics.json");
            let mut mfile = std::fs::File::create(&mpath).expect("create metrics file");
            mfile
                .write_all(
                    serde_json::to_string_pretty(metrics)
                        .expect("metrics serialize")
                        .as_bytes(),
                )
                .expect("write metrics");
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
