//! `benchmark compare A.json B.json`: apply the benchmark's bounds to two
//! result files (A is the reference, B the candidate).
//!
//! * An end-to-end metric regresses when B's median is worse than A's by
//!   more than its bound: the relative bound of `BENCHMARK.json` or the
//!   absolute floor below, whichever is larger.
//! * When A's own run-to-run spread exceeds the bound, a metric that did
//!   not regress is *unresolved*, not unchanged — unless every run of B
//!   reads better than every run of A.
//! * Exact metrics (counts and ratios of counts) and
//!   `ops_failed / ops_total` must be identical.
//! * Per-layer timings and probes carry no bound: they are listed with
//!   their change and never fail the comparison.

use crate::catalog::{self, manifest, Kind};
use crate::run::median;
use crate::suite::{ResultFile, Series};

/// Absolute floors under the relative bounds: a change smaller than this
/// is never a regression, however small the reference value.
const FLOORS: [(&str, f64); 2] = [("setup_s", 0.002), ("peak_rss_mb", 1.0)];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); the extremes when there are fewer than
/// four values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 4 {
        return (
            v.first().copied().unwrap_or(0.0),
            v.last().copied().unwrap_or(0.0),
        );
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Judge one bounded metric. `sign` is +1 when lower is better.
pub fn judge(a: &[f64], b: &[f64], bound: f64, floor: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let allowed = (bound * ma.abs()).max(floor);
    if sign * (mb - ma) > allowed {
        return Verdict::Regression;
    }
    let (q1, q3) = quartiles(a);
    if q3 - q1 <= allowed {
        return Verdict::Ok;
    }
    let best_a = a.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if b.iter().all(|x| sign * x < best_a) {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two loaded files; prints one line per metric and returns the
/// number of regressions (exact mismatches included).
pub fn compare(a: &ResultFile, b: &ResultFile, bounds: &[manifest::EndToEnd]) -> usize {
    let mut regressions = 0;
    if (a.smoke, a.seed) != (b.smoke, b.seed) {
        println!(
            "REGRESSION  files are not comparable: smoke {}/{} seed {}/{}",
            a.smoke, b.smoke, a.seed, b.seed
        );
        regressions += 1;
    }
    for (w, ra) in &a.workloads {
        let Some(rb) = b.workloads.get(w) else {
            println!("REGRESSION  {w}: missing from the second file");
            regressions += 1;
            continue;
        };
        // Failure counts per attempted operation, compared as fractions
        // so files with different repetition counts still compare.
        if ra.ops_failed * rb.ops_total != rb.ops_failed * ra.ops_total || ra.correct != rb.correct
        {
            println!(
                "REGRESSION  {w}: ops_failed/ops_total {}/{} -> {}/{}, correct {} -> {}",
                ra.ops_failed, ra.ops_total, rb.ops_failed, rb.ops_total, ra.correct, rb.correct
            );
            regressions += 1;
        }
        for (name, sa) in &ra.metrics {
            let Some(sb) = rb.metrics.get(name) else {
                println!("REGRESSION  {w} {name}: missing from the second file");
                regressions += 1;
                continue;
            };
            regressions += usize::from(!compare_metric(w, name, sa, sb, bounds));
        }
    }
    regressions
}

/// Print one metric's line; false when it regressed.
fn compare_metric(
    w: &str,
    name: &str,
    a: &Series,
    b: &Series,
    bounds: &[manifest::EndToEnd],
) -> bool {
    let (ma, mb) = (median(&a.values), median(&b.values));
    let change = if ma != 0.0 {
        (mb - ma) / ma * 100.0
    } else {
        0.0
    };
    let line = |tag: &str, note: String| {
        println!(
            "{tag:<11} {w:<12} {name:<34} {ma:>14.6} -> {mb:>14.6} {} ({change:+.2} %){note}",
            a.unit
        );
    };
    if let Some(e) = bounds.iter().find(|e| e.name == name) {
        let floor = FLOORS.iter().find(|(n, _)| *n == name).map_or(0.0, |f| f.1);
        let lower = catalog::lookup(name).is_none_or(|d| d.better == "lower");
        let verdict = judge(&a.values, &b.values, e.bound, floor, lower);
        let (q1, q3) = quartiles(&a.values);
        let note = format!(
            "  bound {:.0} %, spread {:.2} %",
            e.bound * 100.0,
            if ma != 0.0 {
                (q3 - q1) / ma * 100.0
            } else {
                0.0
            }
        );
        let tag = match verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        };
        line(tag, note);
        return verdict != Verdict::Regression;
    }
    match catalog::lookup(name).map(|d| d.kind) {
        Some(Kind::Count) => {
            let same = a.values.iter().chain(&b.values).all(|v| *v == a.values[0]);
            line(if same { "exact" } else { "REGRESSION" }, String::new());
            same
        }
        _ => {
            line("info", String::new());
            true
        }
    }
}

pub fn compare_files(a: &str, b: &str) -> i32 {
    let loaded = load(a).and_then(|fa| Ok((fa, load(b)?, manifest::load()?)));
    let (fa, fb, manifest) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let regressions = compare(&fa, &fb, &manifest.end_to_end);
    println!(
        "{regressions} regression(s); `unresolved` = the reference's own spread exceeds the bound"
    );
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(quartiles(&[2.0, 1.0]), (1.0, 2.0));
    }

    #[test]
    fn judge_applies_bound_floor_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        assert_eq!(judge(&steady, &[1.05; 5], 0.10, 0.0, true), Verdict::Ok);
        assert_eq!(
            judge(&steady, &[1.12; 5], 0.10, 0.0, true),
            Verdict::Regression
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(&steady, &[0.85; 5], 0.10, 0.0, false),
            Verdict::Regression
        );
        // 0.001 s -> 0.0025 s is +150 % but under the 2 ms floor.
        assert_eq!(
            judge(&[0.001; 5], &[0.0025; 5], 0.10, 0.002, true),
            Verdict::Ok
        );
        // A noisy reference cannot show "unchanged" ...
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(&noisy, &[1.0; 5], 0.10, 0.0, true),
            Verdict::Unresolved
        );
        // ... but a candidate that beats every reference run did improve.
        assert_eq!(judge(&noisy, &[0.7; 5], 0.10, 0.0, true), Verdict::Improved);
    }
}
