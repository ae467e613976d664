//! The paper's fidelity claims, asserted by name on the tracked figure
//! outputs. `repro --check` pins the bytes of `results/*.json`; these say
//! why the bytes are right, so a re-bless that breaks fidelity fails with
//! the claim it broke. No simulation runs here.

use microgrid::Report;

fn tracked(id: &str) -> Report {
    let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Fig 10: MicroGrid totals match the physical runs within 2 % for
/// IS/LU/MG and within 4 % for EP/BT, on both clusters.
#[test]
fn fig10_npb_totals_are_within_the_papers_error_bands() {
    let report = tracked("fig10");
    for cluster in ["Alpha_Cluster", "HPVM"] {
        for (bench, bound) in [
            ("IS", 2.0),
            ("LU", 2.0),
            ("MG", 2.0),
            ("EP", 4.0),
            ("BT", 4.0),
        ] {
            let label = format!("{bench} ({cluster})");
            let row = report
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("fig10 has no row {label:?}"));
            let err = row.error_percent().abs();
            assert!(err < bound, "{label}: error {err:.3} %, claim < {bound} %");
        }
    }
}

/// Fig 15: virtual run time normalised to the 1x rate stays within the
/// paper's 0.85-1.05 band at 2x, 4x and 8x; our own reproduction drifts
/// by no more than 1 %.
#[test]
fn fig15_virtual_time_is_invariant_under_the_emulation_rate() {
    let report = tracked("fig15");
    assert!(!report.series.is_empty(), "fig15 has no series");
    for series in &report.series {
        for rate in ["2x system", "4x system", "8x system"] {
            let (_, norm) = series
                .points
                .iter()
                .find(|(x, _)| x == rate)
                .unwrap_or_else(|| panic!("fig15 {} has no point {rate:?}", series.label));
            let what = format!(
                "{} at {rate}: normalised virtual time {norm:.4}",
                series.label
            );
            assert!((0.85..=1.05).contains(norm), "{what}, paper band 0.85-1.05");
            assert!((norm - 1.0).abs() <= 0.01, "{what}, own drift bound 1 %");
        }
    }
}

fn series<'a>(report: &'a Report, label: &str) -> &'a [(String, f64)] {
    &report
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{} has no series {label:?}", report.id))
        .points
}

/// An x label such as `"40%"` or `"128KB"` as its number.
fn x_value(label: &str, unit: &str) -> f64 {
    label
        .strip_suffix(unit)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("x label {label:?} is not a number of {unit}"))
}

/// Fig 5: a process can allocate its virtual host's memory limit less
/// the 1 KB of per-process overhead, at every limit from 1 KB to 1 MB.
#[test]
fn fig5_max_allocatable_is_the_cap_less_one_kb() {
    let report = tracked("fig5");
    let points = series(&report, "max allocatable (KB) vs specified limit");
    assert!(points.len() >= 11, "fig5 has {} points", points.len());
    for (limit, allocatable) in points {
        let cap_kb = x_value(limit, "KB");
        assert_eq!(*allocatable, cap_kb - 1.0, "limit {limit}");
    }
}

/// Fig 6: alone, a virtual host is delivered its specified CPU fraction
/// within one point at every step; against a CPU hog it is delivered the
/// same up to 40 % and then saturates at the fair share, 45-52 %, for
/// every specified fraction of 60 % and above.
#[test]
fn fig6_cpu_fraction_is_linear_alone_and_saturates_under_a_cpu_hog() {
    let report = tracked("fig6");
    let alone = series(&report, "No Competition");
    assert_eq!(alone.len(), 10, "fig6 steps");
    for (specified, delivered) in alone {
        let want = x_value(specified, "%");
        assert!(
            (delivered - want).abs() <= 1.0,
            "alone at {specified}: delivered {delivered:.2} %"
        );
    }
    let hog = series(&report, "CPU Competition");
    assert_eq!(hog.len(), 10, "fig6 steps");
    for (specified, delivered) in hog {
        let want = x_value(specified, "%");
        if want <= 40.0 {
            assert!(
                (delivered - want).abs() <= 1.0,
                "CPU hog at {specified}: delivered {delivered:.2} %"
            );
        } else if want >= 60.0 {
            assert!(
                (45.0..=52.0).contains(delivered),
                "CPU hog at {specified}: delivered {delivered:.2} %, fair share is 45-52 %"
            );
        }
    }
}

/// Fig 14: over the 62x range of WAN bottleneck bandwidth (622 Mb/s to
/// 10 Mb/s) no code's run time moves by more than 10 %, and EP's by no
/// more than 0.1 %: latency, not bandwidth, is what the WAN costs.
#[test]
fn fig14_run_time_is_mildly_sensitive_to_wan_bandwidth() {
    let report = tracked("fig14");
    assert!(report.series.len() >= 4, "fig14 codes");
    for code in &report.series {
        let labels: Vec<&str> = code.points.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(labels, ["622Mb/s", "155Mb/s", "10Mb/s"], "{}", code.label);
        let times = code.points.iter().map(|(_, t)| *t);
        let fastest = times.clone().fold(f64::INFINITY, f64::min);
        let slowest = times.fold(0.0, f64::max);
        let moved = (slowest / fastest - 1.0) * 100.0;
        let bound = if code.label == "EP" { 0.1 } else { 10.0 };
        assert!(
            moved <= bound,
            "{}: {moved:.3} % between 622 and 10 Mb/s, claim <= {bound} %",
            code.label
        );
    }
}
