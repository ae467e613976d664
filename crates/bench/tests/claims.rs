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
