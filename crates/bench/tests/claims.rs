//! The paper's fidelity claims ([`mgrid_bench::claims`]), held by name on
//! the tracked figure outputs — the same predicates `repro --check` and
//! `--bless` apply to what they regenerate. No simulation runs here.

use mgrid_bench::claims;
use microgrid::Report;

fn tracked(id: &str) -> Report {
    let path = format!("{}/../../results/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// One test per claim, named as the claim is in a `repro --check` failure.
macro_rules! holds_on_the_tracked_file {
    ($($claim:ident: $id:literal;)*) => {$(
        #[test]
        fn $claim() {
            let broken = claims::broken(&tracked($id));
            assert!(broken.is_empty(), "{broken:#?}");
        }
    )*};
}

holds_on_the_tracked_file! {
    fig5_max_allocatable_is_the_cap_less_one_kb: "fig5";
    fig6_cpu_fraction_is_linear_alone_and_saturates_under_a_cpu_hog: "fig6";
    fig7_quanta_keep_their_mean_and_competition_widens_them: "fig7";
    fig8_latency_is_flat_then_linear_and_mgrid_tracks_ethernet: "fig8";
    fig10_npb_totals_are_within_the_papers_error_bands: "fig10";
    fig11_longer_quanta_model_synchronizing_codes_worse: "fig11";
    fig14_run_time_is_mildly_sensitive_to_wan_bandwidth: "fig14";
    fig15_virtual_time_is_invariant_under_the_emulation_rate: "fig15";
    fig16_wavetoy_matches_within_the_documented_bands: "fig16";
    fig17_autopilot_skews_stay_under_ten_percent_with_mg_worst: "fig17";
}

/// Sensitivity, and what `repro --check figN` prints: one number moved in
/// a tracked report breaks that figure's claim, by the name of its test
/// above; a series gone missing breaks it too instead of passing an empty
/// loop.
#[test]
fn a_doctored_report_breaks_its_claim_by_name() {
    fn point<'a>(r: &'a mut Report, series: &str, x: &str) -> &'a mut f64 {
        let s = r.series.iter_mut().find(|s| s.label == series);
        let points = &mut s.unwrap_or_else(|| panic!("no series {series:?}")).points;
        &mut points.iter_mut().find(|(px, _)| px == x).expect("point").1
    }
    type Doctor = fn(&mut Report);
    let cases: [(&str, &str, Doctor); 12] = [
        ("fig5", "fig5_max_allocatable", |r| {
            *point(r, "max allocatable (KB) vs specified limit", "64KB") = 64.0
        }),
        ("fig6", "fig6_cpu_fraction", |r| {
            *point(r, "CPU Competition", "90%") = 85.0
        }),
        ("fig7", "fig7_quanta", |r| {
            *point(r, "IO Competition", "dev") = 0.001
        }),
        ("fig8", "fig8_latency", |r| {
            *point(r, "latency us — Mgrid", "65536B") *= 1.03
        }),
        ("fig8", "fig8_latency", |r| {
            *point(r, "bandwidth MB/s — Ethernet", "262144B") = 11.9
        }),
        ("fig10", "fig10_npb_totals", |r| {
            r.rows[2].microgrid_seconds *= 1.03
        }),
        ("fig11", "fig11_longer_quanta", |r| {
            *point(r, "MG (class S)", "slice=5ms") = 5.0
        }),
        ("fig14", "fig14_run_time", |r| {
            *point(r, "EP", "10Mb/s") *= 1.01
        }),
        ("fig15", "fig15_virtual_time", |r| {
            *point(r, "LU", "8x system") = 1.02
        }),
        ("fig16", "fig16_wavetoy", |r| {
            r.rows[1].microgrid_seconds *= 1.08
        }),
        ("fig17", "fig17_autopilot", |r| {
            *point(r, "BT skew%", "rms_skew_percent") = 9.9
        }),
        ("fig6", "fig6_cpu_fraction", |r| {
            r.series.retain(|s| s.label != "No Competition")
        }),
    ];
    for (id, claim, doctor) in cases {
        let mut report = tracked(id);
        doctor(&mut report);
        let broken = claims::broken(&report);
        assert!(!broken.is_empty(), "{id}: the doctored report passes");
        for line in &broken {
            assert!(line.starts_with(claim), "{id}: {line}");
        }
    }
    // A figure no claim is made about breaks none, whatever it holds.
    assert!(claims::broken(&Report::new("fig12", "anything")).is_empty());
}
