//! Application-level regenerators: Fig 16 (CACTUS WaveToy) and Fig 17
//! (Autopilot internal validation).

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::apps::{rms_skew_percent, WaveToyConfig};
use microgrid::desim::time::SimDuration;
use microgrid::{presets, ComparisonRow, Report, Series};

use crate::runner::{fast_mode, run_npb_with_sensors, run_scenarios, run_wavetoy, Mode, Scenario};

/// Fig 16: CACTUS WaveToy on the physical cluster vs the MicroGrid model
/// of it, grid sizes 50 and 250.
pub fn fig16_cactus() -> Report {
    let mut rep = Report::new("fig16", "CACTUS WaveToy: physical vs MicroGrid");
    let configs = if fast_mode() {
        vec![WaveToyConfig::small()]
    } else {
        vec![WaveToyConfig::small(), WaveToyConfig::large()]
    };
    for wt in configs {
        let phys = run_wavetoy(presets::alpha_cluster(), Mode::Physical, wt);
        let mgrid = run_wavetoy(presets::alpha_cluster(), Mode::MicroGrid, wt);
        assert!(
            phys.verified && mgrid.verified,
            "WaveToy verification failed"
        );
        rep.rows.push(ComparisonRow {
            label: format!("WaveToy {}^3", wt.grid_edge),
            physical_seconds: phys.virtual_seconds,
            microgrid_seconds: mgrid.virtual_seconds,
        });
    }
    rep.notes.push("paper: matches within 5-7%".into());
    rep
}

/// Fig 17: Autopilot counter traces on the physical system and inside a
/// 4%-CPU MicroGrid; skew is the RMS percentage difference per sample.
pub fn fig17_autopilot() -> Report {
    let class = if fast_mode() {
        NpbClass::S
    } else {
        NpbClass::A
    };
    let mut rep = Report::new(
        "fig17",
        format!(
            "Autopilot internal validation (class {}, MicroGrid at 4% CPU)",
            class.name()
        ),
    );
    // Long enough to cover any class A run at 1 sample per virtual second.
    let horizon = SimDuration::from_secs(600);
    // Each benchmark's physical/MicroGrid pair is an independent
    // scenario for the pool, with byte-identical series.
    let jobs: Vec<Scenario<Series>> = [NpbBenchmark::EP, NpbBenchmark::BT, NpbBenchmark::MG]
        .into_iter()
        .map(|bench| {
            Box::new(move || {
                let (pr, ptrace) = run_npb_with_sensors(
                    presets::alpha_cluster(),
                    Mode::Physical,
                    bench,
                    class,
                    horizon,
                );
                let (mr, mtrace) = run_npb_with_sensors(
                    presets::fig17_cluster(),
                    Mode::MicroGrid,
                    bench,
                    class,
                    horizon,
                );
                assert!(pr.verified && mr.verified);
                let n = ptrace.len().min(mtrace.len());
                let skew = rms_skew_percent(&ptrace[..n], &mtrace[..n]);
                Series {
                    label: format!("{} skew%", bench.name()),
                    points: vec![
                        ("rms_skew_percent".into(), skew),
                        ("samples".into(), n as f64),
                        ("physical_seconds".into(), pr.virtual_seconds),
                        ("microgrid_seconds".into(), mr.virtual_seconds),
                    ],
                }
            }) as Scenario<Series>
        })
        .collect();
    rep.series = run_scenarios(jobs);
    rep.notes
        .push("paper skews: EP 3.08%, BT 2.02%, MG 8.33%".into());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_wavetoy;

    #[test]
    fn wavetoy_small_matches_within_15pct() {
        let wt = WaveToyConfig::small();
        let phys = run_wavetoy(presets::alpha_cluster(), Mode::Physical, wt);
        let mgrid = run_wavetoy(presets::alpha_cluster(), Mode::MicroGrid, wt);
        assert!(phys.verified && mgrid.verified);
        let err = (mgrid.virtual_seconds - phys.virtual_seconds).abs() / phys.virtual_seconds;
        // Grid 50 has ~8ms steps: neighbor stall-phase mismatch costs a
        // couple of ms per step at fraction 0.9 (the paper's Fig 16
        // headline 5-7% is dominated by the 250^3 case, which tracks far
        // tighter — see fig16 in EXPERIMENTS.md).
        assert!(
            err < 0.15,
            "WaveToy mismatch {:.1}%: {:.3} vs {:.3}",
            err * 100.0,
            phys.virtual_seconds,
            mgrid.virtual_seconds
        );
    }

    #[test]
    fn autopilot_traces_follow_each_other() {
        let horizon = SimDuration::from_secs(60);
        let (pr, pt) = run_npb_with_sensors(
            presets::alpha_cluster(),
            Mode::Physical,
            NpbBenchmark::EP,
            NpbClass::S,
            horizon,
        );
        let (mr, mt) = run_npb_with_sensors(
            presets::fig17_cluster(),
            Mode::MicroGrid,
            NpbBenchmark::EP,
            NpbClass::S,
            horizon,
        );
        assert!(pr.verified && mr.verified);
        assert!(pt.len() >= 5, "physical trace too short: {}", pt.len());
        assert!(mt.len() >= 5, "microgrid trace too short: {}", mt.len());
        let n = pt.len().min(mt.len());
        let skew = rms_skew_percent(&pt[..n], &mt[..n]);
        assert!(skew < 25.0, "EP-S trace skew {skew}%");
    }
}
