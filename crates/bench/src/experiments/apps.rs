//! Application-level regenerators: Fig 16 (CACTUS WaveToy) and Fig 17
//! (Autopilot internal validation).

use microgrid::apps::npb::NpbBenchmark;
use microgrid::apps::{rms_skew_percent, WaveToyConfig};
use microgrid::desim::time::SimDuration;
use microgrid::{presets, App, AppResult, ComparisonRow, Mode, Report, Scenario, Series};

use crate::runner::{class_for_run, fast_mode, run, seconds, Plan};

/// [`run`] for an [`App::NpbSensors`] job that insists the run verified:
/// rank 0's virtual seconds and counter trace.
fn sensed(scenario: Scenario) -> (f64, Vec<(f64, f64)>) {
    match run(scenario).output.swap_remove(0) {
        AppResult::Sensed(r, trace) if r.verified => (r.virtual_seconds, trace),
        other => panic!("verification failed: {other:?}"),
    }
}

/// Fig 16: CACTUS WaveToy on the physical cluster vs the MicroGrid model
/// of it, grid sizes 50 and 250.
pub fn fig16_cactus() -> Plan {
    let mut configs = vec![WaveToyConfig::small()];
    if !fast_mode() {
        configs.push(WaveToyConfig::large());
    }
    let mut jobs = Vec::new();
    for &wt in &configs {
        for mode in [Mode::Physical, Mode::MicroGrid] {
            let scenario = Scenario::new(presets::alpha_cluster(), mode, App::WaveToy(wt));
            jobs.push(move || seconds(scenario));
        }
    }
    Plan::new(jobs, move |secs| {
        let mut rep = Report::new("fig16", "CACTUS WaveToy: physical vs MicroGrid");
        for (wt, pair) in configs.iter().zip(secs.chunks(2)) {
            rep.rows.push(ComparisonRow {
                label: format!("WaveToy {}^3", wt.grid_edge),
                physical_seconds: pair[0],
                microgrid_seconds: pair[1],
            });
        }
        rep.notes.push("paper: matches within 5-7%".into());
        rep
    })
}

/// Fig 17: Autopilot counter traces on the physical system and inside a
/// 4%-CPU MicroGrid; skew is the RMS percentage difference per sample.
pub fn fig17_autopilot() -> Plan {
    const BENCHES: [NpbBenchmark; 3] = [NpbBenchmark::EP, NpbBenchmark::BT, NpbBenchmark::MG];
    let class = class_for_run();
    // Long enough to cover any class A run at 1 sample per virtual second.
    let horizon = SimDuration::from_secs(600);
    let mut jobs = Vec::new();
    for bench in BENCHES {
        for (mode, config) in [
            (Mode::Physical, presets::alpha_cluster()),
            (Mode::MicroGrid, presets::fig17_cluster()),
        ] {
            let scenario = Scenario::new(config, mode, App::NpbSensors(bench, class, horizon));
            jobs.push(move || sensed(scenario));
        }
    }
    Plan::new(jobs, move |runs| {
        let mut rep = Report::new(
            "fig17",
            format!(
                "Autopilot internal validation (class {}, MicroGrid at 4% CPU)",
                class.name()
            ),
        );
        for (bench, pair) in BENCHES.iter().zip(runs.chunks(2)) {
            let ((physical, ptrace), (microgrid, mtrace)) = (&pair[0], &pair[1]);
            let n = ptrace.len().min(mtrace.len());
            rep.series.push(Series {
                label: format!("{} skew%", bench.name()),
                points: vec![
                    (
                        "rms_skew_percent".into(),
                        rms_skew_percent(&ptrace[..n], &mtrace[..n]),
                    ),
                    ("samples".into(), n as f64),
                    ("physical_seconds".into(), *physical),
                    ("microgrid_seconds".into(), *microgrid),
                ],
            });
        }
        rep.notes
            .push("paper skews: EP 3.08%, BT 2.02%, MG 8.33%".into());
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use microgrid::apps::npb::NpbClass;

    #[test]
    fn wavetoy_small_matches_within_15pct() {
        let wt = WaveToyConfig::small();
        let wavetoy = |mode| {
            seconds(Scenario::new(
                presets::alpha_cluster(),
                mode,
                App::WaveToy(wt),
            ))
        };
        let (phys, mgrid) = (wavetoy(Mode::Physical), wavetoy(Mode::MicroGrid));
        let err = (mgrid - phys).abs() / phys;
        // Grid 50 has ~8ms steps: neighbor stall-phase mismatch costs a
        // couple of ms per step at fraction 0.9 (the paper's Fig 16
        // headline 5-7% is dominated by the 250^3 case, which tracks far
        // tighter — see fig16 in EXPERIMENTS.md).
        assert!(
            err < 0.15,
            "WaveToy mismatch {:.1}%: {phys:.3} vs {mgrid:.3}",
            err * 100.0
        );
    }

    #[test]
    fn autopilot_traces_follow_each_other() {
        let app = App::NpbSensors(NpbBenchmark::EP, NpbClass::S, SimDuration::from_secs(60));
        let (_, pt) = sensed(Scenario::new(presets::alpha_cluster(), Mode::Physical, app));
        let (_, mt) = sensed(Scenario::new(
            presets::fig17_cluster(),
            Mode::MicroGrid,
            app,
        ));
        assert!(pt.len() >= 5, "physical trace too short: {}", pt.len());
        assert!(mt.len() >= 5, "microgrid trace too short: {}", mt.len());
        let n = pt.len().min(mt.len());
        let skew = rms_skew_percent(&pt[..n], &mt[..n]);
        assert!(skew < 25.0, "EP-S trace skew {skew}%");
    }
}
