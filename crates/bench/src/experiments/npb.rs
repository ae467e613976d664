//! NPB figure regenerators: Fig 9 (configurations), Fig 10 (class A
//! totals), Fig 11 (quantum sweep), Fig 12 (CPU scaling), Fig 14 (vBNS
//! bandwidth sweep), Fig 15 (emulation-rate sweep).

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::desim::time::SimDuration;
use microgrid::{presets, App, ComparisonRow, GridConfig, Mode, Report, Scenario, Series};

use crate::runner::{class_for_run, seconds, Plan};

/// Fig 9: the two virtual Grid configurations studied.
pub fn fig9_configs() -> Plan {
    Plan::new(Vec::<fn()>::new(), |_| {
        let mut rep = Report::new("fig9", "Virtual Grid configurations studied");
        for config in [presets::alpha_cluster(), presets::hpvm_cluster()] {
            let v = &config.virtual_hosts[0].spec;
            let l = &config.network.links[0];
            rep.notes.push(format!(
                "{}: {} procs, {} Mops each, {} Mb/s network ({} us links)",
                config.name,
                config.virtual_hosts.len(),
                v.speed_mops,
                l.bandwidth_bps / 1e6,
                l.delay.as_micros(),
            ));
        }
        rep
    })
}

/// The benchmark set of Figs 11/12/14/15; Fig 10 adds IS.
const SWEEP_BENCHES: [NpbBenchmark; 4] = [
    NpbBenchmark::EP,
    NpbBenchmark::BT,
    NpbBenchmark::LU,
    NpbBenchmark::MG,
];

/// Fig 10: NPB total run times, physical vs MicroGrid, on the Alpha
/// cluster and the HPVM configuration.
pub fn fig10_npb() -> Plan {
    let class = class_for_run();
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for config in [presets::alpha_cluster(), presets::hpvm_cluster()] {
        for bench in SWEEP_BENCHES.into_iter().chain([NpbBenchmark::IS]) {
            labels.push(format!("{} ({})", bench.name(), config.name));
            for mode in [Mode::Physical, Mode::MicroGrid] {
                let scenario = Scenario::new(config.clone(), mode, App::Npb(bench, class));
                jobs.push(move || seconds(scenario));
            }
        }
    }
    Plan::new(jobs, move |secs| {
        let mut rep = Report::new(
            "fig10",
            format!("NPB class {} totals: physical vs MicroGrid", class.name()),
        );
        rep.rows = labels
            .into_iter()
            .zip(secs.chunks(2))
            .map(|(label, pair)| ComparisonRow {
                label,
                physical_seconds: pair[0],
                microgrid_seconds: pair[1],
            })
            .collect();
        rep.notes
            .push("paper: IS/LU/MG within 2%, EP/BT within 4%".into());
        rep
    })
}

/// The shape Figs 11, 12, 14 and 15 share: each of [`SWEEP_BENCHES`] run
/// at every `(x label, mode, configuration)` point, one series per
/// benchmark (labelled `<name><suffix>`) added to `rep`. With `normalize`
/// a series is divided by its first point.
fn sweep(
    mut rep: Report,
    class: NpbClass,
    suffix: &'static str,
    normalize: bool,
    points: Vec<(String, Mode, GridConfig)>,
) -> Plan {
    let mut jobs = Vec::new();
    for bench in SWEEP_BENCHES {
        for (_, mode, config) in &points {
            let scenario = Scenario::new(config.clone(), *mode, App::Npb(bench, class));
            jobs.push(move || seconds(scenario));
        }
    }
    Plan::new(jobs, move |secs| {
        for (bench, secs) in SWEEP_BENCHES.iter().zip(secs.chunks(points.len())) {
            let base = if normalize { secs[0] } else { 1.0 };
            rep.series.push(Series {
                label: format!("{}{suffix}", bench.name()),
                points: points
                    .iter()
                    .zip(secs)
                    .map(|((x, ..), s)| (x.clone(), s / base))
                    .collect(),
            });
        }
        rep
    })
}

/// Fig 11: the effect of the scheduling quantum on modeling accuracy
/// (class S, quanta 2.5/5/10/30 ms).
pub fn fig11_quanta_sweep() -> Plan {
    let mut rep = Report::new(
        "fig11",
        "Scheduling-quantum sweep vs physical (NPB class S)",
    );
    rep.notes.push(
        "paper: frequently-synchronizing codes match better with shorter quanta; best \
         matches 12%/0.6%/0.4%/1.3% for MG/BT/LU/EP"
            .into(),
    );
    let mut points = vec![(
        "physical".to_string(),
        Mode::Physical,
        presets::alpha_cluster(),
    )];
    for q in [2_500u64, 5_000, 10_000, 30_000] {
        // The quantum effect shows on a shared deployment (fraction
        // 0.5), where stall windows are quantum-sized.
        let mut config = presets::alpha_cluster_shared();
        config.quantum = SimDuration::from_micros(q);
        let x = format!("slice={}ms", q as f64 / 1000.0);
        points.push((x, Mode::MicroGrid, config));
    }
    sweep(rep, NpbClass::S, " (class S)", false, points)
}

/// Fig 12: total run times varying only the virtual CPU (1x..8x), network
/// pinned to 1 Mb/s / 50 ms. Values are normalized to the 1x run.
pub fn fig12_cpu_scaling() -> Plan {
    let class = class_for_run();
    let mut rep = Report::new(
        "fig12",
        format!(
            "CPU scaling at fixed 1 Mb/s / 50 ms network (class {})",
            class.name()
        ),
    );
    rep.notes.push(
        "paper: significant speedups from CPU alone; EP scales nearly ideally, the \
         others partially (communication share is fixed)"
            .into(),
    );
    let points = [1.0, 2.0, 4.0, 8.0].map(|mult| {
        let config = presets::cpu_scaled_cluster(mult);
        (format!("{mult}x CPU"), Mode::MicroGrid, config)
    });
    sweep(rep, class, "", true, points.into())
}

/// Fig 14: NPB over the vBNS coupled-cluster testbed, bottleneck at
/// 622/155/10 Mb/s.
pub fn fig14_vbns() -> Plan {
    let mut rep = Report::new(
        "fig14",
        "NPB over the vBNS distributed cluster, varying the WAN bottleneck (class S)",
    );
    rep.notes.push(
        "paper: performance only mildly sensitive to WAN bandwidth — latency \
         dominates for all but EP (class not stated in the paper; we use S)"
            .into(),
    );
    let points = [622e6, 155e6, 10e6].map(|bw| {
        let x = format!("{:.0}Mb/s", bw / 1e6);
        (x, Mode::MicroGrid, presets::vbns_grid(bw))
    });
    sweep(rep, NpbClass::S, "", false, points.into())
}

/// Fig 15: identical virtual results across emulation rates (1x..8x
/// system speed). Values are virtual run times normalized to the 1x run.
pub fn fig15_emulation_rates() -> Plan {
    let mut rep = Report::new(
        "fig15",
        "Virtual run time across emulation rates (normalized, class S)",
    );
    rep.notes.push(
        "paper: normalized run times stay ~1.0 (0.85-1.05) across an order of \
         magnitude of emulation speed"
            .into(),
    );
    let points = [1.0, 2.0, 4.0, 8.0].map(|k| {
        let config = presets::emulation_rate_cluster(k);
        (format!("{k}x system"), Mode::MicroGrid, config)
    });
    // Class S on both paths: the rate-invariance property is independent
    // of problem size and class A adds nothing but wall time here.
    sweep(rep, NpbClass::S, "", true, points.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_plans;

    /// Rank 0's virtual seconds of `bench` class S on `config` as `mode`.
    fn secs(config: GridConfig, mode: Mode, bench: NpbBenchmark) -> f64 {
        seconds(Scenario::new(config, mode, App::Npb(bench, NpbClass::S)))
    }

    #[test]
    fn fig9_lists_both_configs() {
        let mut reps = Vec::new();
        run_plans(1, vec![("fig9", fig9_configs())], |done| {
            reps.push(done.report)
        });
        let rep = &reps[0];
        assert_eq!(rep.notes.len(), 2);
        assert!(rep.notes[0].contains("Alpha_Cluster"));
        assert!(rep.notes[1].contains("HPVM"));
    }

    /// One full Fig 10-style comparison at class S: the MicroGrid must
    /// track the physical run within a few percent for a coarse (EP) and
    /// a fine-grained (MG) code.
    #[test]
    fn class_s_comparisons_track() {
        for bench in [NpbBenchmark::EP, NpbBenchmark::MG] {
            let phys = secs(presets::alpha_cluster(), Mode::Physical, bench);
            let mgrid = secs(presets::alpha_cluster(), Mode::MicroGrid, bench);
            let err = (mgrid - phys).abs() / phys;
            assert!(
                err < 0.12,
                "{}: phys {phys:.3} vs mgrid {mgrid:.3} ({:.1}%)",
                bench.name(),
                err * 100.0
            );
        }
    }

    /// Fig 11 mechanism: for the finest-grained code (LU class S) a 30 ms
    /// quantum must model worse than a 2.5 ms quantum.
    #[test]
    fn larger_quantum_models_worse_for_lu() {
        let phys = secs(presets::alpha_cluster(), Mode::Physical, NpbBenchmark::LU);
        let err = |q_us: u64| {
            let mut c = presets::alpha_cluster_shared();
            c.quantum = SimDuration::from_micros(q_us);
            (secs(c, Mode::MicroGrid, NpbBenchmark::LU) - phys).abs() / phys
        };
        let small = err(2_500);
        let large = err(30_000);
        assert!(
            large > small,
            "LU quantum sensitivity: err(2.5ms)={small:.3} err(30ms)={large:.3}"
        );
    }

    /// Fig 12 mechanism: EP speeds up nearly ideally with CPU speed.
    #[test]
    fn ep_scales_with_cpu() {
        let ep = |mult| {
            secs(
                presets::cpu_scaled_cluster(mult),
                Mode::MicroGrid,
                NpbBenchmark::EP,
            )
        };
        let ratio = ep(4.0) / ep(1.0);
        assert!(
            (0.2..0.35).contains(&ratio),
            "EP 4x ratio {ratio} (ideal 0.25)"
        );
    }

    /// Fig 15 mechanism: virtual results are rate-invariant.
    #[test]
    fn emulation_rate_invariance() {
        let mg = |k| {
            secs(
                presets::emulation_rate_cluster(k),
                Mode::MicroGrid,
                NpbBenchmark::MG,
            )
        };
        let ratio = mg(8.0) / mg(1.0);
        assert!(
            (0.85..1.15).contains(&ratio),
            "rate invariance broken: {ratio}"
        );
    }

    /// Fig 14 mechanism: EP is bandwidth-insensitive; the others see only
    /// mild degradation from 622 to 155 Mb/s.
    #[test]
    fn vbns_latency_dominates() {
        let ep = |bw| secs(presets::vbns_grid(bw), Mode::MicroGrid, NpbBenchmark::EP);
        let ratio = ep(10e6) / ep(622e6);
        assert!(
            (0.95..1.2).contains(&ratio),
            "EP must be bandwidth-insensitive: {ratio}"
        );
    }
}
