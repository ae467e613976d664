//! NPB figure regenerators: Fig 9 (configurations), Fig 10 (class A
//! totals), Fig 11 (quantum sweep), Fig 12 (CPU scaling), Fig 14 (vBNS
//! bandwidth sweep), Fig 15 (emulation-rate sweep).

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::desim::time::SimDuration;
use microgrid::{presets, ComparisonRow, Report, Series};

use crate::runner::{class_for_run, run_npb, run_scenarios, Mode, Scenario};

/// Fig 9: the two virtual Grid configurations studied.
pub fn fig9_configs() -> Report {
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
}

/// The benchmark set of Fig 10 (all five) or Figs 11/12/15 (no IS).
fn benches(with_is: bool) -> Vec<NpbBenchmark> {
    let mut v = vec![
        NpbBenchmark::EP,
        NpbBenchmark::BT,
        NpbBenchmark::LU,
        NpbBenchmark::MG,
    ];
    if with_is {
        v.push(NpbBenchmark::IS);
    }
    v
}

/// Fig 10: NPB total run times, physical vs MicroGrid, on the Alpha
/// cluster and the HPVM configuration.
pub fn fig10_npb() -> Report {
    let class = class_for_run();
    let mut rep = Report::new(
        "fig10",
        format!("NPB class {} totals: physical vs MicroGrid", class.name()),
    );
    // One scenario per (configuration, benchmark) pair: each is an
    // independent pair of simulations, so the pool may run them on any
    // number of workers with byte-identical rows.
    let mut jobs: Vec<Scenario<ComparisonRow>> = Vec::new();
    for config in [presets::alpha_cluster(), presets::hpvm_cluster()] {
        for bench in benches(true) {
            let config = config.clone();
            jobs.push(Box::new(move || {
                let label = format!("{} ({})", bench.name(), config.name);
                let phys = run_npb(config.clone(), Mode::Physical, bench, class);
                let mgrid = run_npb(config, Mode::MicroGrid, bench, class);
                assert!(phys.verified && mgrid.verified, "verification failed");
                ComparisonRow {
                    label,
                    physical_seconds: phys.virtual_seconds,
                    microgrid_seconds: mgrid.virtual_seconds,
                }
            }));
        }
    }
    rep.rows = run_scenarios(jobs);
    rep.notes
        .push("paper: IS/LU/MG within 2%, EP/BT within 4%".into());
    rep
}

/// Fig 11: the effect of the scheduling quantum on modeling accuracy
/// (class S, quanta 2.5/5/10/30 ms).
pub fn fig11_quanta_sweep() -> Report {
    let mut rep = Report::new(
        "fig11",
        "Scheduling-quantum sweep vs physical (NPB class S)",
    );
    let quanta_us = [2_500u64, 5_000, 10_000, 30_000];
    for bench in benches(false) {
        let phys = run_npb(presets::alpha_cluster(), Mode::Physical, bench, NpbClass::S);
        let mut points = vec![("physical".to_string(), phys.virtual_seconds)];
        for q in quanta_us {
            // The quantum effect shows on a shared deployment (fraction
            // 0.5), where stall windows are quantum-sized.
            let mut config = presets::alpha_cluster_shared();
            config.quantum = SimDuration::from_micros(q);
            let r = run_npb(config, Mode::MicroGrid, bench, NpbClass::S);
            points.push((format!("slice={}ms", q as f64 / 1000.0), r.virtual_seconds));
        }
        rep.series.push(Series {
            label: format!("{} (class S)", bench.name()),
            points,
        });
    }
    rep.notes.push(
        "paper: frequently-synchronizing codes match better with shorter quanta; best \
         matches 12%/0.6%/0.4%/1.3% for MG/BT/LU/EP"
            .into(),
    );
    rep
}

/// Fig 12: total run times varying only the virtual CPU (1x..8x), network
/// pinned to 1 Mb/s / 50 ms. Values are normalized to the 1x run.
pub fn fig12_cpu_scaling() -> Report {
    let class = class_for_run();
    let mut rep = Report::new(
        "fig12",
        format!(
            "CPU scaling at fixed 1 Mb/s / 50 ms network (class {})",
            class.name()
        ),
    );
    // One scenario per (benchmark, multiplier) run; normalization to the
    // 1x run happens after the pooled sweep, in submission order.
    let mults = [1.0, 2.0, 4.0, 8.0];
    let mut jobs: Vec<Scenario<f64>> = Vec::new();
    for bench in benches(false) {
        for mult in mults {
            jobs.push(Box::new(move || {
                run_npb(
                    presets::cpu_scaled_cluster(mult),
                    Mode::MicroGrid,
                    bench,
                    class,
                )
                .virtual_seconds
            }));
        }
    }
    let times = run_scenarios(jobs);
    for (bi, bench) in benches(false).into_iter().enumerate() {
        let base = times[bi * mults.len()];
        rep.series.push(Series {
            label: bench.name().into(),
            points: mults
                .iter()
                .enumerate()
                .map(|(mi, mult)| (format!("{mult}x CPU"), times[bi * mults.len() + mi] / base))
                .collect(),
        });
    }
    rep.notes.push(
        "paper: significant speedups from CPU alone; EP scales nearly ideally, the \
         others partially (communication share is fixed)"
            .into(),
    );
    rep
}

/// Fig 14: NPB over the vBNS coupled-cluster testbed, bottleneck at
/// 622/155/10 Mb/s.
pub fn fig14_vbns() -> Report {
    let mut rep = Report::new(
        "fig14",
        "NPB over the vBNS distributed cluster, varying the WAN bottleneck (class S)",
    );
    for bench in benches(false) {
        let mut points = Vec::new();
        for bw in [622e6, 155e6, 10e6] {
            let r = run_npb(presets::vbns_grid(bw), Mode::MicroGrid, bench, NpbClass::S);
            points.push((format!("{:.0}Mb/s", bw / 1e6), r.virtual_seconds));
        }
        rep.series.push(Series {
            label: bench.name().into(),
            points,
        });
    }
    rep.notes.push(
        "paper: performance only mildly sensitive to WAN bandwidth — latency \
         dominates for all but EP (class not stated in the paper; we use S)"
            .into(),
    );
    rep
}

/// Fig 15: identical virtual results across emulation rates (1x..8x
/// system speed). Values are virtual run times normalized to the 1x run.
pub fn fig15_emulation_rates() -> Report {
    // Class S on both paths: the rate-invariance property is independent
    // of problem size and class A adds nothing but wall time here.
    let class = NpbClass::S;
    let mut rep = Report::new(
        "fig15",
        "Virtual run time across emulation rates (normalized, class S)",
    );
    for bench in benches(false) {
        let mut base = None;
        let mut points = Vec::new();
        for k in [1.0, 2.0, 4.0, 8.0] {
            let r = run_npb(
                presets::emulation_rate_cluster(k),
                Mode::MicroGrid,
                bench,
                class,
            );
            let b = *base.get_or_insert(r.virtual_seconds);
            points.push((format!("{k}x system"), r.virtual_seconds / b));
        }
        rep.series.push(Series {
            label: bench.name().into(),
            points,
        });
    }
    rep.notes.push(
        "paper: normalized run times stay ~1.0 (0.85-1.05) across an order of \
         magnitude of emulation speed"
            .into(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_lists_both_configs() {
        let rep = fig9_configs();
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
            let phys = run_npb(presets::alpha_cluster(), Mode::Physical, bench, NpbClass::S);
            let mgrid = run_npb(
                presets::alpha_cluster(),
                Mode::MicroGrid,
                bench,
                NpbClass::S,
            );
            let err = (mgrid.virtual_seconds - phys.virtual_seconds).abs() / phys.virtual_seconds;
            assert!(
                err < 0.12,
                "{}: phys {:.3} vs mgrid {:.3} ({:.1}%)",
                bench.name(),
                phys.virtual_seconds,
                mgrid.virtual_seconds,
                err * 100.0
            );
        }
    }

    /// Fig 11 mechanism: for the finest-grained code (LU class S) a 30 ms
    /// quantum must model worse than a 2.5 ms quantum.
    #[test]
    fn larger_quantum_models_worse_for_lu() {
        let phys = run_npb(
            presets::alpha_cluster(),
            Mode::Physical,
            NpbBenchmark::LU,
            NpbClass::S,
        );
        let err = |q_us: u64| {
            let mut c = presets::alpha_cluster_shared();
            c.quantum = SimDuration::from_micros(q_us);
            let r = run_npb(c, Mode::MicroGrid, NpbBenchmark::LU, NpbClass::S);
            (r.virtual_seconds - phys.virtual_seconds).abs() / phys.virtual_seconds
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
        let r1 = run_npb(
            presets::cpu_scaled_cluster(1.0),
            Mode::MicroGrid,
            NpbBenchmark::EP,
            NpbClass::S,
        );
        let r4 = run_npb(
            presets::cpu_scaled_cluster(4.0),
            Mode::MicroGrid,
            NpbBenchmark::EP,
            NpbClass::S,
        );
        let ratio = r4.virtual_seconds / r1.virtual_seconds;
        assert!(
            (0.2..0.35).contains(&ratio),
            "EP 4x ratio {ratio} (ideal 0.25)"
        );
    }

    /// Fig 15 mechanism: virtual results are rate-invariant.
    #[test]
    fn emulation_rate_invariance() {
        let r1 = run_npb(
            presets::emulation_rate_cluster(1.0),
            Mode::MicroGrid,
            NpbBenchmark::MG,
            NpbClass::S,
        );
        let r8 = run_npb(
            presets::emulation_rate_cluster(8.0),
            Mode::MicroGrid,
            NpbBenchmark::MG,
            NpbClass::S,
        );
        let ratio = r8.virtual_seconds / r1.virtual_seconds;
        assert!(
            (0.85..1.15).contains(&ratio),
            "rate invariance broken: {ratio}"
        );
    }

    /// Fig 14 mechanism: EP is bandwidth-insensitive; the others see only
    /// mild degradation from 622 to 155 Mb/s.
    #[test]
    fn vbns_latency_dominates() {
        let fast = run_npb(
            presets::vbns_grid(622e6),
            Mode::MicroGrid,
            NpbBenchmark::EP,
            NpbClass::S,
        );
        let slow = run_npb(
            presets::vbns_grid(10e6),
            Mode::MicroGrid,
            NpbBenchmark::EP,
            NpbClass::S,
        );
        let ratio = slow.virtual_seconds / fast.virtual_seconds;
        assert!(
            (0.95..1.2).contains(&ratio),
            "EP must be bandwidth-insensitive: {ratio}"
        );
    }
}
