//! Scalability study (paper §5): "In the near term, we plan to support
//! scaling to dozens of machines." This regenerator grows the virtual
//! Alpha cluster from 4 to 32 hosts, runs MG class S on every size, and
//! reports both the Grid-level result and the simulator's own cost in
//! executor polls per virtual second — the scalability currency the
//! paper's §2.4.2 worries about. Both are exact, so `results/scale.json`
//! is byte-gated like every figure; host wall time is measured by the
//! repo benchmark (`BENCHMARK.json`) and nowhere else.

use std::future::Future;
use std::pin::Pin;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
use microgrid::desim::Simulation;
use microgrid::mpi::MpiParams;
use microgrid::{presets, Report, Series, VirtualGrid};

/// One scale point: returns (virtual seconds, polls).
pub fn run_scale_point(hosts: usize) -> (f64, u64) {
    let mut sim = Simulation::new(4242 + hosts as u64);
    let result: NpbResult = {
        let results = sim.block_on(async move {
            let grid = VirtualGrid::build(presets::alpha_cluster_n(hosts)).expect("valid");
            grid.mpirun_all(MpiParams::default(), |comm| {
                Box::pin(npb::run(NpbBenchmark::MG, comm, NpbClass::S, None))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await
        });
        results.into_iter().next().expect("rank 0")
    };
    assert!(result.verified, "MG-S failed at {hosts} hosts");
    (result.virtual_seconds, sim.poll_count())
}

/// The scaling sweep.
pub fn scale_study() -> Report {
    let mut rep = Report::new(
        "scale",
        "Simulator scalability: MG class S on growing virtual clusters",
    );
    let mut virt = Vec::new();
    let mut polls = Vec::new();
    for hosts in [4usize, 8, 16, 32] {
        let (v, p) = run_scale_point(hosts);
        virt.push((format!("{hosts} hosts"), v));
        polls.push((format!("{hosts} hosts"), p as f64 / v));
    }
    rep.series.push(Series {
        label: "MG-S virtual seconds".into(),
        points: virt,
    });
    rep.series.push(Series {
        label: "executor polls per virtual second".into(),
        points: polls,
    });
    rep.notes.push(
        "the paper's §5 near-term goal was dozens of machines; the engine cost should \
         grow near-linearly with host count"
            .into(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mg_runs_on_sixteen_hosts() {
        let (v, _) = run_scale_point(16);
        // More ranks split the fixed problem: faster than the 4-host run,
        // but communication keeps it well above zero.
        assert!(v > 0.3 && v < 6.0, "MG-S on 16 hosts took {v}");
    }

    #[test]
    fn ep_weak_scales_to_thirty_two() {
        use mgrid_desim::Simulation;
        let mut sim = Simulation::new(99);
        let results = sim.block_on(async {
            let grid = VirtualGrid::build(presets::alpha_cluster_n(32)).expect("valid");
            grid.mpirun_all(MpiParams::default(), |comm| {
                Box::pin(npb::run(NpbBenchmark::EP, comm, NpbClass::S, None))
                    as Pin<Box<dyn Future<Output = NpbResult>>>
            })
            .await
        });
        assert_eq!(results.len(), 32);
        assert!(results[0].verified);
        // EP divides evenly: 32 ranks ~ 1/8 the 4-rank time.
        let t = results[0].virtual_seconds;
        assert!((1.0..3.0).contains(&t), "EP-S on 32 hosts took {t}");
    }
}
