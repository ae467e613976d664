//! Scalability study (paper §5): "In the near term, we plan to support
//! scaling to dozens of machines." This regenerator grows the virtual
//! Alpha cluster from 4 to 32 hosts, runs MG class S on every size, and
//! reports both the Grid-level result and the simulator's own cost in
//! executor polls per virtual second — the scalability currency the
//! paper's §2.4.2 worries about. Both are exact, so `results/scale.json`
//! is byte-gated like every figure; host wall time is measured by the
//! repo benchmark (`BENCHMARK.json`) and nowhere else.

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass};
use microgrid::mpi::MpiParams;
use microgrid::{presets, Report, Series};

use crate::runner::{rank0, with_grid, Mode, Plan};

/// One scale point: returns (virtual seconds, polls).
pub fn run_scale_point(hosts: usize) -> (f64, u64) {
    let config = presets::alpha_cluster_n(hosts);
    let seed = 4242 + hosts as u64;
    let run = with_grid(config, Mode::MicroGrid, seed, |grid| async move {
        let body = |comm| npb::run(NpbBenchmark::MG, comm, NpbClass::S, None);
        rank0(grid.mpirun_all(MpiParams::default(), body).await)
    });
    assert!(run.output.verified, "MG-S failed at {hosts} hosts");
    (run.output.virtual_seconds, run.polls)
}

/// The scaling sweep.
pub fn scale_study() -> Plan {
    const HOSTS: [usize; 4] = [4, 8, 16, 32];
    let jobs = HOSTS.map(|hosts| move || run_scale_point(hosts));
    Plan::new(jobs.into(), |runs| {
        let mut rep = Report::new(
            "scale",
            "Simulator scalability: MG class S on growing virtual clusters",
        );
        let per_host = |value: fn(&(f64, u64)) -> f64| {
            HOSTS
                .iter()
                .zip(&runs)
                .map(|(hosts, run)| (format!("{hosts} hosts"), value(run)))
                .collect()
        };
        rep.series.push(Series {
            label: "MG-S virtual seconds".into(),
            points: per_host(|(v, _)| *v),
        });
        rep.series.push(Series {
            label: "executor polls per virtual second".into(),
            points: per_host(|(v, p)| *p as f64 / v),
        });
        rep.notes.push(
            "the paper's §5 near-term goal was dozens of machines; the engine cost should \
             grow near-linearly with host count"
                .into(),
        );
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_npb;

    #[test]
    fn mg_runs_on_sixteen_hosts() {
        let (v, _) = run_scale_point(16);
        // More ranks split the fixed problem: faster than the 4-host run,
        // but communication keeps it well above zero.
        assert!(v > 0.3 && v < 6.0, "MG-S on 16 hosts took {v}");
    }

    #[test]
    fn ep_weak_scales_to_thirty_two() {
        let config = presets::alpha_cluster_n(32);
        let r = run_npb(config, Mode::MicroGrid, NpbBenchmark::EP, NpbClass::S);
        assert!(r.verified && r.ranks == 32, "{r:?}");
        // EP divides evenly: 32 ranks ~ 1/8 the 4-rank time.
        let t = r.virtual_seconds;
        assert!((1.0..3.0).contains(&t), "EP-S on 32 hosts took {t}");
    }
}
