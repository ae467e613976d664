//! Micro-benchmark regenerators: Fig 5 (memory), Fig 6 (CPU fraction
//! fidelity under competition), Fig 7 (quanta-size distribution).

use microgrid::desim::time::SimDuration;
use microgrid::desim::SimRng;
use microgrid::hostsim::competitors::{spawn_cpu_hog, spawn_io_competitor};
use microgrid::hostsim::memory::probe_max_allocatable;
use microgrid::hostsim::{MGridScheduler, OsKernel, OsParams, SchedulerParams};
use microgrid::{Report, Series};

use crate::runner::{mean_stddev, simulate, Plan};

/// Fig 5: enforceable memory limits. A probe allocates until out-of-memory
/// for caps from 1 KB to 1 MB; the achievable maximum tracks the cap
/// linearly, short by the ~1 KB per-process overhead.
pub fn fig5_memory() -> Plan {
    Plan::new(Vec::<fn()>::new(), |_| {
        let mut rep = Report::new("fig5", "Memory capacity microbenchmark");
        let mut points = Vec::new();
        let mut limit = 1024u64;
        while limit <= 1024 * 1024 {
            let max = probe_max_allocatable(limit, 64);
            points.push((format!("{}KB", limit / 1024), max as f64 / 1024.0));
            limit *= 2;
        }
        rep.series.push(Series {
            label: "max allocatable (KB) vs specified limit".into(),
            points,
        });
        rep.notes
            .push("max allocatable = limit - 1KB process overhead (linear), as Fig 5".into());
        rep
    })
}

/// Competition scenarios of the processor microbenchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Competition {
    /// Scheduler alone on the CPU.
    None,
    /// A spinning floating-point competitor.
    Cpu,
    /// A 1 MB buffer-flush loop.
    Io,
}

impl Competition {
    const ALL: [Competition; 3] = [Competition::None, Competition::Io, Competition::Cpu];

    fn label(self) -> &'static str {
        match self {
            Competition::None => "No Competition",
            Competition::Cpu => "CPU Competition",
            Competition::Io => "IO Competition",
        }
    }

    /// Start the competitor on `kernel`; `io_seed` seeds the IO one.
    fn spawn(self, kernel: &OsKernel, io_seed: u64) {
        match self {
            Competition::None => {}
            Competition::Cpu => {
                spawn_cpu_hog(kernel);
            }
            Competition::Io => {
                spawn_io_competitor(kernel, SimRng::new(io_seed));
            }
        }
    }
}

/// Measure the CPU fraction actually delivered to a spinning reference
/// process paced at `fraction` with scheduler quantum `quantum`, under
/// `competition`, over `horizon`.
pub fn delivered_fraction(
    fraction: f64,
    quantum: SimDuration,
    competition: Competition,
    horizon: SimDuration,
) -> f64 {
    simulate(600 + (fraction * 100.0) as u64, async move {
        let kernel = OsKernel::new(OsParams::default(), SimRng::new(77));
        let sched = MGridScheduler::start(&kernel, SchedulerParams { quantum });
        competition.spawn(&kernel, 78);
        let refproc = kernel.spawn_process("reference");
        sched.add_job(refproc.clone(), fraction);
        let spinner = refproc.clone();
        mgrid_desim::spawn(async move {
            spinner.run_cpu(SimDuration::from_secs(100_000)).await;
        });
        mgrid_desim::sleep(horizon).await;
        refproc.cpu_used().as_secs_f64() / horizon.as_secs_f64()
    })
}

/// Fig 6: delivered vs specified CPU fraction (10%..100%) for the three
/// competition scenarios, at the default quantum.
pub fn fig6_cpu(horizon: SimDuration) -> Plan {
    let steps: Vec<u32> = (10..=100).step_by(10).collect();
    let quantum = SchedulerParams::default().quantum;
    let mut jobs = Vec::new();
    for competition in Competition::ALL {
        for &pct in &steps {
            jobs.push(move || {
                delivered_fraction(f64::from(pct) / 100.0, quantum, competition, horizon)
            });
        }
    }
    Plan::new(jobs, move |delivered| {
        let mut rep = Report::new("fig6", "Processor microbenchmark: delivered CPU fraction");
        for (competition, delivered) in Competition::ALL.iter().zip(delivered.chunks(steps.len())) {
            rep.series.push(Series {
                label: competition.label().into(),
                points: steps
                    .iter()
                    .zip(delivered)
                    .map(|(pct, d)| (format!("{pct}%"), d * 100.0))
                    .collect(),
            });
        }
        rep.notes.push(
            "expected shape: linear to ~95% alone; saturating near the fair share under \
             CPU competition above ~40-50%"
                .into(),
        );
        rep
    })
}

/// Measure the distribution of granted-quantum wall lengths for an idle
/// (constantly sleeping) MicroGrid job, as Fig 7: mean and deviation of
/// at least `samples` grants, normalized to the nominal quantum.
pub fn quanta_distribution(competition: Competition, samples: usize) -> (f64, f64) {
    let grants = simulate(700, async move {
        let kernel = OsKernel::new(OsParams::default(), SimRng::new(79));
        let params = SchedulerParams::default();
        let quantum = params.quantum;
        let sched = MGridScheduler::start(&kernel, params);
        competition.spawn(&kernel, 80);
        // "The process that actually runs on the MicroGrid during this
        // test is an inactive process that constantly sleeps."
        let idle = kernel.spawn_process("idle");
        let job = sched.add_job(idle, 0.95);
        sched.record_grants(job, true);
        loop {
            mgrid_desim::sleep(SimDuration::from_millis(200)).await;
            let grants = sched.grants(job);
            if grants.len() >= samples {
                break grants
                    .iter()
                    .map(|g| g.as_secs_f64() / quantum.as_secs_f64())
                    .collect::<Vec<f64>>();
            }
        }
    });
    mean_stddev(&grants)
}

/// Fig 7: normalized quanta-size distribution (mean and deviation) for the
/// three competition scenarios.
pub fn fig7_quanta(samples: usize) -> Plan {
    let jobs =
        Competition::ALL.map(|competition| move || quanta_distribution(competition, samples));
    Plan::new(jobs.into(), move |stats| {
        let mut rep = Report::new("fig7", "Distribution of quanta sizes (normalized)");
        for (competition, (mean, dev)) in Competition::ALL.iter().zip(stats) {
            rep.series.push(Series {
                label: competition.label().into(),
                points: vec![("mean".into(), mean), ("dev".into(), dev)],
            });
        }
        rep.notes.push(format!(
            "{samples} grants per scenario, normalized to the nominal quantum"
        ));
        rep.notes.push(
            "paper: none 1.000/0.002, CPU 1.01/0.015, IO 0.978/0.027 (normalized to unity mean)"
                .into(),
        );
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_is_linear_minus_overhead() {
        let rep = fig5_memory().run_inline();
        let pts = &rep.series[0].points;
        // limit 64KB -> 63KB allocatable.
        let kb64 = pts.iter().find(|(l, _)| l == "64KB").unwrap();
        assert_eq!(kb64.1, 63.0);
        // Strictly increasing.
        for w in pts.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    fn fig6_shapes() {
        let horizon = SimDuration::from_secs(4);
        let delivered_fraction = |fraction, competition, horizon| {
            delivered_fraction(fraction, SimDuration::from_millis(10), competition, horizon)
        };
        // Alone: 30% is delivered accurately; 100% hits the ceiling.
        let alone30 = delivered_fraction(0.3, Competition::None, horizon);
        assert!((alone30 - 0.3).abs() < 0.03, "alone 30% -> {alone30}");
        let alone100 = delivered_fraction(1.0, Competition::None, horizon);
        assert!(alone100 > 0.9, "alone 100% -> {alone100}");
        // Against a CPU hog: low fractions accurate, high fractions
        // saturate near the fair share.
        let hog20 = delivered_fraction(0.2, Competition::Cpu, horizon);
        assert!((hog20 - 0.2).abs() < 0.05, "hog 20% -> {hog20}");
        let hog90 = delivered_fraction(0.9, Competition::Cpu, horizon);
        assert!(hog90 < 0.75, "hog 90% -> {hog90} (must saturate)");
        assert!(hog90 > 0.4, "hog 90% -> {hog90} (fair share floor)");
    }

    #[test]
    fn fig7_distribution_sane() {
        let rep = fig7_quanta(300).run_inline();
        let stats = |i: usize| (rep.series[i].points[0].1, rep.series[i].points[1].1);
        assert_eq!(rep.series[0].label, "No Competition");
        let (mean, dev) = stats(0);
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!(dev < 0.05, "dev {dev}");
        assert_eq!(rep.series[1].label, "IO Competition");
        let (mean_io, dev_io) = stats(1);
        assert!(
            dev_io >= dev,
            "IO must widen the distribution: {dev_io} vs {dev}"
        );
        assert!((mean_io - 1.0).abs() < 0.2, "io mean {mean_io}");
    }
}
