//! Competitor workloads for the processor microbenchmarks (paper §3.2.2).
//!
//! Fig 6/7 run the MicroGrid scheduler against two interference patterns on
//! the same physical CPU:
//!
//! * **CPU competition** — "a computationally intense process … does
//!   floating-point divisions continuously": an unbounded CPU hog.
//! * **IO competition** — "continuously flushes a 1 MB buffer to disk":
//!   short CPU bursts to fill the buffer, then a blocking write.

use std::cell::Cell;
use std::rc::Rc;

use mgrid_desim::time::SimDuration;
use mgrid_desim::{spawn_daemon, SimRng};

use crate::kernel::{OsKernel, ProcessHandle};

/// Handle to a running competitor; dropping it does *not* stop the load —
/// call [`Competitor::stop`].
pub struct Competitor {
    stop: Rc<Cell<bool>>,
    proc: ProcessHandle,
}

impl Competitor {
    /// Ask the competitor loop to exit at its next iteration boundary.
    pub fn stop(&self) {
        self.stop.set(true);
    }

    /// The competitor's OS process (for accounting).
    pub fn process(&self) -> &ProcessHandle {
        &self.proc
    }
}

/// Parameters of the IO-intensive competitor.
#[derive(Clone, Debug)]
pub struct IoCompetitorParams {
    /// CPU burst to fill/flush the buffer (memcpy + syscall path).
    pub cpu_burst: SimDuration,
    /// Mean blocking time of the disk write.
    pub io_wait: SimDuration,
    /// Relative standard deviation of the disk-write time.
    pub io_jitter: f64,
}

impl Default for IoCompetitorParams {
    fn default() -> Self {
        IoCompetitorParams {
            // 1 MB buffer: ~1.5 ms of memcpy/syscall CPU, ~30 ms on a
            // 2000-era disk (~33 MB/s sequential).
            cpu_burst: SimDuration::from_micros(1_500),
            io_wait: SimDuration::from_millis(30),
            io_jitter: 0.2,
        }
    }
}

/// Start a CPU-bound competitor: spins forever in large CPU requests.
pub fn spawn_cpu_hog(kernel: &OsKernel) -> Competitor {
    let proc = kernel.spawn_process("cpu-hog");
    let stop = Rc::new(Cell::new(false));
    let p = proc.clone();
    let s = stop.clone();
    spawn_daemon(async move {
        while !s.get() {
            p.run_cpu(SimDuration::from_millis(100)).await;
        }
        p.exit();
    });
    Competitor { stop, proc }
}

/// Start an IO-bound competitor: burst of CPU, then a blocking disk write.
pub fn spawn_io_competitor(
    kernel: &OsKernel,
    params: IoCompetitorParams,
    mut rng: SimRng,
) -> Competitor {
    let proc = kernel.spawn_process("io-hog");
    let stop = Rc::new(Cell::new(false));
    let p = proc.clone();
    let s = stop.clone();
    spawn_daemon(async move {
        while !s.get() {
            p.run_cpu(params.cpu_burst).await;
            let jitter = (1.0 + params.io_jitter * rng.normal()).max(0.1);
            #[expect(
                clippy::disallowed_methods,
                reason = "model math: the I/O wait is scaled by a jitter drawn from the seeded rng"
            )]
            p.os_sleep(params.io_wait.mul_f64(jitter)).await;
        }
        p.exit();
    });
    Competitor { stop, proc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::OsParams;
    use mgrid_desim::{SimTime, Simulation};

    #[test]
    fn cpu_hog_consumes_whole_cpu_alone() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(OsParams::default(), SimRng::new(1));
            let hog = spawn_cpu_hog(&k);
            mgrid_desim::sleep(SimDuration::from_secs(2)).await;
            let used = hog.process().cpu_used().as_secs_f64();
            assert!(used > 1.9, "hog used {used}");
        });
        sim.run_until(SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn io_competitor_uses_little_cpu() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            let k = OsKernel::new(OsParams::default(), SimRng::new(2));
            let io = spawn_io_competitor(&k, IoCompetitorParams::default(), SimRng::new(3));
            mgrid_desim::sleep(SimDuration::from_secs(2)).await;
            let used = io.process().cpu_used().as_secs_f64();
            // ~1.5ms CPU per ~31.5ms cycle: roughly 5% of the CPU.
            assert!(used > 0.02 && used < 0.3, "io competitor used {used}");
        });
        sim.run_until(SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn two_hogs_split_the_cpu() {
        let mut sim = Simulation::new(3);
        sim.spawn(async {
            let k = OsKernel::new(OsParams::default(), SimRng::new(4));
            let a = spawn_cpu_hog(&k);
            let b = spawn_cpu_hog(&k);
            mgrid_desim::sleep(SimDuration::from_secs(4)).await;
            let ua = a.process().cpu_used().as_secs_f64();
            let ub = b.process().cpu_used().as_secs_f64();
            assert!((ua - 2.0).abs() < 0.2, "a used {ua}");
            assert!((ub - 2.0).abs() < 0.2, "b used {ub}");
        });
        sim.run_until(SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn stopped_competitor_exits() {
        let mut sim = Simulation::new(4);
        sim.spawn(async {
            let k = OsKernel::new(OsParams::default(), SimRng::new(5));
            let hog = spawn_cpu_hog(&k);
            mgrid_desim::sleep(SimDuration::from_millis(250)).await;
            hog.stop();
            mgrid_desim::sleep(SimDuration::from_millis(250)).await;
            assert_eq!(k.process_count(), 0);
        });
        sim.run_until(SimTime::from_secs_f64(1.0));
    }
}
