//! Disk resource model.
//!
//! The paper lists disks among the resources the MicroGrid must
//! virtualize (§2.2.1: "processing, memory, networks, disks, and any
//! other resources") and uses disk speed ratios in its Fig 15 discussion
//! ("slowing the processor and network simulations can be used to make a
//! slow disk seem much faster"). This module provides that resource: a
//! single-spindle disk with seek + rotational + transfer costs, a FIFO
//! request queue, and virtual-time scaling so a virtual disk of any speed
//! can be carried by the emulation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mgrid_desim::channel::{oneshot, OneshotSender};
use mgrid_desim::sync::Notify;
use mgrid_desim::time::SimDuration;
use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::{spawn_daemon, SimRng};

/// Performance characteristics of a disk (virtual-time units).
#[derive(Clone, Debug)]
pub struct DiskSpec {
    /// Mean seek time.
    pub seek: SimDuration,
    /// Relative standard deviation of the seek (head position varies).
    pub seek_jitter: f64,
    /// Sustained transfer rate, bytes per second.
    pub transfer_bps: f64,
    /// Requests at or below this size skip the seek with this probability
    /// (sequential-access locality).
    pub sequential_hit: f64,
}

impl Default for DiskSpec {
    fn default() -> Self {
        // A 2000-era SCSI disk: ~8 ms seek, ~33 MB/s sustained.
        DiskSpec {
            seek: SimDuration::from_millis(8),
            seek_jitter: 0.25,
            transfer_bps: 33e6,
            sequential_hit: 0.5,
        }
    }
}

/// Kinds of disk requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskOp {
    /// Read `bytes`.
    Read,
    /// Write `bytes` (same cost model; write-back caching is not modeled).
    Write,
}

struct Request {
    op: DiskOp,
    bytes: u64,
    done: OneshotSender<()>,
}

struct DiskInner {
    spec: DiskSpec,
    queue: VecDeque<Request>,
    notify: Notify,
    rng: SimRng,
    busy: SimDuration,
    ops: u64,
    bytes: u64,
}

/// A single-spindle disk serving requests FIFO in virtual time.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<RefCell<DiskInner>>,
    clock: VirtualClock,
}

impl Disk {
    /// Create a disk and start its service loop. Request timing is
    /// defined in virtual time and scheduled through `clock`.
    pub fn new(spec: DiskSpec, clock: VirtualClock, rng: SimRng) -> Disk {
        let disk = Disk {
            inner: Rc::new(RefCell::new(DiskInner {
                spec,
                queue: VecDeque::new(),
                notify: Notify::new(),
                rng,
                busy: SimDuration::ZERO,
                ops: 0,
                bytes: 0,
            })),
            clock,
        };
        let d = disk.clone();
        spawn_daemon(async move { d.service_loop().await });
        disk
    }

    /// Submit a request and wait for completion.
    pub async fn request(&self, op: DiskOp, bytes: u64) {
        let (tx, rx) = oneshot();
        {
            let mut inner = self.inner.borrow_mut();
            inner.queue.push_back(Request {
                op,
                bytes,
                done: tx,
            });
            inner.notify.notify_one();
        }
        let _ = rx.recv().await;
    }

    /// Convenience: read `bytes`.
    pub async fn read(&self, bytes: u64) {
        self.request(DiskOp::Read, bytes).await;
    }

    /// Convenience: write `bytes`.
    pub async fn write(&self, bytes: u64) {
        self.request(DiskOp::Write, bytes).await;
    }

    /// Completed operations.
    pub fn ops(&self) -> u64 {
        self.inner.borrow().ops
    }

    /// Bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.inner.borrow().bytes
    }

    /// Accumulated busy time (virtual).
    pub fn busy_virtual(&self) -> SimDuration {
        self.inner.borrow().busy
    }

    async fn service_loop(self) {
        loop {
            let req = {
                let mut inner = self.inner.borrow_mut();
                inner.queue.pop_front()
            };
            let Some(req) = req else {
                let n = self.inner.borrow().notify.clone();
                n.notified().await;
                continue;
            };
            let service = {
                let mut inner = self.inner.borrow_mut();
                let spec = inner.spec.clone();
                let sequential = inner.rng.chance(spec.sequential_hit);
                let seek = if sequential {
                    SimDuration::ZERO
                } else {
                    let z = inner.rng.normal();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "model math: the seek is scaled by a jitter drawn from the seeded rng"
                    )]
                    spec.seek.mul_f64((1.0 + spec.seek_jitter * z).max(0.1))
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "model math: transfer time is bytes over the configured f64 rate"
                )]
                let transfer = SimDuration::from_secs_f64(req.bytes as f64 / spec.transfer_bps);
                let total = seek + transfer;
                inner.busy += total;
                inner.ops += 1;
                inner.bytes += req.bytes;
                total
            };
            mgrid_desim::vclock::sleep_virtual(&self.clock, service).await;
            let _ = req.op; // reads and writes share the cost model
            req.done.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::{now, spawn, SimTime, Simulation};

    fn quiet_spec() -> DiskSpec {
        DiskSpec {
            seek: SimDuration::from_millis(8),
            seek_jitter: 0.0,
            transfer_bps: 32e6,
            sequential_hit: 0.0,
        }
    }

    #[test]
    fn single_request_takes_seek_plus_transfer() {
        let mut sim = Simulation::new(1);
        sim.block_on(async {
            let disk = Disk::new(quiet_spec(), VirtualClock::identity(), SimRng::new(1));
            let t0 = now();
            disk.read(3_200_000).await; // 100 ms transfer at 32 MB/s
            let elapsed = (now() - t0).as_secs_f64();
            assert!((elapsed - 0.108).abs() < 1e-3, "elapsed {elapsed}");
            assert_eq!(disk.ops(), 1);
            assert_eq!(disk.bytes_moved(), 3_200_000);
        });
    }

    #[test]
    fn requests_are_serialized_fifo() {
        let mut sim = Simulation::new(2);
        sim.block_on(async {
            let disk = Disk::new(quiet_spec(), VirtualClock::identity(), SimRng::new(2));
            let t0 = now();
            let a = {
                let d = disk.clone();
                spawn(async move {
                    d.read(320_000).await; // 10 ms + 8 ms seek
                    now()
                })
            };
            let b = {
                let d = disk.clone();
                spawn(async move {
                    d.write(320_000).await;
                    now()
                })
            };
            let ta = a.await;
            let tb = b.await;
            // Second finishes ~18 ms after the first (one spindle).
            let gap = tb.saturating_since(ta).as_secs_f64();
            assert!((gap - 0.018).abs() < 2e-3, "gap {gap}");
            assert!((ta.saturating_since(t0).as_secs_f64() - 0.018).abs() < 2e-3);
        });
    }

    #[test]
    fn virtual_clock_scales_disk_time() {
        // Rate 2.0: a virtual 8 ms seek takes 4 ms physical — "slowing the
        // simulation makes a slow disk seem much faster" inverted.
        let mut sim = Simulation::new(3);
        sim.block_on(async {
            let clock = VirtualClock::new(2.0);
            let disk = Disk::new(quiet_spec(), clock, SimRng::new(3));
            let t0 = now();
            disk.read(0).await;
            let phys = (now() - t0).as_secs_f64();
            assert!((phys - 0.004).abs() < 5e-4, "physical {phys}");
        });
    }

    #[test]
    fn sequential_hits_skip_seeks() {
        let mut sim = Simulation::new(4);
        sim.block_on(async {
            let spec = DiskSpec {
                sequential_hit: 1.0,
                ..quiet_spec()
            };
            let disk = Disk::new(spec, VirtualClock::identity(), SimRng::new(4));
            let t0 = now();
            for _ in 0..10 {
                disk.read(32_000).await; // 1 ms transfer, no seek
            }
            let elapsed = (now() - t0).as_secs_f64();
            assert!((elapsed - 0.010).abs() < 1e-3, "elapsed {elapsed}");
        });
    }

    #[test]
    fn busy_time_accumulates() {
        let mut sim = Simulation::new(5);
        sim.block_on(async {
            let disk = Disk::new(quiet_spec(), VirtualClock::identity(), SimRng::new(5));
            disk.read(3_200_000).await;
            disk.write(3_200_000).await;
            let busy = disk.busy_virtual().as_secs_f64();
            assert!((busy - 0.216).abs() < 2e-3, "busy {busy}");
        });
    }

    #[test]
    fn runs_to_quiescence_with_idle_disk() {
        let mut sim = Simulation::new(6);
        sim.spawn(async {
            let _disk = Disk::new(quiet_spec(), VirtualClock::identity(), SimRng::new(6));
        });
        // The idle service daemon must not keep the simulation alive.
        let t = sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(t <= SimTime::from_secs_f64(1.0));
    }
}
