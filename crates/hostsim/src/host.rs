//! Physical hosts, virtual hosts, and Grid processes.
//!
//! A [`PhysicalHost`] bundles one OS kernel model with an optional
//! MicroGrid scheduler daemon. Virtual hosts map onto it in one of two
//! modes, mirroring the paper's two experimental conditions:
//!
//! * **Managed** ([`PhysicalHost::map_virtual`]): the virtual host receives
//!   CPU fraction `f = virtual_speed * rate / physical_speed`, enforced by
//!   the scheduler daemon; the fraction is re-divided across the virtual
//!   host's processes as they come and go (paper §2.4.1).
//! * **Direct** ([`PhysicalHost::as_direct_virtual`]): the virtual host
//!   *is* the physical host — the "physical grid" baseline runs of
//!   Figs 10/11/16/17.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use mgrid_desim::time::SimDuration;
use mgrid_desim::{obs, SimRng};

use crate::kernel::{OsKernel, OsParams, ProcessHandle};
use crate::memory::{MemoryHandle, MemoryManager, OutOfMemory};
use crate::scheduler::{JobId, MGridScheduler, SchedulerParams};
use crate::spec::{PhysicalHostSpec, VirtualHostSpec};

struct PhysInner {
    spec: PhysicalHostSpec,
    kernel: OsKernel,
    sched_params: SchedulerParams,
    sched: RefCell<Option<MGridScheduler>>,
    allocated_fraction: RefCell<f64>,
}

/// A physical emulation host: one CPU, one OS kernel, at most one
/// MicroGrid scheduler daemon.
#[derive(Clone)]
pub struct PhysicalHost {
    inner: Rc<PhysInner>,
}

impl PhysicalHost {
    /// Create a physical host.
    pub fn new(
        spec: PhysicalHostSpec,
        os: OsParams,
        sched_params: SchedulerParams,
        rng: SimRng,
    ) -> Self {
        PhysicalHost {
            inner: Rc::new(PhysInner {
                spec,
                kernel: OsKernel::new(os, rng),
                sched_params,
                sched: RefCell::new(None),
                allocated_fraction: RefCell::new(0.0),
            }),
        }
    }

    /// This host's specification.
    pub fn spec(&self) -> &PhysicalHostSpec {
        &self.inner.spec
    }

    /// The host's OS kernel (for competitors and direct processes).
    pub fn kernel(&self) -> &OsKernel {
        &self.inner.kernel
    }

    /// The MicroGrid scheduler daemon, started lazily on first use.
    pub fn scheduler(&self) -> MGridScheduler {
        let mut slot = self.inner.sched.borrow_mut();
        slot.get_or_insert_with(|| {
            MGridScheduler::start(
                &self.inner.kernel,
                self.inner.sched_params.clone(),
                &self.inner.spec.name,
            )
        })
        .clone()
    }

    /// Map a virtual host onto this physical host at the given simulation
    /// rate. The virtual host's CPU fraction is
    /// `virtual_speed * rate / physical_speed`.
    ///
    /// # Panics
    /// Panics if the fraction is not in `(0, 1]`, or if the sum of
    /// fractions mapped onto this host would exceed 1 (an infeasible
    /// mapping the global coordinator must prevent, paper §2.3).
    pub fn map_virtual(&self, spec: VirtualHostSpec, rate: f64) -> VirtualHost {
        let fraction = spec.speed_mops * rate / self.inner.spec.speed_mops;
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "virtual host {} needs CPU fraction {fraction:.3} of {} — infeasible at rate {rate}",
            spec.name,
            self.inner.spec.name,
        );
        {
            let mut alloc = self.inner.allocated_fraction.borrow_mut();
            assert!(
                *alloc + fraction <= 1.0 + 1e-9,
                "over-committing {}: {:.3} + {fraction:.3} > 1",
                self.inner.spec.name,
                *alloc
            );
            *alloc += fraction;
        }
        VirtualHost {
            inner: Rc::new(VhInner {
                spec,
                phys: self.clone(),
                managed: true,
                fraction,
                memory: RefCell::new(None),
                members: RefCell::new(Vec::new()),
                crashed: std::cell::Cell::new(false),
                procs: RefCell::new(Vec::new()),
            }),
        }
    }

    /// A direct (unmanaged) virtual host: identical specs, no pacing.
    pub fn as_direct_virtual(&self) -> VirtualHost {
        let spec = VirtualHostSpec::new(
            self.inner.spec.name.clone(),
            self.inner.spec.speed_mops,
            self.inner.spec.memory_bytes,
        );
        VirtualHost {
            inner: Rc::new(VhInner {
                spec,
                phys: self.clone(),
                managed: false,
                fraction: 1.0,
                memory: RefCell::new(None),
                members: RefCell::new(Vec::new()),
                crashed: std::cell::Cell::new(false),
                procs: RefCell::new(Vec::new()),
            }),
        }
    }
}

struct VhInner {
    spec: VirtualHostSpec,
    phys: PhysicalHost,
    managed: bool,
    fraction: f64,
    memory: RefCell<Option<MemoryManager>>,
    /// Live jobs of this virtual host (managed mode): the host fraction is
    /// divided evenly across them. A retired job leaves the list.
    members: RefCell<Vec<JobId>>,
    /// Set once the virtual host has crashed ([`VirtualHost::crash`]); a
    /// crash is final.
    crashed: std::cell::Cell<bool>,
    /// Weak handles to this host's processes, so a crash can kill them.
    /// Weak avoids a reference cycle with [`GpInner::vh`]; dropped
    /// processes are pruned on each spawn.
    procs: RefCell<Vec<Weak<GpInner>>>,
}

/// A virtual Grid host: a named (CPU, memory) resource applications run on.
#[derive(Clone)]
pub struct VirtualHost {
    inner: Rc<VhInner>,
}

impl VirtualHost {
    /// The virtual host's specification.
    pub fn spec(&self) -> &VirtualHostSpec {
        &self.inner.spec
    }

    /// The virtual host's name.
    pub fn name(&self) -> &str {
        &self.inner.spec.name
    }

    /// The physical host carrying this virtual host.
    pub fn physical(&self) -> &PhysicalHost {
        &self.inner.phys
    }

    /// The virtual host's memory manager (created lazily).
    pub fn memory(&self) -> MemoryManager {
        self.inner
            .memory
            .borrow_mut()
            .get_or_insert_with(|| {
                MemoryManager::new(self.inner.spec.name.clone(), self.inner.spec.memory_bytes)
            })
            .clone()
    }

    /// Crash the virtual host for good: every live process is terminated
    /// (its in-flight compute halts, scheduler jobs retire, memory is
    /// released) and every later [`VirtualHost::spawn_process`] call
    /// panics. Idempotent.
    pub fn crash(&self) {
        if self.inner.crashed.replace(true) {
            return;
        }
        let procs: Vec<Rc<GpInner>> = self
            .inner
            .procs
            .borrow()
            .iter()
            .filter_map(|w| w.upgrade())
            .collect();
        let mut killed: u64 = 0;
        for inner in procs {
            let gp = GridProcess { inner };
            if gp.inner.mem.borrow().is_some() {
                killed += 1;
            }
            gp.exit();
        }
        self.inner.procs.borrow_mut().clear();
        obs::count("faults.procs_killed", killed);
    }

    /// Start a process on this virtual host.
    ///
    /// In managed mode the process joins the scheduler daemon's rotation
    /// and the host fraction is re-divided across all live processes.
    ///
    /// # Panics
    /// Panics if the host has crashed.
    pub fn spawn_process(&self, name: impl Into<String>) -> Result<GridProcess, OutOfMemory> {
        assert!(
            !self.inner.crashed.get(),
            "cannot spawn a process on crashed host {}",
            self.inner.spec.name
        );
        let mem = self.memory().register_process()?;
        let name = name.into();
        let proc = self.inner.phys.kernel().spawn_process(name);
        let job = if self.inner.managed {
            let sched = self.inner.phys.scheduler();
            // Temporary fraction; rebalance fixes it below.
            let id = sched.add_job(proc.clone(), self.inner.fraction);
            self.inner.members.borrow_mut().push(id);
            self.rebalance(&sched);
            Some(id)
        } else {
            None
        };
        let gp = GridProcess {
            inner: Rc::new(GpInner {
                vh: self.clone(),
                proc,
                job: RefCell::new(job),
                mem: RefCell::new(Some(mem)),
            }),
        };
        let mut procs = self.inner.procs.borrow_mut();
        procs.retain(|p| p.strong_count() > 0);
        procs.push(Rc::downgrade(&gp.inner));
        Ok(gp)
    }

    /// Divide the host fraction evenly across live member processes.
    fn rebalance(&self, sched: &MGridScheduler) {
        let members = self.inner.members.borrow();
        if members.is_empty() {
            return;
        }
        let each = self.inner.fraction / members.len() as f64;
        for &id in members.iter() {
            sched.set_fraction(id, each);
        }
    }

    fn retire(&self, id: JobId) {
        self.inner.members.borrow_mut().retain(|&m| m != id);
        let sched = self.inner.phys.scheduler();
        sched.remove_job(id);
        self.rebalance(&sched);
    }
}

struct GpInner {
    vh: VirtualHost,
    proc: ProcessHandle,
    job: RefCell<Option<JobId>>,
    mem: RefCell<Option<MemoryHandle>>,
}

/// A process running on a virtual host. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct GridProcess {
    inner: Rc<GpInner>,
}

impl GridProcess {
    /// The underlying OS process (for kernel-level accounting).
    pub fn os_process(&self) -> &ProcessHandle {
        &self.inner.proc
    }

    /// This process's memory handle.
    ///
    /// # Panics
    /// Panics after [`GridProcess::exit`].
    pub fn memory(&self) -> MemoryHandle {
        self.inner
            .mem
            .borrow()
            .as_ref()
            .expect("process has exited")
            .clone()
    }

    /// Execute `mops` million abstract operations.
    ///
    /// The CPU time requested from the kernel is `mops / physical_speed`;
    /// pacing (managed mode) stretches the wall time so that in *virtual*
    /// time the work takes `mops / virtual_speed`.
    pub async fn compute_mops(&self, mops: f64) {
        if mops <= 0.0 {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "model math: CPU time is f64 Mops over the configured f64 speed"
        )]
        let cpu = SimDuration::from_secs_f64(mops / self.inner.vh.physical().spec().speed_mops);
        self.inner.proc.run_cpu(cpu).await;
    }

    /// Execute work sized in seconds of *virtual* CPU time on this host.
    pub async fn compute_virtual(&self, d: SimDuration) {
        self.compute_mops(d.as_secs_f64() * self.inner.vh.spec().speed_mops)
            .await;
    }

    /// Pay the MicroGrid interception overhead for one mediated library
    /// call (socket op, `gethostname`, `gettimeofday`, …).
    pub async fn intercept_overhead(&self) {
        self.inner.proc.run_cpu(SimDuration::from_micros(2)).await;
    }

    /// Terminate the process: leave the scheduler rotation, release memory,
    /// remove the OS process. Idempotent.
    pub fn exit(&self) {
        if let Some(id) = self.inner.job.borrow_mut().take() {
            self.inner.vh.retire(id);
        }
        if let Some(mem) = self.inner.mem.borrow_mut().take() {
            mem.release();
        }
        self.inner.proc.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::{now, SimTime, Simulation};

    fn phys(speed: f64) -> PhysicalHost {
        PhysicalHost::new(
            PhysicalHostSpec::new("phys", speed, 1 << 30),
            OsParams {
                timer_noise: 0.0,
                context_switch: SimDuration::ZERO,
            },
            SchedulerParams::default(),
            SimRng::new(9),
        )
    }

    #[test]
    fn direct_compute_runs_at_full_speed() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.as_direct_virtual();
            let p = vh.spawn_process("app").unwrap();
            let t0 = now();
            p.compute_mops(500.0).await; // 1 second of CPU at 500 Mops
            let wall = (now() - t0).as_secs_f64();
            assert!((wall - 1.0).abs() < 1e-6, "wall {wall}");
        });
        sim.run_to_completion();
    }

    #[test]
    fn managed_host_stretches_wall_time_by_fraction() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            let ph = phys(500.0);
            // Virtual host half the speed, rate 1 -> fraction 0.5.
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 250.0, 1 << 28), 1.0);
            let p = vh.spawn_process("app").unwrap();
            let t0 = now();
            p.compute_mops(250.0).await; // 0.5s CPU; at fraction 0.5 ~1s wall
            let wall = (now() - t0).as_secs_f64();
            assert!((wall - 1.0).abs() < 0.1, "wall {wall}");
        });
        sim.run_until(SimTime::from_secs_f64(10.0));
    }

    #[test]
    fn virtual_time_matches_virtual_speed() {
        // A 100-Mops virtual host at rate 0.2 on a 500-Mops physical host:
        // fraction = 0.04. Work of 100 Mops = 1 virtual second
        // = 1/0.2 = 5 physical seconds.
        let mut sim = Simulation::new(3);
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 100.0, 1 << 28), 0.2);
            let p = vh.spawn_process("app").unwrap();
            let t0 = now();
            p.compute_mops(100.0).await;
            let wall = (now() - t0).as_secs_f64();
            assert!((wall - 5.0).abs() < 0.3, "wall {wall}");
        });
        sim.run_until(SimTime::from_secs_f64(30.0));
    }

    #[test]
    fn two_processes_split_the_host_fraction() {
        let mut sim = Simulation::new(4);
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 400.0, 1 << 28), 1.0);
            let a = vh.spawn_process("a").unwrap();
            let b = vh.spawn_process("b").unwrap();
            let t0 = now();
            let ha = mgrid_desim::spawn(async move {
                a.compute_mops(200.0).await; // 0.4s CPU
                now()
            });
            let hb = mgrid_desim::spawn(async move {
                b.compute_mops(200.0).await;
                now()
            });
            let ta = ha.await;
            let tb = hb.await;
            // Each gets 0.4 of the CPU: 0.4s CPU needs ~1s wall.
            let last = ta.max(tb).saturating_since(t0).as_secs_f64();
            assert!((last - 1.0).abs() < 0.15, "finish {last}");
        });
        sim.run_until(SimTime::from_secs_f64(30.0));
    }

    #[test]
    #[should_panic(expected = "over-committing")]
    fn overcommit_is_rejected() {
        let mut sim = Simulation::new(5);
        sim.spawn(async {
            let ph = phys(500.0);
            let _a = ph.map_virtual(VirtualHostSpec::new("v1", 300.0, 1 << 28), 1.0);
            let _b = ph.map_virtual(VirtualHostSpec::new("v2", 300.0, 1 << 28), 1.0);
        });
        sim.run_to_completion();
    }

    #[test]
    fn memory_cap_enforced_on_virtual_host() {
        let mut sim = Simulation::new(6);
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 100.0, 64 * 1024), 1.0);
            let p = vh.spawn_process("app").unwrap();
            assert!(p.memory().alloc(32 * 1024).is_ok());
            assert!(p.memory().alloc(64 * 1024).is_err());
            p.exit();
            assert_eq!(vh.memory().used(), 0);
        });
        sim.run_until(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn crash_kills_processes_and_halts_compute() {
        let mut sim = Simulation::new(11);
        let done = Rc::new(std::cell::Cell::new(false));
        let done2 = done.clone();
        sim.spawn(async move {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 400.0, 1 << 28), 1.0);
            let p = vh.spawn_process("app").unwrap();
            {
                let p = p.clone();
                mgrid_desim::spawn(async move {
                    p.compute_mops(500.0).await;
                    done2.set(true);
                });
            }
            mgrid_desim::sleep(SimDuration::from_millis(100)).await;
            vh.crash();
            let respawn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                vh.spawn_process("after-crash")
            }));
            assert!(respawn.is_err(), "a crash is final");
            assert_eq!(vh.memory().used(), 0, "crash releases memory");
            mgrid_desim::sleep(SimDuration::from_secs(3)).await;
        });
        sim.run_until(SimTime::from_secs_f64(5.0));
        assert!(!done.get(), "compute on a crashed host must never finish");
    }

    /// A host running job after job keeps no handle to a process that
    /// is gone, and a crash still kills exactly the live ones.
    #[test]
    fn spawn_exit_cycles_leave_no_dead_handles() {
        let mut sim = Simulation::new(12);
        let obs = sim.obs().clone();
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 400.0, 1 << 28), 1.0);
            for i in 0..1000 {
                let p = vh.spawn_process(format!("job{i}")).unwrap();
                p.compute_mops(0.01).await;
                p.exit();
            }
            assert!(vh.inner.procs.borrow().len() <= 1);
            assert!(vh.inner.members.borrow().is_empty());
            let live: Vec<GridProcess> = (0..3)
                .map(|i| vh.spawn_process(format!("live{i}")).unwrap())
                .collect();
            let exited = vh.spawn_process("exited").unwrap();
            exited.exit();
            assert_eq!(vh.inner.procs.borrow().len(), 4);
            vh.crash();
            assert_eq!(vh.memory().used(), 0);
            drop((live, exited));
        });
        sim.run_until(SimTime::from_secs_f64(60.0));
        assert_eq!(obs.metrics().counter("faults.procs_killed"), 3);
    }

    #[test]
    fn exit_rebalances_remaining_processes() {
        let mut sim = Simulation::new(7);
        sim.spawn(async {
            let ph = phys(500.0);
            let vh = ph.map_virtual(VirtualHostSpec::new("vm", 400.0, 1 << 28), 1.0);
            let a = vh.spawn_process("a").unwrap();
            let b = vh.spawn_process("b").unwrap();
            a.exit();
            // b should now hold the whole 0.8 fraction: 0.4s CPU in ~0.5s.
            let t0 = now();
            b.compute_mops(200.0).await;
            let wall = (now() - t0).as_secs_f64();
            assert!((wall - 0.5).abs() < 0.1, "wall {wall}");
        });
        sim.run_until(SimTime::from_secs_f64(10.0));
    }
}
