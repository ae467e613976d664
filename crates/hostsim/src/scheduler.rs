//! The MicroGrid CPU scheduler daemon (paper §2.4.1, Fig 4).
//!
//! A user-level daemon allocates the local physical CPU to MicroGrid jobs
//! so that each receives exactly its configured fraction. The algorithm is
//! the paper's Fig 4: for each job, while
//! `myUsedTime <= cpu_Fraction * presentTime`, grant a quantum —
//! SIGCONT the job, sleep one quantum, SIGSTOP it — and charge the *wall*
//! time of the grant to `myUsedTime`. Grants rotate round-robin.
//!
//! Two properties of the real system fall out of this model:
//!
//! * The daemon itself consumes CPU and contends under the native OS
//!   scheduler, capping deliverable fractions below 100 % (Fig 6's ceiling)
//!   and jittering quantum lengths under competition (Fig 7).
//! * Because grants are charged in wall time, a job that blocks mid-quantum
//!   (e.g. on a message) still pays for the full quantum and then waits for
//!   its next eligibility — the quantum-granularity modeling error that
//!   Fig 11 reduces by shrinking the quantum.

use std::cell::RefCell;
use std::rc::Rc;

use mgrid_desim::sync::Notify;
use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::{now, obs, spawn_daemon, Category, Event};

use crate::kernel::{OsKernel, ProcessHandle};

/// Identifier of a job managed by the scheduler daemon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JobId(usize);

/// Daemon bookkeeping CPU consumed around each grant (signal delivery,
/// `gettimeofday`, accounting). Bounds the deliverable fraction.
pub const GRANT_OVERHEAD: SimDuration = SimDuration::from_micros(25);

/// Floor for the daemon's idle wait when no job is eligible.
pub const MIN_WAIT: SimDuration = SimDuration::from_micros(200);

/// Wakeup-latency noise: after its quantum sleep expires, the daemon is
/// rescheduled with a delay of |N(0, base + per_runnable * k)| where k
/// counts other runnable processes — timer granularity when idle,
/// run-queue latency under load (the paper's Fig 7 spread). This is the
/// base standard deviation.
pub const WAKEUP_JITTER_BASE: SimDuration = SimDuration::from_micros(20);

/// Additional wakeup-jitter standard deviation per runnable competitor
/// (see [`WAKEUP_JITTER_BASE`]).
pub const WAKEUP_JITTER_PER_RUNNABLE: SimDuration = SimDuration::from_micros(110);

/// The settable part of the scheduler daemon; the rest is
/// [`GRANT_OVERHEAD`], [`MIN_WAIT`] and the wakeup-jitter constants.
#[derive(Clone, Debug)]
pub struct SchedulerParams {
    /// Quantum granted per rotation (paper default: 10 ms, the Linux
    /// timesharing quantum; Fig 11 explores 2.5–30 ms).
    pub quantum: SimDuration,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            quantum: SimDuration::from_millis(10),
        }
    }
}

struct Job {
    proc: ProcessHandle,
    fraction: f64,
    used: SimDuration,
    started: SimTime,
    /// Wall lengths of granted quanta, recorded when enabled.
    grants: Vec<SimDuration>,
    record_grants: bool,
    live: bool,
}

struct SchedInner {
    quantum: SimDuration,
    jobs: Vec<Job>,
    cursor: usize,
    wake: Notify,
    /// Host label attached to emitted trace events.
    label: String,
}

/// The scheduler daemon of one physical host.
#[derive(Clone)]
pub struct MGridScheduler {
    inner: Rc<RefCell<SchedInner>>,
    daemon: ProcessHandle,
    kernel: OsKernel,
}

impl MGridScheduler {
    /// Create the daemon on `kernel` and start its scheduling loop; trace
    /// events emitted by the daemon carry `label` as their host name.
    pub fn start(kernel: &OsKernel, params: SchedulerParams, label: &str) -> Self {
        let daemon = kernel.spawn_process("mgrid-schedd");
        let sched = MGridScheduler {
            inner: Rc::new(RefCell::new(SchedInner {
                quantum: params.quantum,
                jobs: Vec::new(),
                cursor: 0,
                wake: Notify::new(),
                label: label.to_string(),
            })),
            daemon,
            kernel: kernel.clone(),
        };
        spawn_daemon(sched.clone().run());
        sched
    }

    /// Place `proc` under MicroGrid control with the given CPU fraction.
    /// The process is immediately SIGSTOPped; it only runs during granted
    /// quanta.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn add_job(&self, proc: ProcessHandle, fraction: f64) -> JobId {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "CPU fraction must be in (0,1], got {fraction}"
        );
        proc.sigstop();
        let mut inner = self.inner.borrow_mut();
        // A host runs few jobs and never drops one: no spare room.
        inner.jobs.reserve_exact(1);
        inner.jobs.push(Job {
            proc,
            fraction,
            used: SimDuration::ZERO,
            started: now(),
            grants: Vec::new(),
            record_grants: false,
            live: true,
        });
        let id = JobId(inner.jobs.len() - 1);
        inner.wake.notify_one();
        id
    }

    /// Release a job from MicroGrid control (SIGCONT and stop pacing it).
    pub fn remove_job(&self, id: JobId) {
        let mut inner = self.inner.borrow_mut();
        let job = &mut inner.jobs[id.0];
        job.live = false;
        job.proc.sigcont();
    }

    /// Change a job's CPU fraction (used when processes join or leave a
    /// virtual host and the host's fraction is re-divided).
    pub fn set_fraction(&self, id: JobId, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "CPU fraction must be in (0,1], got {fraction}"
        );
        let mut inner = self.inner.borrow_mut();
        let job = &mut inner.jobs[id.0];
        // Re-baseline the accounting origin at the switch instant instead
        // of zeroing usage: a job that already overran its old entitlement
        // carries the overrun forward as debt (paid back at the new
        // fraction), while accrued-but-unused entitlement is forfeited —
        // never banked into a CPU burst.
        let elapsed = now().saturating_since(job.started);
        #[expect(
            clippy::disallowed_methods,
            reason = "model math: entitlement is the f64 CPU fraction times elapsed time (Fig 4)"
        )]
        let entitled = SimDuration::from_secs_f64(job.fraction * elapsed.as_secs_f64());
        job.used = job.used.saturating_sub(entitled);
        job.started = now();
        job.fraction = fraction;
    }

    /// Enable recording of granted-quantum wall lengths for a job (Fig 7).
    pub fn record_grants(&self, id: JobId, on: bool) {
        let mut inner = self.inner.borrow_mut();
        let job = &mut inner.jobs[id.0];
        job.record_grants = on;
        if !on {
            job.grants.clear();
        }
    }

    /// Recorded quantum lengths for a job.
    pub fn grants(&self, id: JobId) -> Vec<SimDuration> {
        self.inner.borrow().jobs[id.0].grants.clone()
    }

    /// Wall time charged to a job so far.
    pub fn used(&self, id: JobId) -> SimDuration {
        self.inner.borrow().jobs[id.0].used
    }

    /// Fig 4's eligibility test: grant while `used <= fraction * elapsed`.
    fn next_eligible(&self) -> Option<usize> {
        let mut inner = self.inner.borrow_mut();
        let n = inner.jobs.len();
        if n == 0 {
            return None;
        }
        let t = now();
        let start = inner.cursor;
        for off in 0..n {
            let idx = (start + off) % n;
            let job = &inner.jobs[idx];
            if !job.live {
                continue;
            }
            let elapsed = t.saturating_since(job.started);
            if job.used.as_secs_f64() <= job.fraction * elapsed.as_secs_f64() {
                inner.cursor = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Wall time until the earliest job becomes eligible again.
    fn time_to_next_eligibility(&self) -> Option<SimDuration> {
        let inner = self.inner.borrow();
        let t = now();
        inner
            .jobs
            .iter()
            .filter(|j| j.live)
            .map(|j| {
                let elapsed = t.saturating_since(j.started).as_secs_f64();
                let wait = j.used.as_secs_f64() / j.fraction - elapsed;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "model math: inverts the Fig 4 condition `used <= fraction * elapsed`"
                )]
                SimDuration::from_secs_f64(wait.max(0.0))
            })
            .min()
    }

    async fn run(self) {
        // Desynchronize: each daemon starts at a random phase within one
        // quantum. Real schedulers on different hosts are never aligned;
        // without this, deterministic lockstep across hosts would mask the
        // quantum-granularity latency the paper measures in Fig 11.
        let offset = {
            let q = self.inner.borrow().quantum.as_nanos();
            mgrid_desim::with_rng(|r| r.below(q.max(1)))
        };
        self.daemon.os_sleep(SimDuration::from_nanos(offset)).await;
        // Per-quantum metrics: resolve the registry names once, outside
        // the grant loop.
        let m_quanta = obs::counter_handle("sched.quanta");
        let m_quantum_wall = obs::histogram_handle(
            "sched.quantum_wall_ns",
            mgrid_desim::metrics::TIME_BOUNDS_NS,
        );
        // Span and event attributes interned once per daemon: track
        // (host label) and detail never change, and each grant's lane
        // is the process's shared name — a quantum's span and its two
        // events allocate nothing.
        let span_track: mgrid_desim::SpanStr = self.inner.borrow().label.as_str().into();
        let span_empty: mgrid_desim::SpanStr = "".into();
        loop {
            let Some(idx) = self.next_eligible() else {
                let (wait, wake) = {
                    let inner = self.inner.borrow();
                    (self.time_to_next_eligibility(), inner.wake.clone())
                };
                match wait {
                    Some(w) => self.daemon.os_sleep(w.max(MIN_WAIT)).await,
                    None => wake.notified().await,
                }
                continue;
            };
            let (proc, quantum) = {
                let inner = self.inner.borrow();
                (inner.jobs[idx].proc.clone(), inner.quantum)
            };
            // Daemon bookkeeping before the grant: contends for CPU under
            // the native scheduler like the real daemon does.
            self.daemon.run_cpu(GRANT_OVERHEAD).await;
            let t0 = now();
            obs::emit(|| Event::QuantumGrant {
                host: span_track.clone(),
                job: proc.name_shared(),
            });
            // Causal span covering the whole grant (quantum + wakeup
            // jitter): the unit of virtual CPU attribution in the
            // profiler, one slice per grant on the job's Perfetto lane.
            let span = obs::span_begin(Category::Sched, "quantum", || {
                (span_track.clone(), proc.name_shared(), span_empty.clone())
            });
            proc.sigcont();
            self.daemon.os_sleep(quantum).await;
            // Wakeup latency: the daemon's sleep expiry is a timer event;
            // getting back on the CPU takes longer when the run queue is
            // busy. The granted process keeps running meanwhile.
            let jitter = {
                // Everyone runnable except the granted job itself delays
                // the daemon's trip back onto the CPU.
                let others = self.kernel.runnable_count_except(proc.pid());
                let std = WAKEUP_JITTER_BASE.as_secs_f64()
                    + WAKEUP_JITTER_PER_RUNNABLE.as_secs_f64() * others as f64;
                let z = mgrid_desim::with_rng(|r| r.normal()).abs();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "model math: wakeup latency is a normal draw from the seeded rng"
                )]
                SimDuration::from_secs_f64(std * z)
            };
            if !jitter.is_zero() {
                self.daemon.os_sleep(jitter).await;
            }
            proc.sigstop();
            obs::span_end(span);
            self.daemon.run_cpu(GRANT_OVERHEAD).await;
            let wall = now() - t0;
            m_quanta.add(1);
            m_quantum_wall.observe(wall.as_nanos());
            obs::emit(|| Event::QuantumPreempt {
                host: span_track.clone(),
                job: proc.name_shared(),
                wall_ns: wall.as_nanos(),
            });
            let mut inner = self.inner.borrow_mut();
            let job = &mut inner.jobs[idx];
            // Fig 4: myUsedTime += (stopTime - startTime) — wall time, not
            // CPU time actually received.
            job.used += wall;
            if job.record_grants {
                job.grants.push(wall);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::OsParams;
    use mgrid_desim::{spawn, SimRng, SimTime, Simulation};

    fn quiet_kernel() -> OsKernel {
        OsKernel::new(
            OsParams {
                timer_noise: 0.0,
                context_switch: SimDuration::ZERO,
            },
            SimRng::new(1),
        )
    }

    /// Run a CPU-bound reference job at `fraction` for `horizon` and return
    /// the delivered CPU fraction.
    fn delivered_fraction(fraction: f64, horizon: SimDuration) -> f64 {
        let mut sim = Simulation::new(3);
        let out = Rc::new(std::cell::Cell::new(0.0f64));
        let out2 = out.clone();
        sim.spawn(async move {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let p = k.spawn_process("ref");
            let _job = sched.add_job(p.clone(), fraction);
            {
                let p = p.clone();
                spawn(async move {
                    // More CPU demand than the horizon allows.
                    p.run_cpu(SimDuration::from_secs(3600)).await;
                });
            }
            mgrid_desim::sleep(horizon).await;
            out2.set(p.cpu_used().as_secs_f64() / horizon.as_secs_f64());
        });
        sim.run_until(SimTime::ZERO + horizon + SimDuration::from_secs(1));
        out.get()
    }

    #[test]
    fn low_fraction_is_delivered_accurately() {
        let got = delivered_fraction(0.25, SimDuration::from_secs(10));
        assert!((got - 0.25).abs() < 0.02, "delivered {got}");
    }

    #[test]
    fn high_fraction_hits_overhead_ceiling() {
        let got = delivered_fraction(1.0, SimDuration::from_secs(10));
        assert!(got > 0.90, "delivered {got}");
        assert!(got <= 1.0, "delivered {got}");
    }

    #[test]
    fn used_time_tracks_fraction() {
        let mut sim = Simulation::new(4);
        sim.spawn(async {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let p = k.spawn_process("idle");
            let job = sched.add_job(p, 0.5);
            mgrid_desim::sleep(SimDuration::from_secs(2)).await;
            // An idle job is still charged wall quanta (Fig 4 semantics).
            let used = sched.used(job).as_secs_f64();
            assert!((used - 1.0).abs() < 0.05, "used {used}");
        });
        sim.run_until(SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn grants_are_quantum_sized_without_competition() {
        let mut sim = Simulation::new(5);
        sim.spawn(async {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let p = k.spawn_process("sleepy");
            let job = sched.add_job(p, 0.9);
            sched.record_grants(job, true);
            mgrid_desim::sleep(SimDuration::from_secs(2)).await;
            let grants = sched.grants(job);
            assert!(grants.len() > 100, "got {} grants", grants.len());
            let mean = grants.iter().map(|g| g.as_secs_f64()).sum::<f64>() / grants.len() as f64;
            let q = 0.010;
            assert!((mean - q).abs() / q < 0.05, "mean grant {mean}");
        });
        sim.run_until(SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn two_jobs_share_by_fraction() {
        let mut sim = Simulation::new(6);
        sim.spawn(async {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let a = k.spawn_process("a");
            let b = k.spawn_process("b");
            sched.add_job(a.clone(), 0.6);
            sched.add_job(b.clone(), 0.2);
            for p in [a.clone(), b.clone()] {
                spawn(async move {
                    p.run_cpu(SimDuration::from_secs(3600)).await;
                });
            }
            mgrid_desim::sleep(SimDuration::from_secs(10)).await;
            let fa = a.cpu_used().as_secs_f64() / 10.0;
            let fb = b.cpu_used().as_secs_f64() / 10.0;
            assert!((fa - 0.6).abs() < 0.05, "a delivered {fa}");
            assert!((fb - 0.2).abs() < 0.03, "b delivered {fb}");
        });
        sim.run_until(SimTime::from_secs_f64(11.0));
    }

    #[test]
    fn fraction_churn_does_not_grant_bursts() {
        // Regression: set_fraction used to zero the `used` accounting, so
        // a job that had just consumed a quantum became eligible again
        // immediately. The daemon re-checks eligibility on every rotation,
        // so whenever a competitor keeps it awake, an overrunning job could
        // collect one fresh quantum per churn — several times its 5% share
        // here. The fix re-baselines the elapsed-time origin and carries
        // the overrun as debt, so churn must not change the delivered
        // fraction.
        let mut sim = Simulation::new(8);
        let out = Rc::new(std::cell::Cell::new(0.0f64));
        let out2 = out.clone();
        sim.spawn(async move {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let p = k.spawn_process("churned");
            let job = sched.add_job(p.clone(), 0.05);
            // A busy competitor keeps the daemon rotating every quantum, so
            // it observes the churned job's accounting right after each
            // set_fraction call — the condition under which the old zeroing
            // bug handed out bursts.
            let rival = k.spawn_process("rival");
            sched.add_job(rival.clone(), 0.5);
            for p in [p.clone(), rival] {
                spawn(async move {
                    p.run_cpu(SimDuration::from_secs(3600)).await;
                });
            }
            let horizon = SimDuration::from_secs(4);
            let step = SimDuration::from_millis(50);
            let mut t = SimDuration::ZERO;
            while t < horizon {
                mgrid_desim::sleep(step).await;
                t += step;
                // Re-applying the same fraction must be a no-op for the
                // long-run share.
                sched.set_fraction(job, 0.05);
            }
            out2.set(p.cpu_used().as_secs_f64() / horizon.as_secs_f64());
        });
        sim.run_until(SimTime::from_secs_f64(5.0));
        let got = out.get();
        assert!(got < 0.09, "churn must not inflate the 5% share, got {got}");
        assert!(got > 0.02, "job must still make progress, got {got}");
    }

    #[test]
    fn removed_job_runs_freely() {
        let mut sim = Simulation::new(7);
        sim.spawn(async {
            let k = quiet_kernel();
            let sched = MGridScheduler::start(&k, SchedulerParams::default(), "host");
            let p = k.spawn_process("freed");
            let job = sched.add_job(p.clone(), 0.1);
            sched.remove_job(job);
            let start = now();
            p.run_cpu(SimDuration::from_millis(100)).await;
            let wall = (now() - start).as_secs_f64();
            // Free of pacing: finishes in ~100ms, not ~1s.
            assert!(wall < 0.2, "wall {wall}");
        });
        sim.run_until(SimTime::from_secs_f64(5.0));
    }
}
