//! A model of a time-sharing OS kernel on one physical CPU.
//!
//! The MicroGrid's CPU scheduler daemon (paper §2.4.1, Fig 4) runs *on top
//! of* the host OS: it grants quanta with SIGCONT/SIGSTOP and sleeps between
//! them, while the native Linux scheduler still time-shares the CPU among
//! the granted process, the daemon itself, and any competitors. The paper's
//! Fig 6/7 results (fraction fidelity under CPU/IO competition) are
//! consequences of that native scheduler's policy, so we model it:
//! an epoch-credit scheduler in the style of Linux 2.2.
//!
//! * Every process has a credit `counter` (in ticks). The runnable process
//!   with the highest counter runs; its counter drains while it runs.
//! * When every runnable process has drained its counter, a new epoch
//!   recharges all processes: `counter = counter/2 + BASE_TICKS`.
//!   Processes that sleep a lot therefore accumulate credit (up to
//!   `2*BASE_TICKS`) and preempt CPU-bound processes when they wake —
//!   which is why a mostly-sleeping MicroGrid-managed job receives its
//!   small CPU fraction accurately even against a spinning competitor
//!   (Fig 6's linear region).
//! * A wakeup (new CPU request, SIGCONT, sleep expiry) interrupts the
//!   current slice and forces a re-schedule, so higher-credit processes
//!   preempt immediately.
//!
//! Time is the engine's physical clock; CPU demand is expressed in CPU
//! seconds (the host layer converts abstract "ops" using the CPU speed).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use mgrid_desim::channel::{oneshot, OneshotSender};
use mgrid_desim::sync::Notify;
use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::{now, sleep, spawn_daemon};

/// Identifier of an OS-level process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// Scheduler tick: credit is measured in ticks and wakeups take effect
/// with at most this much latency when not preempting.
pub const TICK: SimDuration = SimDuration::from_millis(1);

/// Credit added per epoch (Linux 2.2 "priority"): a process that never
/// sleeps gets `BASE_TICKS` ticks per epoch; a heavy sleeper converges to
/// `2 * BASE_TICKS`.
pub const BASE_TICKS: f64 = 20.0;

/// Upper bound on one uninterrupted slice (events are generated at least
/// this often while the CPU is busy).
pub const MAX_SLICE: SimDuration = SimDuration::from_millis(20);

/// The settable half of the kernel scheduler model; the rest is [`TICK`],
/// [`BASE_TICKS`] and [`MAX_SLICE`].
#[derive(Clone, Debug)]
pub struct OsParams {
    /// Direct cost of a context switch, charged to wall time.
    pub context_switch: SimDuration,
    /// Relative standard deviation of timer-expiry noise applied to slice
    /// lengths (models timer interrupt granularity / cache interference).
    pub timer_noise: f64,
}

impl Default for OsParams {
    fn default() -> Self {
        OsParams {
            context_switch: SimDuration::from_micros(5),
            timer_noise: 0.002,
        }
    }
}

struct Request {
    remaining: SimDuration,
    done: OneshotSender<SimDuration>,
    served: SimDuration,
}

struct Pcb {
    pid: Pid,
    name: mgrid_desim::SpanStr,
    counter: f64,
    stopped: bool,
    /// Pending CPU requests, served FIFO: concurrent requests from one
    /// process's tasks are serialized, as a single-threaded process would.
    requests: std::collections::VecDeque<Request>,
    cpu_used: SimDuration,
    last_ran_seq: u64,
}

struct IntrSlot {
    fired: bool,
    waker: Option<Waker>,
}

struct KernelInner {
    params: OsParams,
    /// Live processes in pid order (pids only grow, so a spawn appends),
    /// with no spare room: a host runs a handful of processes.
    procs: Vec<Pcb>,
    next_pid: u64,
    run_seq: u64,
    current: Option<Pid>,
    intr: Option<Rc<RefCell<IntrSlot>>>,
    idle_notify: Notify,
    rng: RefCell<mgrid_desim::SimRng>,
    driver_started: bool,
}

impl KernelInner {
    /// Index of `pid`'s entry in `procs`.
    fn find(&self, pid: Pid) -> Option<usize> {
        self.procs.binary_search_by_key(&pid, |p| p.pid).ok()
    }

    fn proc(&self, pid: Pid) -> Option<&Pcb> {
        self.find(pid).map(|i| &self.procs[i])
    }

    fn proc_mut(&mut self, pid: Pid) -> Option<&mut Pcb> {
        self.find(pid).map(|i| &mut self.procs[i])
    }
}

/// A simulated single-CPU OS kernel.
///
/// Create with [`OsKernel::new`], add processes with
/// [`OsKernel::spawn_process`], and have simulation tasks consume CPU via
/// [`ProcessHandle::run_cpu`]. The scheduling driver task starts lazily on
/// the first CPU request.
#[derive(Clone)]
pub struct OsKernel {
    inner: Rc<RefCell<KernelInner>>,
}

impl OsKernel {
    /// Create a kernel with the given scheduler parameters. `rng` seeds the
    /// kernel's private noise stream.
    pub fn new(params: OsParams, rng: mgrid_desim::SimRng) -> Self {
        OsKernel {
            inner: Rc::new(RefCell::new(KernelInner {
                params,
                procs: Vec::new(),
                next_pid: 1,
                run_seq: 0,
                current: None,
                intr: None,
                idle_notify: Notify::new(),
                rng: RefCell::new(rng),
                driver_started: false,
            })),
        }
    }

    /// Register a new process. The process starts runnable (not stopped)
    /// but consumes no CPU until it issues a request.
    pub fn spawn_process(&self, name: impl Into<String>) -> ProcessHandle {
        let mut inner = self.inner.borrow_mut();
        let pid = Pid(inner.next_pid);
        inner.next_pid += 1;
        inner.procs.reserve_exact(1);
        inner.procs.push(Pcb {
            pid,
            name: name.into().into(),
            counter: BASE_TICKS,
            stopped: false,
            requests: std::collections::VecDeque::new(),
            cpu_used: SimDuration::ZERO,
            last_ran_seq: 0,
        });
        ProcessHandle {
            kernel: self.clone(),
            pid,
        }
    }

    /// Number of processes currently runnable (not stopped, with pending
    /// CPU work), excluding `except`. Used by the scheduler daemon's
    /// wakeup-latency model.
    pub fn runnable_count_except(&self, except: Pid) -> usize {
        self.inner
            .borrow()
            .procs
            .iter()
            .filter(|p| p.pid != except && !p.stopped && !p.requests.is_empty())
            .count()
    }

    fn ensure_driver(&self) {
        let start = {
            let mut inner = self.inner.borrow_mut();
            if inner.driver_started {
                false
            } else {
                inner.driver_started = true;
                true
            }
        };
        if start {
            spawn_daemon(self.clone().driver());
        }
    }

    fn interrupt(&self) {
        let inner = self.inner.borrow();
        if let Some(slot) = &inner.intr {
            let mut s = slot.borrow_mut();
            s.fired = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        } else {
            inner.idle_notify.notify_one();
        }
    }

    /// Pick the runnable process with the most credit, recharging the epoch
    /// if every runnable process has drained.
    fn pick(&self) -> Option<Pid> {
        let mut inner = self.inner.borrow_mut();
        let runnable = |p: &Pcb| !p.stopped && !p.requests.is_empty();
        let has_runnable = inner.procs.iter().any(runnable);
        if !has_runnable {
            return None;
        }
        let all_drained = inner
            .procs
            .iter()
            .filter(|p| runnable(p))
            .all(|p| p.counter <= 0.0);
        if all_drained {
            // New epoch: everyone recharges; sleepers bank credit.
            for p in &mut inner.procs {
                p.counter = p.counter / 2.0 + BASE_TICKS;
            }
        }
        inner
            .procs
            // The comparator below is total (credit, then last-ran,
            // then pid), so the winner is unique and iteration order
            // cannot affect the pick.
            .iter()
            .filter(|p| runnable(p) && p.counter > 0.0)
            .max_by(|a, b| {
                // Highest credit wins; ties go to the least recently run,
                // then to the lower pid — a deterministic round-robin.
                a.counter
                    .total_cmp(&b.counter)
                    .then(b.last_ran_seq.cmp(&a.last_ran_seq))
                    .then(b.pid.cmp(&a.pid))
            })
            .map(|p| p.pid)
    }

    async fn driver(self) {
        loop {
            let Some(pid) = self.pick() else {
                let notify = self.inner.borrow().idle_notify.clone();
                notify.notified().await;
                continue;
            };
            // Compute the slice and pay the context-switch cost.
            let (slice, cs) = {
                let mut inner = self.inner.borrow_mut();
                let switching = inner.current != Some(pid);
                inner.current = Some(pid);
                inner.run_seq += 1;
                let seq = inner.run_seq;
                let tick_ns = TICK.as_nanos() as f64;
                let noise = inner.params.timer_noise;
                let cs = if switching {
                    inner.params.context_switch
                } else {
                    SimDuration::ZERO
                };
                let jitter = if noise > 0.0 {
                    let z = inner.rng.borrow_mut().normal();
                    (1.0 + noise * z).max(0.5)
                } else {
                    1.0
                };
                let p = inner.proc_mut(pid).expect("picked pid exists");
                p.last_ran_seq = seq;
                let credit = SimDuration::from_nanos((p.counter.max(0.05) * tick_ns) as u64);
                let want = p.requests.front().expect("runnable has request").remaining;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "model math: the slice is scaled by a jitter drawn from the seeded rng"
                )]
                let slice = want.min(credit).min(MAX_SLICE).mul_f64(jitter);
                // Never schedule a zero-length slice (it would livelock).
                (slice.max(SimDuration::from_nanos(100)), cs)
            };
            // Install the interrupt slot BEFORE any waiting (including the
            // context switch), so a wakeup during the switch forces an
            // immediate re-schedule instead of being lost.
            let slot = Rc::new(RefCell::new(IntrSlot {
                fired: false,
                waker: None,
            }));
            self.inner.borrow_mut().intr = Some(slot.clone());
            if !cs.is_zero() {
                InterruptibleSleep {
                    until: now() + cs,
                    slot: slot.clone(),
                    timer: None,
                }
                .await;
                if slot.borrow().fired {
                    // Preempted before the slice started: re-pick.
                    self.inner.borrow_mut().intr = None;
                    continue;
                }
            }
            let start = now();
            InterruptibleSleep {
                until: start + slice,
                slot: slot.clone(),
                timer: None,
            }
            .await;
            self.inner.borrow_mut().intr = None;
            let ran = now() - start;
            self.charge(pid, ran);
        }
    }

    fn charge(&self, pid: Pid, ran: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        let tick_ns = TICK.as_nanos() as f64;
        let Some(p) = inner.proc_mut(pid) else {
            return;
        };
        p.counter -= ran.as_nanos() as f64 / tick_ns;
        p.cpu_used += ran;
        let finished = if let Some(req) = p.requests.front_mut() {
            req.served += ran.min(req.remaining);
            req.remaining = req.remaining.saturating_sub(ran);
            req.remaining.is_zero()
        } else {
            false
        };
        if finished {
            let req = p.requests.pop_front().expect("request present");
            req.done.send(req.served);
        }
    }
}

/// Handle to one OS process.
#[derive(Clone)]
pub struct ProcessHandle {
    kernel: OsKernel,
    pid: Pid,
}

impl ProcessHandle {
    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The name the process was spawned with (empty if it has exited).
    pub fn name(&self) -> String {
        self.kernel
            .inner
            .borrow()
            .proc(self.pid)
            .map(|p| p.name.to_string())
            .unwrap_or_default()
    }

    /// The process name as a shared [`mgrid_desim::SpanStr`] — a
    /// reference bump, no allocation. Used by span instrumentation on
    /// hot paths (one span per scheduler quantum).
    pub fn name_shared(&self) -> mgrid_desim::SpanStr {
        self.kernel
            .inner
            .borrow()
            .proc(self.pid)
            .map(|p| p.name.clone())
            .unwrap_or_else(|| "".into())
    }

    /// Consume `cpu` seconds of CPU time. Completes once the kernel has
    /// actually granted that much CPU; wall time elapsed is at least `cpu`
    /// and grows with contention, SIGSTOP gating, and scheduling latency.
    ///
    /// If the process has exited (or exits mid-request — e.g. its virtual
    /// host crashed), this future never completes: a dead process cannot
    /// make progress, so the requesting task halts exactly like code running
    /// on the vanished machine would.
    pub async fn run_cpu(&self, cpu: SimDuration) {
        if cpu.is_zero() {
            return;
        }
        self.kernel.ensure_driver();
        let (tx, rx) = oneshot();
        let queued = {
            let mut inner = self.kernel.inner.borrow_mut();
            match inner.proc_mut(self.pid) {
                Some(p) => {
                    p.requests.push_back(Request {
                        remaining: cpu,
                        done: tx,
                        served: SimDuration::ZERO,
                    });
                    true
                }
                None => false,
            }
        };
        if !queued {
            halt_forever().await;
        }
        self.kernel.interrupt();
        // A dropped reply means the process was killed mid-request; the
        // remaining work vanishes with it and the requester halts below.
        let _ = rx.recv().await;
        if self.kernel.inner.borrow().proc(self.pid).is_none() {
            halt_forever().await;
        }
    }

    /// Sleep without consuming CPU (the process blocks voluntarily and
    /// banks scheduler credit while asleep).
    pub async fn os_sleep(&self, d: SimDuration) {
        sleep(d).await;
    }

    /// SIGSTOP: make the process unschedulable, preempting it if running.
    pub fn sigstop(&self) {
        {
            let mut inner = self.kernel.inner.borrow_mut();
            if let Some(p) = inner.proc_mut(self.pid) {
                p.stopped = true;
            }
        }
        self.kernel.interrupt();
    }

    /// SIGCONT: make the process schedulable again.
    pub fn sigcont(&self) {
        {
            let mut inner = self.kernel.inner.borrow_mut();
            if let Some(p) = inner.proc_mut(self.pid) {
                p.stopped = false;
            }
        }
        self.kernel.interrupt();
    }

    /// Total CPU time this process has received.
    pub fn cpu_used(&self) -> SimDuration {
        let inner = self.kernel.inner.borrow();
        inner
            .proc(self.pid)
            .map(|p| p.cpu_used)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Remove the process from the kernel. Any pending request is dropped
    /// (its waiter observes a closed channel).
    pub fn exit(&self) {
        {
            let mut inner = self.kernel.inner.borrow_mut();
            if let Some(i) = inner.find(self.pid) {
                inner.procs.remove(i);
            }
            if inner.current == Some(self.pid) {
                inner.current = None;
            }
        }
        self.kernel.interrupt();
    }
}

/// Park the current task forever: the fate of any task that needs CPU from
/// a process that no longer exists. Bound such waits with
/// `mgrid_desim::with_timeout` when forward progress must be observed.
async fn halt_forever() -> ! {
    std::future::pending::<()>().await;
    unreachable!("pending future completed")
}

struct InterruptibleSleep {
    until: SimTime,
    slot: Rc<RefCell<IntrSlot>>,
    /// `Sleep` is `Unpin`, so it is held inline and pinned per poll.
    timer: Option<mgrid_desim::executor::Sleep>,
}

impl Future for InterruptibleSleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.slot.borrow().fired || now() >= self.until {
            return Poll::Ready(());
        }
        match &mut self.slot.borrow_mut().waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            w => *w = Some(cx.waker().clone()),
        }
        let until = self.until;
        let timer = self
            .timer
            .get_or_insert_with(|| mgrid_desim::sleep_until(until));
        match Pin::new(timer).poll(cx) {
            Poll::Ready(()) => Poll::Ready(()),
            Poll::Pending => {
                if self.slot.borrow().fired {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::{spawn, SimRng, Simulation};

    fn quiet_params() -> OsParams {
        OsParams {
            timer_noise: 0.0,
            context_switch: SimDuration::ZERO,
        }
    }

    #[test]
    fn single_process_gets_full_cpu() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let p = k.spawn_process("worker");
            let start = now();
            p.run_cpu(SimDuration::from_millis(100)).await;
            let wall = now() - start;
            assert_eq!(wall, SimDuration::from_millis(100));
            assert_eq!(p.cpu_used(), SimDuration::from_millis(100));
        });
        sim.run_to_completion();
    }

    #[test]
    fn two_cpu_bound_processes_share_evenly() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let a = k.spawn_process("a");
            let b = k.spawn_process("b");
            let ha = {
                let a = a.clone();
                spawn(async move {
                    a.run_cpu(SimDuration::from_millis(200)).await;
                    now()
                })
            };
            let hb = {
                let b = b.clone();
                spawn(async move {
                    b.run_cpu(SimDuration::from_millis(200)).await;
                    now()
                })
            };
            let ta = ha.await;
            let tb = hb.await;
            // Both need 200ms CPU on a shared CPU: both finish ~400ms.
            let last = ta.max(tb);
            assert!((last.as_secs_f64() - 0.4).abs() < 0.05, "finish at {last}");
            // Fair sharing: each got its requested CPU.
            assert_eq!(a.cpu_used(), SimDuration::from_millis(200));
            assert_eq!(b.cpu_used(), SimDuration::from_millis(200));
        });
        sim.run_to_completion();
    }

    #[test]
    fn sigstop_gates_execution() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let p = k.spawn_process("gated");
            p.sigstop();
            let h = {
                let p = p.clone();
                spawn(async move {
                    p.run_cpu(SimDuration::from_millis(10)).await;
                    now()
                })
            };
            sleep(SimDuration::from_millis(50)).await;
            assert!(h.try_take().is_none(), "stopped process must not run");
            p.sigcont();
            let t = h.await;
            // Resumes at 50ms, needs 10ms CPU.
            let nanos = t.as_nanos();
            assert!((60_000_000..60_100_000).contains(&nanos), "finished at {t}");
        });
        sim.run_to_completion();
    }

    #[test]
    fn sleeper_preempts_spinner_on_wake() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let hog = k.spawn_process("hog");
            let nimble = k.spawn_process("nimble");
            {
                let hog = hog.clone();
                spawn(async move {
                    hog.run_cpu(SimDuration::from_secs(10)).await;
                });
            }
            // Let the hog run a while and drain credit.
            sleep(SimDuration::from_millis(100)).await;
            let start = now();
            nimble.run_cpu(SimDuration::from_micros(500)).await;
            let latency = now() - start - SimDuration::from_micros(500);
            // The sleeper banked credit, so it preempts almost immediately.
            assert!(
                latency < SimDuration::from_millis(2),
                "wakeup latency {latency}"
            );
        });
        sim.run_until(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn cpu_accounting_is_conserved() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(2));
            let mut handles = Vec::new();
            let mut procs = Vec::new();
            for i in 0..4 {
                let p = k.spawn_process(format!("p{i}"));
                procs.push(p.clone());
                handles.push(spawn(async move {
                    p.run_cpu(SimDuration::from_millis(50)).await;
                }));
            }
            for h in handles {
                h.await;
            }
            let total: u64 = procs.iter().map(|p| p.cpu_used().as_nanos()).sum();
            assert_eq!(total, 200_000_000);
            // Serialized on one CPU: wall >= total CPU.
            assert!(now() >= SimTime::from_nanos(200_000_000));
        });
        sim.run_to_completion();
    }

    #[test]
    fn exit_removes_process() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let p = k.spawn_process("gone");
            assert_eq!(p.name(), "gone");
            p.exit();
            // A reaped process has no entry left to name.
            assert_eq!(p.name(), "");
        });
        sim.run_to_completion();
    }

    #[test]
    fn run_cpu_after_exit_parks_forever() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let p = k.spawn_process("doomed");
            p.exit();
            let r = mgrid_desim::timeout::with_timeout(
                SimDuration::from_secs(1),
                p.run_cpu(SimDuration::from_millis(1)),
            )
            .await;
            assert!(
                r.is_none(),
                "compute on an exited process must not complete"
            );
        });
        sim.run_until(SimTime::from_secs_f64(2.0));
    }

    #[test]
    fn exit_mid_request_halts_the_requester() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let k = OsKernel::new(quiet_params(), SimRng::new(1));
            let p = k.spawn_process("victim");
            let h = {
                let p = p.clone();
                spawn(async move {
                    p.run_cpu(SimDuration::from_millis(100)).await;
                })
            };
            sleep(SimDuration::from_millis(10)).await;
            p.exit();
            sleep(SimDuration::from_millis(500)).await;
            assert!(h.try_take().is_none(), "killed process's compute must halt");
        });
        sim.run_until(SimTime::from_secs_f64(1.0));
    }
}
