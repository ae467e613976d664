//! The single-threaded deterministic async executor.
//!
//! Tasks are ordinary Rust futures. Time only advances when every runnable
//! task has been polled to a blocked state; the executor then pops the
//! earliest timer from the event queue and jumps the clock to it. Events at
//! equal instants fire in registration order, so a given program + seed
//! always produces the same trace.
//!
//! The executor is deliberately `!Send`: a simulation lives on one thread
//! and uses `Rc`/`RefCell` internally. Parallelism across *simulations*
//! (e.g. the parallel figure regeneration in `mgrid-bench`) is still
//! possible because each `Simulation` is self-contained.
//!
//! ## Storage layout (hot-path design)
//!
//! Everything per-event is slab-indexed rather than hash-mapped:
//!
//! * **Tasks** live in a generation-tagged slab (`Vec<TaskSlot>` + free
//!   list). A [`TaskId`] packs `slot | generation`, so a stale wake for a
//!   completed task is rejected by a generation compare instead of a hash
//!   probe, and spawn/complete never allocate map nodes.
//! * **A task's future is boxed once**, at its own size: the slot holds
//!   the spawned future itself behind a `dyn` that hands its output to
//!   the task's join state, not an `async` wrapper that would carry the
//!   future twice (once captured, once as its awaitee).
//! * **Task wakers** are created once per task and cached in its slot.
//!   A poll *takes* the waker out of the slot and puts it back on
//!   `Pending`, exactly as it does with the future, so polling touches no
//!   reference count.
//! * **Timers** wait in one `Vec` sorted latest-first, so the next to
//!   fire is the last entry: peek and pop are O(1). A push walks back
//!   from that due end past every entry due at or before it (most sleeps
//!   are short and stop within a few steps) and bisects the rest after
//!   eight steps; landing before the entries due at the same instant
//!   keeps the tie-break by registration order without a sequence number.
//!   A cancelled timer's entry stays until it reaches the due end or a
//!   purge. What to wake lives in a generation-tagged slab addressed by a
//!   private `TimerHandle`, which carries its simulation's key: only that
//!   simulation re-arms or cancels it. A timer registered with the
//!   waker the executor handed to the task being polled (the common case:
//!   a `Sleep` awaited by its own task) stores that task's [`TaskId`], and
//!   firing it is a plain push on the ready queue, in the same order as
//!   the `wake()` it stands for. Any other waker (a test's, a
//!   combinator's own) is cloned into the slot, and re-arming uses
//!   [`Waker::will_wake`] to skip redundant clones.
//! * What still clones a waker per wait: [`crate::sync::Notify`], the
//!   channels and [`JoinHandle`], which park wakers outside the executor.
//! * The **ready queue** is a plain `RefCell<VecDeque>` of the
//!   simulation. A task waker holds its [`TaskId`] and its simulation's
//!   key (owner thread and a per-thread count), and `wake` queues the
//!   task only on the running simulation with that key: other wakes are
//!   dropped, and one off the owner thread panics.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, RawWakerVTable, Wake, Waker};

use crate::obs::Obs;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task: a slab slot in the low 32 bits and the
/// slot's generation in the high 32 bits. Identifiers are unique within a
/// simulation for its whole lifetime; comparing ids from different
/// simulations is meaningless.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    fn new(slot: u32, gen: u32) -> Self {
        TaskId((u64::from(gen) << 32) | u64::from(slot))
    }
    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A spawned future with its output type erased. Every future is one, so
/// a task boxes the spawned future itself, at its own size.
trait TaskFuture {
    /// Poll the future. On completion its output goes into `join`, the
    /// task's `RefCell<JoinState<Output>>`, and the waker of whoever
    /// awaits the [`JoinHandle`] comes back, to be woken once the future
    /// is dropped. A daemon has no join state: its output is dropped.
    fn poll_task(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        join: Option<&dyn Any>,
    ) -> Poll<Option<Waker>>;
}

impl<F> TaskFuture for F
where
    F: Future,
    F::Output: 'static,
{
    fn poll_task(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        join: Option<&dyn Any>,
    ) -> Poll<Option<Waker>> {
        let Poll::Ready(out) = self.poll(cx) else {
            return Poll::Pending;
        };
        let Some(join) = join else {
            return Poll::Ready(None);
        };
        let mut join = join
            .downcast_ref::<RefCell<JoinState<F::Output>>>()
            .expect("a task's join state holds its future's output type")
            .borrow_mut();
        join.result = Some(out);
        Poll::Ready(join.waker.take())
    }
}

/// A spawned task: its future and the join state its output goes to
/// (`None` for a daemon, whose output nobody reads).
struct Task {
    fut: Pin<Box<dyn TaskFuture>>,
    join: Option<Rc<dyn Any>>,
}

/// Which simulation a task waker belongs to: the thread that created it
/// and how many simulations that thread had created before it.
type SimKey = (std::thread::ThreadId, u64);

struct TaskWaker {
    id: TaskId,
    sim: SimKey,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    /// Queue the task on its simulation if that is the one running on
    /// this thread; otherwise the wake is dropped, and a wake off the
    /// owner thread panics.
    fn wake_by_ref(self: &Arc<Self>) {
        let queued = CURRENT.with(|c| match c.borrow().as_deref() {
            Some(s) if s.key == self.sim => {
                s.ready.borrow_mut().push_back(self.id);
                true
            }
            _ => false,
        });
        if !queued {
            assert_eq!(
                std::thread::current().id(),
                self.sim.0,
                "simulation waker used off the simulation's own thread"
            );
        }
    }
}

/// One slab slot of the task table.
struct TaskSlot {
    /// Bumped every time the slot is recycled; a wake whose id carries a
    /// stale generation is ignored.
    gen: u32,
    /// `None` while the slot is free or the task is being polled.
    task: Option<Task>,
    /// Waker created on first poll and reused for every later poll;
    /// `None` before the first poll and while the task is being polled.
    waker: Option<Waker>,
    daemon: bool,
    live: bool,
}

/// One pending timer in [`SimInner::timers`]: when it is due and the
/// slab slot (with its generation) of what it wakes.
struct TimerEntry {
    at: SimTime,
    slot: u32,
    gen: u32,
}

/// Opaque handle to a registered timer, used to re-arm or cancel it on
/// the simulation that issued it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerHandle {
    slot: u32,
    gen: u32,
    sim: SimKey,
}

/// What a pending timer wakes when it fires.
enum TimerWake {
    /// The task that registered the timer with its own executor-issued
    /// waker: firing pushes the id on the ready queue, which is all that
    /// waker's `wake()` does.
    Task(TaskId),
    /// Any other waker, cloned.
    Waker(Waker),
}

/// Slab slot holding what one pending timer wakes.
struct TimerSlot {
    gen: u32,
    wake: Option<TimerWake>,
}

/// The task being polled and the identity of the waker it was handed.
/// The pointers are only ever compared, never dereferenced; they stay
/// unique while the cell holds them because `poll_task` owns the waker
/// for that long.
#[derive(Clone, Copy)]
struct PolledTask {
    id: TaskId,
    waker_data: *const (),
    waker_vtable: &'static RawWakerVTable,
}

/// Sets [`SimInner::polled`] for the duration of one poll and restores
/// the previous value on every exit, unwinding included.
struct PolledGuard<'a> {
    cell: &'a Cell<Option<PolledTask>>,
    prev: Option<PolledTask>,
}

impl Drop for PolledGuard<'_> {
    fn drop(&mut self) {
        self.cell.set(self.prev);
    }
}

pub(crate) struct SimInner {
    now: Cell<SimTime>,
    tasks: RefCell<Vec<TaskSlot>>,
    task_free: RefCell<Vec<u32>>,
    /// Non-daemon tasks spawned and not yet completed.
    live_count: Cell<usize>,
    /// The task `poll_task` is in the middle of polling, if any.
    polled: Cell<Option<PolledTask>>,
    /// What its task wakers carry to find this simulation.
    key: SimKey,
    /// Tasks to poll, in wake order.
    ready: RefCell<VecDeque<TaskId>>,
    /// Pending timers sorted latest-first: by `at` descending, and among
    /// entries due at the same instant the later-registered first. The
    /// next to fire is the last.
    timers: RefCell<Vec<TimerEntry>>,
    timer_slots: RefCell<Vec<TimerSlot>>,
    timer_free: RefCell<Vec<u32>>,
    /// Entries of `timers` whose timer was cancelled (generation-stale).
    /// Kept so the queue can be compacted once the dead weight dominates.
    stale_timers: Cell<usize>,
    rng: RefCell<SimRng>,
    polls: Cell<u64>,
    obs: Obs,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<SimInner>>> = const { RefCell::new(None) };
    /// Simulations this thread has created: the count in the next one's key.
    static SIMS_CREATED: Cell<u64> = const { Cell::new(0) };
}

fn with_current<R>(f: impl FnOnce(&Rc<SimInner>) -> R) -> R {
    try_with_current(f)
        .expect("not inside a Simulation context (call via Simulation::run or block_on)")
}

/// Like [`with_current`], but a no-op returning `None` outside a
/// simulation context. The observability free functions use this so
/// instrumented code stays callable from plain unit tests.
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Rc<SimInner>) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// The simulation driver.
///
/// ```
/// use mgrid_desim::{Simulation, time::SimDuration};
///
/// let mut sim = Simulation::new(42);
/// sim.spawn(async {
///     mgrid_desim::sleep(SimDuration::from_millis(5)).await;
/// });
/// let end = sim.run();
/// assert_eq!(end.as_millis(), 5);
/// ```
pub struct Simulation {
    inner: Rc<SimInner>,
}

impl Simulation {
    /// Create a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                tasks: RefCell::new(Vec::new()),
                task_free: RefCell::new(Vec::new()),
                live_count: Cell::new(0),
                polled: Cell::new(None),
                key: (
                    std::thread::current().id(),
                    SIMS_CREATED.with(|n| n.replace(n.get() + 1)),
                ),
                ready: RefCell::new(VecDeque::with_capacity(64)),
                timers: RefCell::new(Vec::with_capacity(64)),
                timer_slots: RefCell::new(Vec::new()),
                timer_free: RefCell::new(Vec::new()),
                stale_timers: Cell::new(0),
                rng: RefCell::new(SimRng::new(seed)),
                polls: Cell::new(0),
                obs: Obs::new(),
            }),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// This simulation's observability surface (tracer + metrics).
    ///
    /// Tracing starts disabled; call [`Obs::enable_tracing`] to capture
    /// typed events. Metrics are always collected.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Spawn a root task. May also be called from inside tasks through the
    /// free function [`spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.inner.spawn_future(fut)
    }

    /// Total number of task polls performed (engine throughput metric).
    pub fn poll_count(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Number of non-daemon tasks that have been spawned but not yet
    /// completed. Daemon tasks (see [`spawn_daemon`]) are infrastructure
    /// loops expected to outlive the workload and are not counted.
    pub fn live_tasks(&self) -> usize {
        self.inner.live_count.get()
    }

    /// Run until no runnable tasks and no pending timers remain.
    ///
    /// Returns the final simulation time. Tasks that are still blocked on
    /// external wakeups (e.g. a channel nobody will ever write to) are left
    /// pending; check [`Simulation::live_tasks`] to detect deadlock.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run until the event queue is exhausted or the next event would occur
    /// after `deadline`. The clock is left at `min(deadline, final time)`.
    ///
    /// A task waker queues its task only while its simulation is running:
    /// a wake before the first run, between two runs or while the
    /// simulation is dropped is lost. Timers registered in one run still
    /// fire in the next.
    ///
    /// # Examples
    /// ```
    /// use mgrid_desim::time::{SimDuration, SimTime};
    /// use mgrid_desim::Simulation;
    ///
    /// let mut sim = Simulation::new(7);
    /// sim.spawn(async {
    ///     mgrid_desim::sleep(SimDuration::from_millis(30)).await;
    /// });
    /// // The deadline caps the clock; the sleeper is still pending.
    /// let t = sim.run_until(SimTime::from_nanos(10_000_000));
    /// assert_eq!(t.as_millis(), 10);
    /// assert_eq!(sim.live_tasks(), 1);
    /// assert_eq!(sim.run().as_millis(), 30);
    /// ```
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_core(deadline, || false)
    }

    /// The core loop: run until quiescence, the deadline, or `stop()`
    /// returning true (checked between event batches; `block_on`'s
    /// root-completed test).
    fn run_core(&mut self, deadline: SimTime, stop: impl Fn() -> bool) -> SimTime {
        let _guard = ContextGuard::enter(self.inner.clone());
        loop {
            // Phase 1: poll every ready task until quiescent.
            while let Some(id) = self.inner.pop_ready() {
                self.inner.poll_task(id);
            }
            if stop() {
                break;
            }
            // Phase 2: advance to the earliest timer.
            let Some(entry_at) = self.inner.peek_timer() else {
                break;
            };
            if entry_at > deadline {
                self.inner.now.set(deadline);
                break;
            }
            self.inner.advance_to(entry_at);
        }
        self.inner.now.get()
    }

    /// Run the simulation to completion and panic if any task is still
    /// blocked at the end — the standard harness for tests, where a blocked
    /// task means a deadlock bug.
    pub fn run_to_completion(&mut self) -> SimTime {
        let t = self.run();
        let live = self.live_tasks();
        assert!(
            live == 0,
            "simulation ended with {live} blocked task(s) at {t}"
        );
        t
    }

    /// Convenience: spawn `fut` and run until it completes, then return its
    /// output. The simulation stops as soon as the root task finishes, so
    /// perpetual daemon tasks (schedulers, network pumps) do not prevent
    /// termination.
    ///
    /// # Panics
    /// Panics if the simulation runs out of events before `fut` completes.
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        let state = handle.state.clone();
        self.run_core(SimTime::MAX, || state.borrow().result.is_some());
        handle
            .try_take()
            .expect("block_on: root task did not complete (deadlock?)")
    }
}

impl SimInner {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    fn spawn_future<F>(self: &Rc<Self>, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        self.insert_task(Task {
            fut: Box::pin(fut),
            join: Some(state.clone()),
        });
        JoinHandle { state }
    }

    /// Put `task` in a free slot (a daemon if it has no join state) and
    /// queue its first poll.
    fn insert_task(self: &Rc<Self>, task: Task) {
        let daemon = task.join.is_none();
        let id = {
            let mut tasks = self.tasks.borrow_mut();
            match self.task_free.borrow_mut().pop() {
                Some(slot) => {
                    let s = &mut tasks[slot as usize];
                    debug_assert!(s.task.is_none() && !s.live);
                    s.task = Some(task);
                    s.daemon = daemon;
                    s.live = true;
                    TaskId::new(slot, s.gen)
                }
                None => {
                    let slot = u32::try_from(tasks.len()).expect("task slab exhausted");
                    tasks.push(TaskSlot {
                        gen: 0,
                        task: Some(task),
                        waker: None,
                        daemon,
                        live: true,
                    });
                    TaskId::new(slot, 0)
                }
            }
        };
        if !daemon {
            self.live_count.set(self.live_count.get() + 1);
        }
        self.ready.borrow_mut().push_back(id);
    }

    /// The next task to poll. The queue's borrow ends here, before the
    /// poll that may wake tasks onto it.
    fn pop_ready(&self) -> Option<TaskId> {
        self.ready.borrow_mut().pop_front()
    }

    fn poll_task(self: &Rc<Self>, id: TaskId) {
        // Take the future and its waker out so the task may spawn/wake
        // reentrantly.
        let (mut task, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id.slot()) else {
                return;
            };
            if slot.gen != id.gen() {
                return; // stale wake for a recycled slot
            }
            let Some(task) = slot.task.take() else {
                return; // completed (or mid-poll); spurious wake
            };
            let waker = slot
                .waker
                .take()
                .unwrap_or_else(|| Waker::from(Arc::new(TaskWaker { id, sim: self.key })));
            (task, waker)
        };
        let mut cx = Context::from_waker(&waker);
        self.polls.set(self.polls.get() + 1);
        let polled = {
            let _polled = PolledGuard {
                cell: &self.polled,
                prev: self.polled.replace(Some(PolledTask {
                    id,
                    waker_data: waker.data(),
                    waker_vtable: waker.vtable(),
                })),
            };
            task.fut.as_mut().poll_task(&mut cx, task.join.as_deref())
        };
        match polled {
            Poll::Ready(joiner) => {
                // Run the future's destructors before re-borrowing the
                // task table: dropping captured state may re-enter the
                // executor (cancel timers, wake tasks, even spawn). The
                // joiner wakes after them.
                drop(task);
                if let Some(w) = joiner {
                    w.wake();
                }
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id.slot()];
                if !slot.daemon {
                    self.live_count.set(self.live_count.get() - 1);
                }
                slot.gen = slot.gen.wrapping_add(1);
                slot.daemon = false;
                slot.live = false;
                self.task_free.borrow_mut().push(id.slot() as u32);
            }
            Poll::Pending => {
                let mut tasks = self.tasks.borrow_mut();
                let slot = &mut tasks[id.slot()];
                slot.task = Some(task);
                slot.waker = Some(waker);
            }
        }
    }

    /// What a timer registered with `waker` has to wake: the task being
    /// polled if `waker` is the one it was handed, else a clone of it.
    #[inline]
    fn timer_wake(&self, waker: &Waker) -> TimerWake {
        match self.polled.get() {
            Some(p)
                if waker.data() == p.waker_data && std::ptr::eq(waker.vtable(), p.waker_vtable) =>
            {
                TimerWake::Task(p.id)
            }
            _ => TimerWake::Waker(waker.clone()),
        }
    }

    fn peek_timer(&self) -> Option<SimTime> {
        // Pop cancelled entries off the due end so the reported time is a
        // *live* deadline.
        let mut timers = self.timers.borrow_mut();
        let slots = self.timer_slots.borrow();
        while let Some(e) = timers.last() {
            if slots[e.slot as usize].gen == e.gen {
                return Some(e.at);
            }
            timers.pop();
            self.stale_timers
                .set(self.stale_timers.get().saturating_sub(1));
        }
        None
    }

    /// Jump the clock to `at` and fire every timer scheduled for that
    /// instant (in registration order).
    fn advance_to(&self, at: SimTime) {
        debug_assert!(at >= self.now.get(), "time went backwards");
        self.now.set(at);
        loop {
            let Some(TimerEntry { slot, gen, .. }) =
                self.timers.borrow_mut().pop_if(|e| e.at == at)
            else {
                break;
            };
            let wake = {
                let mut slots = self.timer_slots.borrow_mut();
                let s = &mut slots[slot as usize];
                if s.gen != gen {
                    // Cancelled timer: its entry is a no-op.
                    self.stale_timers
                        .set(self.stale_timers.get().saturating_sub(1));
                    continue;
                }
                let w = s.wake.take();
                s.gen = s.gen.wrapping_add(1);
                self.timer_free.borrow_mut().push(slot);
                w
            };
            match wake {
                Some(TimerWake::Task(id)) => self.ready.borrow_mut().push_back(id),
                Some(TimerWake::Waker(w)) => w.wake(),
                None => {}
            }
        }
    }

    pub(crate) fn register_timer(&self, at: SimTime, waker: &Waker) -> TimerHandle {
        /// Entries a push compares one by one from the due end before it
        /// bisects the rest: a walk as long as the queue would cost a
        /// 768-host run's 10 ms quantum sleeps a scan of most of it.
        const TIMER_WALK: usize = 8;
        let wake = Some(self.timer_wake(waker));
        let (slot, gen) = {
            let mut slots = self.timer_slots.borrow_mut();
            match self.timer_free.borrow_mut().pop() {
                Some(slot) => {
                    let s = &mut slots[slot as usize];
                    debug_assert!(s.wake.is_none());
                    s.wake = wake;
                    (slot, s.gen)
                }
                None => {
                    let slot = u32::try_from(slots.len()).expect("timer slab exhausted");
                    slots.push(TimerSlot { gen: 0, wake });
                    (slot, 0)
                }
            }
        };
        // Go before every entry due at or before `at`: the new timer is
        // the latest registered, so it fires after those due at `at` too.
        let mut timers = self.timers.borrow_mut();
        let walked = timers
            .iter()
            .rev()
            .take(TIMER_WALK)
            .take_while(|e| e.at <= at)
            .count();
        let mut i = timers.len() - walked;
        if walked == TIMER_WALK {
            i = timers[..i].partition_point(|e| e.at > at);
        }
        timers.insert(i, TimerEntry { at, slot, gen });
        TimerHandle {
            slot,
            gen,
            sim: self.key,
        }
    }

    /// Re-arm `handle`'s timer, still pending, with `waker`. The handle is
    /// this simulation's.
    pub(crate) fn update_timer_waker(&self, handle: TimerHandle, waker: &Waker) {
        debug_assert!(handle.sim == self.key);
        let mut slots = self.timer_slots.borrow_mut();
        let s = &mut slots[handle.slot as usize];
        if s.gen == handle.gen {
            match &s.wake {
                Some(TimerWake::Waker(w)) if w.will_wake(waker) => {}
                _ => s.wake = Some(self.timer_wake(waker)),
            }
        }
    }

    /// Cancel `handle`'s timer if this simulation issued it and it is
    /// still pending. Another simulation's handle may name a live slot
    /// here, or one past the slab's end: it is left alone.
    pub(crate) fn cancel_timer(&self, handle: TimerHandle) {
        if handle.sim != self.key {
            return;
        }
        // The queue entry stays and is skipped on pop (generation
        // mismatch); clearing the slot and bumping the generation
        // neutralizes it.
        {
            let mut slots = self.timer_slots.borrow_mut();
            let s = &mut slots[handle.slot as usize];
            if s.gen != handle.gen {
                return;
            }
            s.wake = None;
            s.gen = s.gen.wrapping_add(1);
            self.timer_free.borrow_mut().push(handle.slot);
        }
        self.stale_timers.set(self.stale_timers.get() + 1);
        self.maybe_purge_timers();
    }

    /// Lazily compact the timer queue. Long chaos runs arm and cancel
    /// huge numbers of retry timeouts, and every cancelled entry lingers
    /// in the queue until it reaches the due end; once more than half
    /// the entries are generation-stale, drop them all in one pass that
    /// keeps the live ones in order. The O(len) pass amortizes against
    /// the cancellations that created the dead weight;
    /// `desim.timers_purged` counts the entries dropped.
    fn maybe_purge_timers(&self) {
        /// Below this size the dead weight cannot cost enough to be
        /// worth a pass.
        const MIN_QUEUE_FOR_PURGE: usize = 64;
        let stale = self.stale_timers.get();
        let mut timers = self.timers.borrow_mut();
        if timers.len() < MIN_QUEUE_FOR_PURGE || stale * 2 <= timers.len() {
            return;
        }
        let slots = self.timer_slots.borrow();
        let before = timers.len();
        timers.retain(|e| slots[e.slot as usize].gen == e.gen);
        let purged = before - timers.len();
        drop(slots);
        drop(timers);
        self.stale_timers.set(0);
        self.obs
            .metrics()
            .count("desim.timers_purged", purged as u64);
    }
}

struct ContextGuard {
    prev: Option<Rc<SimInner>>,
}

impl ContextGuard {
    fn enter(inner: Rc<SimInner>) -> Self {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(inner));
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's result.
///
/// Awaiting the handle yields the task's output. The handle may also be
/// inspected after the simulation finishes with [`JoinHandle::try_take`].
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.result.take() {
            Poll::Ready(v)
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Free functions usable from inside tasks
// ---------------------------------------------------------------------------

/// Current simulation time (inside a running simulation).
#[inline]
pub fn now() -> SimTime {
    with_current(|s| s.now.get())
}

/// Spawn a task from inside the simulation.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|s| s.spawn_future(fut))
}

/// Spawn an infrastructure task (scheduler driver, network pump, …) that is
/// expected to run forever. Daemon tasks are excluded from
/// [`Simulation::live_tasks`], so [`Simulation::run_to_completion`] does not
/// treat them as deadlocks. Nothing joins a daemon: it has no
/// [`JoinHandle`], and its output, if it ever ends, is dropped.
pub fn spawn_daemon<F>(fut: F)
where
    F: Future + 'static,
    F::Output: 'static,
{
    with_current(|s| {
        s.insert_task(Task {
            fut: Box::pin(fut),
            join: None,
        })
    })
}

/// Run a closure with the simulation's shared RNG.
pub fn with_rng<R>(f: impl FnOnce(&mut SimRng) -> R) -> R {
    with_current(|s| f(&mut s.rng.borrow_mut()))
}

/// Fork an independent RNG stream from the simulation's root RNG.
pub fn fork_rng() -> SimRng {
    with_current(|s| s.rng.borrow_mut().fork())
}

/// Sleep for a span of simulated physical time.
#[inline]
pub fn sleep(d: SimDuration) -> Sleep {
    Sleep {
        deadline: Deadline::After(d),
        timer: None,
    }
}

/// Sleep until an absolute instant.
#[inline]
pub fn sleep_until(at: SimTime) -> Sleep {
    Sleep {
        deadline: Deadline::At(at),
        timer: None,
    }
}

/// When a [`Sleep`] ends: a span from its first poll, fixed to an instant
/// by that poll.
enum Deadline {
    After(SimDuration),
    At(SimTime),
}

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    deadline: Deadline,
    timer: Option<TimerHandle>,
}

impl Future for Sleep {
    type Output = ();
    #[inline]
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        with_current(|s| {
            let at = match this.deadline {
                Deadline::At(at) => at,
                Deadline::After(d) => {
                    let at = s.now.get() + d;
                    this.deadline = Deadline::At(at);
                    at
                }
            };
            if s.now.get() >= at {
                if let Some(handle) = this.timer.take() {
                    s.cancel_timer(handle);
                }
                Poll::Ready(())
            } else {
                match this.timer {
                    Some(handle) if handle.sim == s.key => s.update_timer_waker(handle, cx.waker()),
                    // Not armed yet, or armed on another simulation that
                    // cannot wake this one's task: arm it here.
                    _ => this.timer = Some(s.register_timer(at, cx.waker())),
                }
                Poll::Pending
            }
        })
    }
}

impl Drop for Sleep {
    #[inline]
    fn drop(&mut self) {
        if let Some(handle) = self.timer.take() {
            // Best-effort: outside a context (sim already dropped) there is
            // nothing to cancel, and `cancel_timer` leaves another
            // simulation's timers alone.
            try_with_current(|s| s.cancel_timer(handle));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The slot's box holds the spawned future and nothing else: a
    /// wrapper around it would hold the future's state twice.
    #[test]
    fn a_task_is_boxed_once_at_its_futures_size() {
        let sim = Simulation::new(0);
        let fut = async {
            let big = [7u8; 4096];
            sleep(SimDuration::from_millis(1)).await;
            u64::from(big[4095])
        };
        let size = std::mem::size_of_val(&fut);
        assert!(size >= 4096, "the state is held across the await");
        let _h = sim.spawn(fut);
        let tasks = sim.inner.tasks.borrow();
        let task = tasks[0].task.as_ref().expect("spawned, not yet polled");
        let boxed = std::mem::size_of_val(task.fut.as_ref().get_ref());
        assert!(
            boxed <= size + 4 * std::mem::size_of::<usize>(),
            "a {size}-byte future is boxed in {boxed} bytes"
        );
    }

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new(0);
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            sleep(SimDuration::from_millis(10)).await;
            assert_eq!(now().as_millis(), 10);
            sleep(SimDuration::from_millis(5)).await;
            assert_eq!(now().as_millis(), 15);
        });
        assert_eq!(sim.run_to_completion().as_millis(), 15);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_millis(delay)).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["b", "c", "a"]);
    }

    #[test]
    fn same_instant_fires_in_registration_order() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_millis(7)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Simulation::new(0);
        let out = sim.block_on(async {
            let h = spawn(async {
                sleep(SimDuration::from_micros(100)).await;
                41
            });
            h.await + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let flag = Rc::new(Cell::new(false));
        let f2 = flag.clone();
        sim.spawn(async move {
            sleep(SimDuration::from_secs(10)).await;
            f2.set(true);
        });
        let t = sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(t, SimTime::from_secs_f64(1.0));
        assert!(!flag.get());
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn deadlocked_task_is_reported() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..10 {
                let log = log.clone();
                sim.spawn(async move {
                    let d = with_rng(|r| 1 + r.below(999));
                    sleep(SimDuration::from_micros(d)).await;
                    log.borrow_mut().push(now().as_nanos());
                });
            }
            sim.run_to_completion();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn join_handle_try_take() {
        let mut sim = Simulation::new(0);
        let h = sim.spawn(async { "done" });
        assert_eq!(h.try_take(), None);
        sim.run();
        assert_eq!(h.try_take(), Some("done"));
        assert_eq!(h.try_take(), None);
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            sleep(SimDuration::ZERO).await;
            assert_eq!(now(), SimTime::ZERO);
        });
        sim.run_to_completion();
    }

    #[test]
    fn many_tasks_scale() {
        let mut sim = Simulation::new(0);
        let counter = Rc::new(Cell::new(0u32));
        for i in 0..1000 {
            let c = counter.clone();
            sim.spawn(async move {
                sleep(SimDuration::from_nanos(i)).await;
                c.set(c.get() + 1);
            });
        }
        sim.run_to_completion();
        assert_eq!(counter.get(), 1000);
    }

    #[test]
    fn task_slots_are_recycled() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            for _ in 0..100 {
                let h = spawn(async {
                    sleep(SimDuration::from_nanos(1)).await;
                });
                h.await;
            }
        });
        sim.run_to_completion();
        // One slot for the root task, one recycled slot for the children.
        assert!(sim.inner.tasks.borrow().len() <= 3);
    }

    #[test]
    fn stale_wakes_do_not_poll_recycled_slots() {
        // A waker kept alive past its task's completion must not wake
        // whatever task is recycled into the same slot.
        use std::task::Waker;
        let mut sim = Simulation::new(0);
        let stale: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let s2 = stale.clone();
        sim.spawn(async move {
            // Capture this task's waker, then finish.
            std::future::poll_fn(move |cx| {
                *s2.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
        let polls_before = sim.poll_count();
        // Recycle the slot with a task that fires the stale waker as it runs.
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            stale.borrow().as_ref().unwrap().wake_by_ref();
            sleep(SimDuration::from_millis(1)).await;
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        // The stale wake costs no task poll (generation mismatch): only
        // the new task's two polls happened.
        assert_eq!(sim.poll_count(), polls_before + 2);
    }

    /// A waker that is not a task's: counts its wakes.
    struct CountingWaker(std::sync::atomic::AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl CountingWaker {
        fn wakes(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    /// Poll `sleep` once from inside the running task, with `waker` or,
    /// when `None`, with the task's own.
    async fn poll_once(sleep: &mut Sleep, waker: Option<&Waker>) -> Poll<()> {
        std::future::poll_fn(|cx| {
            let mut sleep = Pin::new(&mut *sleep);
            Poll::Ready(match waker {
                Some(w) => sleep.as_mut().poll(&mut Context::from_waker(w)),
                None => sleep.as_mut().poll(cx),
            })
        })
        .await
    }

    /// For each pending timer, in slot order: whether it wakes by `TaskId`
    /// (`true`) or through a cloned waker (`false`).
    fn pending_timers_wake_by_task_id(sim: &Simulation) -> Vec<bool> {
        let slots = sim.inner.timer_slots.borrow();
        slots
            .iter()
            .filter_map(|s| s.wake.as_ref())
            .map(|w| matches!(w, TimerWake::Task(_)))
            .collect()
    }

    #[test]
    fn timer_registered_with_a_foreign_waker_fires_it_once() {
        let mut sim = Simulation::new(0);
        let foreign = Arc::new(CountingWaker(Default::default()));
        let f2 = foreign.clone();
        sim.spawn(async move {
            let waker = Waker::from(f2.clone());
            let mut timer = sleep(SimDuration::from_millis(1));
            assert!(poll_once(&mut timer, Some(&waker)).await.is_pending());
            // Re-arming with the same foreign waker keeps the one timer.
            assert!(poll_once(&mut timer, Some(&waker)).await.is_pending());
            sleep(SimDuration::from_millis(5)).await;
            assert_eq!(f2.wakes(), 1);
            assert!(poll_once(&mut timer, Some(&waker)).await.is_ready());
        });
        sim.run_until(SimTime::ZERO);
        // The task's own sleep wakes by id, the foreign one by waker.
        assert_eq!(pending_timers_wake_by_task_id(&sim), [false, true]);
        sim.run_until(SimTime::from_nanos(1_000_000));
        // The 1 ms timer woke the foreign waker, not the task.
        assert_eq!(foreign.wakes(), 1);
        assert_eq!(sim.poll_count(), 1);
        sim.run_to_completion();
        assert_eq!(foreign.wakes(), 1);
        assert_eq!(sim.poll_count(), 2);
    }

    #[test]
    fn sleep_moved_between_tasks_wakes_the_one_that_polled_last() {
        let mut sim = Simulation::new(0);
        let parked: Rc<RefCell<Option<Sleep>>> = Rc::new(RefCell::new(None));
        let p2 = parked.clone();
        let first = sim.spawn(async move {
            let mut timer = sleep(SimDuration::from_millis(1));
            // First polled here, so the timer is registered for this task.
            assert!(poll_once(&mut timer, None).await.is_pending());
            *p2.borrow_mut() = Some(timer);
            std::future::pending::<()>().await;
        });
        let second = sim.spawn(async move {
            let timer = parked.borrow_mut().take().expect("first task ran first");
            timer.await;
            now()
        });
        sim.run();
        assert_eq!(second.try_take(), Some(SimTime::from_nanos(1_000_000)));
        assert!(first.try_take().is_none());
        // One poll of the first task, two of the second: the timer did not
        // wake the task that registered it.
        assert_eq!(sim.poll_count(), 3);
    }

    #[test]
    fn timers_of_a_completed_task_poll_nothing_in_its_recycled_slot() {
        let mut sim = Simulation::new(0);
        let parked: Rc<RefCell<Vec<Sleep>>> = Rc::new(RefCell::new(Vec::new()));
        let p2 = parked.clone();
        sim.spawn(async move {
            // Two timers registered for this task outlive it.
            for ms in [1, 2] {
                let mut timer = sleep(SimDuration::from_millis(ms));
                assert!(poll_once(&mut timer, None).await.is_pending());
                p2.borrow_mut().push(timer);
            }
        });
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.poll_count(), 1);
        assert_eq!(pending_timers_wake_by_task_id(&sim), [true, true]);
        // The slot is recycled by a task that cancels the 2 ms timer and
        // is asleep when the 1 ms one fires.
        let woken_at = sim.spawn(async move {
            drop(parked.borrow_mut().pop());
            sleep(SimDuration::from_millis(5)).await;
            now()
        });
        assert_eq!(sim.inner.tasks.borrow().len(), 1);
        sim.run_until(SimTime::from_nanos(3_000_000));
        assert_eq!(sim.poll_count(), 2);
        sim.run();
        assert_eq!(woken_at.try_take(), Some(SimTime::from_nanos(5_000_000)));
        assert_eq!(sim.poll_count(), 3);
    }

    #[test]
    fn timer_slots_are_recycled() {
        let mut sim = Simulation::new(0);
        sim.spawn(async {
            for _ in 0..1000 {
                sleep(SimDuration::from_nanos(7)).await;
            }
        });
        sim.run_to_completion();
        assert!(sim.inner.timer_slots.borrow().len() <= 4);
    }

    #[test]
    fn cancelled_timers_do_not_mask_the_next_event() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            // Register a 1 ms timer, then cancel it by dropping the
            // sleep; only the 9 ms sleep below remains live.
            let mut early = Some(Box::pin(sleep(SimDuration::from_millis(1))));
            std::future::poll_fn(move |cx| {
                let _ = early.as_mut().unwrap().as_mut().poll(cx);
                early.take();
                Poll::Ready(())
            })
            .await;
            sleep(SimDuration::from_millis(9)).await;
        });
        sim.run_until(SimTime::ZERO);
        // The stale 1 ms entry must be invisible.
        assert_eq!(sim.inner.peek_timer(), Some(SimTime::from_nanos(9_000_000)));
        assert_eq!(sim.run().as_millis(), 9);
    }

    #[test]
    fn waker_woken_from_another_thread_panics() {
        let mut sim = Simulation::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        sim.spawn(std::future::poll_fn(move |cx| {
            tx.send(cx.waker().clone()).expect("receiver is alive");
            Poll::Ready(())
        }));
        sim.run();
        let waker = rx.recv().expect("the task ran");
        let panic = std::thread::spawn(move || waker.wake())
            .join()
            .expect_err("waking off the owner thread must panic");
        let message = panic.downcast_ref::<String>().expect("assert message");
        assert!(
            message.contains("simulation waker used off the simulation's own thread"),
            "{message}"
        );
        // The queue was never touched: the simulation is still usable.
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn wakes_reach_only_their_own_running_simulation() {
        let parked = Rc::new(Cell::new(None));
        let (mut a, p2) = (Simulation::new(0), parked.clone());
        a.spawn(std::future::poll_fn(move |cx| {
            p2.set(Some(cx.waker().clone()));
            Poll::<()>::Pending
        }));
        a.run();
        let waker: Waker = parked.take().expect("A's task ran");
        // B's task has A's task's id (slot 0, generation 0): a wake of
        // A's queued on B would poll it a third time.
        let (mut b, w2) = (Simulation::new(0), waker.clone());
        b.spawn(async move {
            w2.wake();
            sleep(SimDuration::from_millis(1)).await;
        });
        b.run_to_completion();
        assert_eq!(b.poll_count(), 2);
        // Neither that wake nor one between A's runs reaches A.
        waker.wake();
        a.run();
        assert_eq!((a.poll_count(), a.live_tasks()), (1, 1));
    }

    #[test]
    fn stale_timer_entries_are_purged_in_bulk() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            // Arm 256 far-future timers, then cancel them all by drop.
            let mut sleeps: Vec<_> = (0..256u64)
                .map(|i| Box::pin(sleep(SimDuration::from_secs(100 + i))))
                .collect();
            std::future::poll_fn(move |cx| {
                for s in &mut sleeps {
                    let _ = s.as_mut().poll(cx);
                }
                sleeps.clear();
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
        // The lazy purge must have compacted the queue well below the 256
        // armed entries and recorded what it dropped.
        assert!(sim.inner.timers.borrow().len() < 64);
        assert!(sim.obs().metrics().counter("desim.timers_purged") >= 128);
    }

    /// The tag that keeps a timer on its own simulation costs `Sleep` no
    /// bytes: every host future holds several.
    #[test]
    fn a_sleep_stays_40_bytes() {
        assert_eq!(std::mem::size_of::<Sleep>(), 40);
    }

    #[test]
    fn dropping_a_sleep_of_another_simulation_leaves_this_ones_timers() {
        // A's task holds pending sleeps in timer slots 0 and 1, both at
        // generation 0.
        let mut a = Simulation::new(0);
        a.spawn(async {
            let mut first = sleep(SimDuration::from_millis(5));
            assert!(poll_once(&mut first, None).await.is_pending());
            sleep(SimDuration::from_millis(5)).await;
        });
        a.run_until(SimTime::ZERO);
        assert_eq!(a.inner.timer_slots.borrow().len(), 2);
        // B's task arms its 1 ms sleep in slot 0, generation 0, then drops
        // A: A's sleeps drop inside B's run. Their handles name B's live
        // timer and a slot past B's slab.
        let mut b = Simulation::new(0);
        let woken_at = b.spawn(async move {
            let mut timer = sleep(SimDuration::from_millis(1));
            assert!(poll_once(&mut timer, None).await.is_pending());
            drop(a);
            timer.await;
            now()
        });
        b.run();
        assert_eq!(woken_at.try_take(), Some(SimTime::from_nanos(1_000_000)));
    }

    #[test]
    fn a_sleep_moved_to_another_simulation_arms_a_timer_there() {
        // A registers the 3 ms sleep in slot 0, generation 0, and lends it.
        let parked: Rc<RefCell<Option<Sleep>>> = Rc::new(RefCell::new(None));
        let p2 = parked.clone();
        let mut a = Simulation::new(0);
        a.spawn(async move {
            let mut timer = sleep(SimDuration::from_millis(3));
            assert!(poll_once(&mut timer, None).await.is_pending());
            *p2.borrow_mut() = Some(timer);
        });
        a.run_until(SimTime::ZERO);
        // B's own 1 ms timer holds the same slot and generation. Polling
        // the lent sleep in B must neither re-arm that timer for the
        // borrowing task nor skip arming one of its own.
        let mut b = Simulation::new(0);
        let own = b.spawn(async {
            sleep(SimDuration::from_millis(1)).await;
            now()
        });
        let lent = b.spawn(async move {
            let timer = parked.borrow_mut().take().expect("A's task ran");
            timer.await;
            now()
        });
        b.run();
        assert_eq!(own.try_take(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(lent.try_take(), Some(SimTime::from_nanos(3_000_000)));
        // A's timer was left alone: it still fires in A.
        assert_eq!(a.inner.peek_timer(), Some(SimTime::from_nanos(3_000_000)));
    }

    thread_local! {
        /// Ids of the model test's timers in the order they fired.
        static FIRED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// Logs its timer's id to [`FIRED`] when woken.
    struct LogWaker(usize);

    impl Wake for LogWaker {
        fn wake(self: Arc<Self>) {
            FIRED.with(|f| f.borrow_mut().push(self.0));
        }
    }

    /// The binary heap the timer queue replaced, lazy deletion and purge
    /// rule included: what the queue must match step for step.
    #[derive(Default)]
    struct HeapModel {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
        /// Per timer id: still pending and not cancelled.
        live: Vec<bool>,
        stale: usize,
        purged: u64,
        now: SimTime,
        fired: Vec<usize>,
    }

    impl HeapModel {
        fn register(&mut self, at: SimTime) {
            self.heap.push(std::cmp::Reverse((at, self.live.len())));
            self.live.push(true);
        }

        fn cancel(&mut self, id: usize) {
            if !std::mem::replace(&mut self.live[id], false) {
                return;
            }
            self.stale += 1;
            if self.heap.len() >= 64 && self.stale * 2 > self.heap.len() {
                let before = self.heap.len();
                let live = &self.live;
                self.heap.retain(|std::cmp::Reverse((_, id))| live[*id]);
                self.purged += (before - self.heap.len()) as u64;
                self.stale = 0;
            }
        }

        fn run_until(&mut self, deadline: SimTime) {
            loop {
                while let Some(&std::cmp::Reverse((_, id))) = self.heap.peek() {
                    if self.live[id] {
                        break;
                    }
                    self.heap.pop();
                    self.stale = self.stale.saturating_sub(1);
                }
                let Some(&std::cmp::Reverse((at, _))) = self.heap.peek() else {
                    return;
                };
                if at > deadline {
                    self.now = deadline;
                    return;
                }
                self.now = at;
                while let Some(&std::cmp::Reverse((due, id))) = self.heap.peek() {
                    if due != at {
                        break;
                    }
                    self.heap.pop();
                    if std::mem::replace(&mut self.live[id], false) {
                        self.fired.push(id);
                    } else {
                        self.stale = self.stale.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// One step of the model test, drawn as `(kind, a, b)`.
    type Op = (u64, u64, u64);

    /// Run `ops` on a simulation and on [`HeapModel`], comparing the
    /// firing order, `desim.timers_purged`, the pending length and the
    /// clock after every step. Returns the entries purged.
    fn check_against_heap_model(ops: &[Op]) -> u64 {
        FIRED.with(|f| f.borrow_mut().clear());
        let mut sim = Simulation::new(0);
        let mut model = HeapModel::default();
        // Per timer id: its sleep, until cancelled or dropped.
        let mut sleeps: Vec<Option<Pin<Box<Sleep>>>> = Vec::new();
        let register = |sim: &Simulation, model: &mut HeapModel, at: SimTime| {
            let _ctx = ContextGuard::enter(sim.inner.clone());
            let mut s = Box::pin(sleep_until(at));
            let waker = Waker::from(Arc::new(LogWaker(model.live.len())));
            let mut cx = Context::from_waker(&waker);
            assert!(s.as_mut().poll(&mut cx).is_pending());
            // A second poll re-arms the same timer.
            assert!(s.as_mut().poll(&mut cx).is_pending());
            model.register(at);
            Some(s)
        };
        for &(kind, a, b) in ops {
            let now = sim.now();
            match kind {
                // Near: many timers due at the same few instants.
                0..=2 => {
                    let at = now + SimDuration::from_nanos(1 + (a % 8) * 1000);
                    sleeps.push(register(&sim, &mut model, at));
                }
                // Short sleeps of any length below 1 ms.
                3 => {
                    let at = now + SimDuration::from_nanos(1 + a % 1_000_000);
                    sleeps.push(register(&sim, &mut model, at));
                }
                // Far deadlines, some tied with each other.
                4 => {
                    let at = now + SimDuration::from_secs(1 + a % 4);
                    sleeps.push(register(&sim, &mut model, at));
                }
                // A burst of far timers: the queue grows past the purge floor.
                5 => {
                    for i in 0..24 {
                        let d = SimDuration::from_millis(10 + (a % 5_000 + i * (b % 997)) % 5_000);
                        sleeps.push(register(&sim, &mut model, now + d));
                    }
                }
                // Cancel or drop one timer, pending, fired or gone.
                6 | 7 if model.live.is_empty() => {}
                6 | 7 => {
                    let id = (a % model.live.len() as u64) as usize;
                    if let Some(mut s) = sleeps[id].take() {
                        let _ctx = ContextGuard::enter(sim.inner.clone());
                        if kind == 6 {
                            if let Some(h) = s.timer.take() {
                                sim.inner.cancel_timer(h);
                            }
                        }
                        drop(s);
                        model.cancel(id);
                    }
                }
                // Drop most of what is pending: the purge fires.
                8 => {
                    let _ctx = ContextGuard::enter(sim.inner.clone());
                    for (id, s) in sleeps.iter_mut().enumerate() {
                        if !(id as u64 + a).is_multiple_of(4) && s.take().is_some() {
                            model.cancel(id);
                        }
                    }
                }
                // Run a little, or far.
                9 | 10 => {
                    let d = SimDuration::from_nanos(b % 3_000_000);
                    sim.run_until(now + d);
                    model.run_until(now + d);
                }
                _ => {
                    let d = SimDuration::from_millis(b % 8_000);
                    sim.run_until(now + d);
                    model.run_until(now + d);
                }
            }
            FIRED.with(|f| assert_eq!(*f.borrow(), model.fired));
            assert_eq!(
                sim.obs().metrics().counter("desim.timers_purged"),
                model.purged
            );
            assert_eq!(sim.inner.timers.borrow().len(), model.heap.len());
            assert_eq!(sim.now(), model.now);
        }
        sim.run();
        model.run_until(SimTime::MAX);
        FIRED.with(|f| assert_eq!(*f.borrow(), model.fired));
        assert!(sim.inner.timers.borrow().is_empty());
        model.purged
    }

    #[test]
    fn timer_queue_matches_the_heap_model_through_purges() {
        let mut ops: Vec<Op> = (0..6).map(|i| (5, i, 7 + i)).collect();
        ops.extend((0..40).map(|i| (i % 4, i * 37, 0)));
        ops.extend([
            (8, 1, 0),
            (9, 0, 2_000_000),
            (5, 3, 11),
            (8, 2, 0),
            (11, 0, 7_999),
        ]);
        assert!(check_against_heap_model(&ops) >= 64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random register, cancel, drop and run sequences fire, purge
        /// and keep pending exactly what the binary heap did.
        #[test]
        fn timer_queue_matches_the_heap_model(
            ops in proptest::collection::vec(
                (0u64..12, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                1..160,
            ),
        ) {
            check_against_heap_model(&ops);
        }
    }
}
