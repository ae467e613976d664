//! The communicator: point-to-point messaging with tag matching over
//! virtual sockets.
//!
//! The NAS Parallel Benchmarks and CACTUS are MPI programs; in the
//! original system their MPI library rides on the virtualized socket
//! interface (paper §3). This is that layer: an eager/rendezvous
//! protocol with LAM/MPICH-like cost structure — per-message software
//! overhead and per-byte copy costs paid on the (possibly paced) virtual
//! CPU, wire traffic through the simulated network.

use std::cell::{Cell, OnceCell, RefCell};
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;

use mgrid_desim::channel::{oneshot, OneshotSender};
use mgrid_desim::sync::Notify;
use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::timeout::with_timeout;
use mgrid_desim::{obs, spawn, Category, Event, FxHashMap, SpanStr};
use mgrid_middleware::{HostEntry, ProcessCtx, SockError, VSender};
use mgrid_netsim::Payload;

use crate::proto::{MpiData, MpiMsg, Pattern, RecvMsg, Tag};

/// Rank `r` binds `BASE_PORT + r` on its virtual host.
pub const BASE_PORT: u16 = 5000;

/// Messages at or below this size are sent eagerly; above it, the
/// rendezvous protocol (RTS/CTS) is used.
pub const EAGER_THRESHOLD: u64 = 16 * 1024;

/// Software overhead per send call, in Mops (stack traversal, matching,
/// syscall).
pub const SEND_OVERHEAD_MOPS: f64 = 0.015;

/// Software overhead per completed receive, in Mops.
pub const RECV_OVERHEAD_MOPS: f64 = 0.015;

/// Buffer-copy cost per megabyte, in Mops, paid on each side.
pub const COPY_MOPS_PER_MB: f64 = 3.0;

/// Wire size of RTS/CTS control messages and the per-message MPI header.
pub const CONTROL_BYTES: u64 = 64;

/// The settable part of the MPI layer; its cost model and wiring are the
/// constants above.
#[derive(Clone, Debug, Default)]
pub struct MpiParams {
    /// Deadline for blocking waits on a peer (posted receives and
    /// rendezvous CTS waits). `None` (the default) waits forever, real-MPI
    /// style; with a deadline, an expired wait fails the operation with
    /// [`SockError::TimedOut`], counts `mpi.rank_timeouts` and traces an
    /// `Event::RankTimeout` naming the awaited rank — how a fault-tolerant
    /// harness observes that a rank's host crashed or its link went down.
    pub recv_timeout: Option<SimDuration>,
}

/// Tag space reserved for collectives (application tags must be >= 0).
const COLLECTIVE_TAG_BASE: Tag = -1_000_000;

struct Engine {
    /// Arrived eager messages not yet matched, in admission order.
    eager: Vec<(usize, Tag, MpiData)>,
    /// Arrived RTS announcements not yet matched, in admission order.
    rts: Vec<(usize, Tag, u64, u64)>,
    /// Arrived rendezvous data by (src, send_id).
    rdv_data: FxHashMap<(usize, u64), MpiData>,
    /// CTS releases awaited by local rendezvous sends.
    cts_waiters: FxHashMap<u64, OneshotSender<()>>,
    /// Next expected per-source sequence number (non-overtaking order).
    expected_seq: FxHashMap<usize, u64>,
    /// Out-of-order arrivals stashed until their turn, keyed by
    /// (src, seq).
    stash: FxHashMap<(usize, u64), MpiMsg>,
    /// Pulsed on every protocol arrival.
    arrived: Notify,
}

impl Engine {
    /// Admit an in-order Eager/Rts message to the matching queues, then
    /// drain any stashed successors.
    fn admit_in_order(&mut self, src: usize, seq: u64, msg: MpiMsg) {
        let expected = self.expected_seq.entry(src).or_insert(0);
        if seq != *expected {
            self.stash.insert((src, seq), msg);
            return;
        }
        let mut cur = msg;
        loop {
            match cur {
                MpiMsg::Eager { src, tag, data, .. } => self.eager.push((src, tag, data)),
                MpiMsg::Rts {
                    src,
                    tag,
                    send_id,
                    bytes,
                    ..
                } => self.rts.push((src, tag, send_id, bytes)),
                _ => unreachable!("only ordered kinds are admitted"),
            }
            let expected = self.expected_seq.get_mut(&src).expect("present");
            *expected += 1;
            match self.stash.remove(&(src, *expected)) {
                Some(next) => cur = next,
                None => break,
            }
        }
    }
}

/// An MPI-like communicator for one rank of a job.
#[derive(Clone)]
pub struct Comm {
    ctx: ProcessCtx,
    rank: usize,
    /// Every rank's host, resolved once at launch (rank `r` on `peers[r]`).
    peers: Rc<[HostEntry]>,
    sender: VSender,
    /// [`MpiParams::recv_timeout`] of the job.
    recv_timeout: Option<SimDuration>,
    /// What every clone of this rank's communicator and its receive loop
    /// share, in one allocation.
    state: Rc<RankState>,
}

/// The mutable half of one rank's communicator.
struct RankState {
    engine: RefCell<Engine>,
    next_send_id: Cell<u64>,
    seq_out: RefCell<FxHashMap<usize, u64>>,
    collective_epoch: Cell<u32>,
    /// Eager sends still in flight in background tasks.
    outstanding: Cell<usize>,
    drained: Notify,
    /// Interned labels of this rank's collective spans and flows —
    /// allocated on the first traced collective.
    coll_labels: OnceCell<CollLabels>,
}

/// What one rank's collective spans and `"coll"` flow half-points are
/// labelled with.
struct CollLabels {
    /// Span track: the rank's host.
    track: SpanStr,
    /// Span lane, and this rank's flow-key name: `"rankN"`.
    lane: SpanStr,
    /// Span detail: `"xRANKS"`.
    detail: SpanStr,
    /// On rank 0, the flow-key names of ranks `1..`; empty elsewhere.
    peers: Vec<String>,
}

impl Comm {
    /// Create the communicator for `rank` of a world spanning `peers`
    /// (rank `r` lives on `peers[r]`). Binds the rank's port and starts
    /// the receive pump. All ranks must be created before any
    /// communication starts (as `mpirun` guarantees).
    pub fn create(ctx: ProcessCtx, rank: usize, peers: Rc<[HostEntry]>, params: MpiParams) -> Comm {
        assert!(rank < peers.len(), "rank {rank} out of range");
        let sock = ctx.bind(BASE_PORT + rank as u16);
        let sender = sock.sender();
        let state = Rc::new(RankState {
            engine: RefCell::new(Engine {
                eager: Vec::new(),
                rts: Vec::new(),
                rdv_data: FxHashMap::default(),
                cts_waiters: FxHashMap::default(),
                expected_seq: FxHashMap::default(),
                stash: FxHashMap::default(),
                arrived: Notify::new(),
            }),
            next_send_id: Cell::new(0),
            seq_out: RefCell::new(FxHashMap::default()),
            collective_epoch: Cell::new(0),
            outstanding: Cell::new(0),
            drained: Notify::new(),
            coll_labels: OnceCell::new(),
        });
        {
            let state = state.clone();
            mgrid_desim::spawn_daemon(async move {
                loop {
                    let Ok(msg) = sock.recv().await else { break };
                    let Some(mpi) = msg.payload.downcast_ref::<MpiMsg>() else {
                        continue;
                    };
                    let mut e = state.engine.borrow_mut();
                    match mpi {
                        MpiMsg::Eager { src, seq, .. } | MpiMsg::Rts { src, seq, .. } => {
                            e.admit_in_order(*src, *seq, (*mpi).clone());
                        }
                        MpiMsg::Cts { send_id } => {
                            if let Some(tx) = e.cts_waiters.remove(send_id) {
                                tx.send(());
                            }
                        }
                        MpiMsg::RendezvousData { src, send_id, data } => {
                            e.rdv_data.insert((*src, *send_id), data.clone());
                        }
                    }
                    e.arrived.notify_all();
                }
            });
        }
        Comm {
            ctx,
            rank,
            peers,
            sender,
            recv_timeout: params.recv_timeout,
            state,
        }
    }

    /// Record a timed-out wait on `suspect` (`ANY_SOURCE` when the receive
    /// was a wildcard) and build the error the caller returns.
    fn rank_timeout(&self, suspect: i32, waited: SimDuration) -> SockError {
        obs::count("mpi.rank_timeouts", 1);
        let waited_ns = waited.as_nanos();
        obs::emit(|| Event::RankTimeout {
            rank: suspect.max(-1) as u64,
            waited_ns,
        });
        SockError::TimedOut
    }

    /// Wait for the next protocol arrival, bounded by `deadline` when one
    /// is configured. `t0` is when the enclosing wait began (for the
    /// recovery-latency report); `suspect` is the peer being waited on.
    async fn wait_arrival(
        &self,
        n: Notify,
        deadline: Option<SimTime>,
        t0: SimTime,
        suspect: i32,
    ) -> Result<(), SockError> {
        let Some(dl) = deadline else {
            n.notified().await;
            return Ok(());
        };
        let now = mgrid_desim::now();
        if now >= dl {
            return Err(self.rank_timeout(suspect, now.saturating_since(t0)));
        }
        match with_timeout(dl - now, n.notified()).await {
            Some(()) => Ok(()),
            None => Err(self.rank_timeout(suspect, mgrid_desim::now().saturating_since(t0))),
        }
    }

    /// Wait until every buffered (eager) send has fully left this rank —
    /// the flush `MPI_Finalize` performs before tearing the process down.
    pub async fn flush(&self) {
        while self.state.outstanding.get() > 0 {
            self.state.drained.notified().await;
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.peers.len()
    }

    /// The execution context of this rank's process.
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    fn port_of(&self, rank: usize) -> u16 {
        BASE_PORT + rank as u16
    }

    async fn pay(&self, overhead_mops: f64, bytes: u64) {
        let copy = bytes as f64 / 1e6 * COPY_MOPS_PER_MB;
        self.ctx.compute_mops(overhead_mops + copy).await;
    }

    /// Send `data` to `dst` with `tag` (like `MPI_Send`).
    ///
    /// Eager messages complete locally after the copy (buffered send);
    /// rendezvous messages complete once the receiver has pulled the data.
    ///
    /// # Panics
    /// Panics on negative application tags (reserved for collectives).
    pub async fn send(&self, dst: usize, tag: Tag, data: MpiData) -> Result<(), SockError> {
        assert!(tag >= 0, "application tags must be >= 0");
        self.protocol_send(dst, tag, data).await
    }

    async fn protocol_send(&self, dst: usize, tag: Tag, data: MpiData) -> Result<(), SockError> {
        self.pay(SEND_OVERHEAD_MOPS, data.bytes).await;
        let seq = {
            let mut seqs = self.state.seq_out.borrow_mut();
            let s = seqs.entry(dst).or_insert(0);
            let cur = *s;
            *s += 1;
            cur
        };
        let bytes = data.bytes;
        if bytes <= EAGER_THRESHOLD {
            // Eager: hand off to the transport and return (buffered).
            let sender = self.sender.clone();
            let peers = self.peers.clone();
            let port = self.port_of(dst);
            let wire = bytes + CONTROL_BYTES;
            let src = self.rank;
            let state = self.state.clone();
            state.outstanding.set(state.outstanding.get() + 1);
            spawn(async move {
                let _ = sender
                    .send_to(
                        &peers[dst],
                        port,
                        wire,
                        Payload::new(MpiMsg::Eager {
                            src,
                            seq,
                            tag,
                            data,
                        }),
                    )
                    .await;
                state.outstanding.set(state.outstanding.get() - 1);
                if state.outstanding.get() == 0 {
                    state.drained.notify_all();
                }
            });
            return Ok(());
        }
        // Boxed: a rank future awaits sends, and most are eager.
        Box::pin(self.rendezvous_send(dst, tag, seq, data)).await
    }

    /// The rendezvous half of a send above [`EAGER_THRESHOLD`]: RTS, wait
    /// for CTS, then ship the data.
    async fn rendezvous_send(
        &self,
        dst: usize,
        tag: Tag,
        seq: u64,
        data: MpiData,
    ) -> Result<(), SockError> {
        let bytes = data.bytes;
        let send_id = self.state.next_send_id.get();
        self.state.next_send_id.set(send_id + 1);
        let (tx, rx) = oneshot();
        self.state
            .engine
            .borrow_mut()
            .cts_waiters
            .insert(send_id, tx);
        {
            let sender = self.sender.clone();
            let peers = self.peers.clone();
            let port = self.port_of(dst);
            let src = self.rank;
            spawn(async move {
                let _ = sender
                    .send_to(
                        &peers[dst],
                        port,
                        CONTROL_BYTES,
                        Payload::new(MpiMsg::Rts {
                            src,
                            seq,
                            tag,
                            send_id,
                            bytes,
                        }),
                    )
                    .await;
            });
        }
        match self.recv_timeout {
            None => {
                rx.recv().await.map_err(|_| SockError::Closed)?;
            }
            Some(d) => {
                let t0 = mgrid_desim::now();
                match with_timeout(d, rx.recv()).await {
                    Some(r) => {
                        r.map_err(|_| SockError::Closed)?;
                    }
                    None => {
                        // The receiver never granted CTS: stop waiting and
                        // surface the peer as suspect.
                        self.state.engine.borrow_mut().cts_waiters.remove(&send_id);
                        return Err(
                            self.rank_timeout(dst as i32, mgrid_desim::now().saturating_since(t0))
                        );
                    }
                }
            }
        }
        self.sender
            .send_to(
                &self.peers[dst],
                self.port_of(dst),
                bytes + CONTROL_BYTES,
                Payload::new(MpiMsg::RendezvousData {
                    src: self.rank,
                    send_id,
                    data,
                }),
            )
            .await
    }

    /// Receive a message matching `(src, tag)` (like `MPI_Recv`).
    /// Use [`crate::proto::ANY_SOURCE`] / [`crate::proto::ANY_TAG`] as
    /// wildcards via [`Comm::recv_matching`].
    pub async fn recv(&self, src: usize, tag: Tag) -> Result<RecvMsg, SockError> {
        self.recv_matching(Pattern::of(src, tag)).await
    }

    /// Receive the next message satisfying `pattern`.
    ///
    /// With [`MpiParams::recv_timeout`] set, an unmatched wait past the
    /// deadline fails with [`SockError::TimedOut`] and traces an
    /// `Event::RankTimeout` naming the awaited source (`u64::MAX` for a
    /// wildcard).
    pub async fn recv_matching(&self, pattern: Pattern) -> Result<RecvMsg, SockError> {
        let t0 = mgrid_desim::now();
        let deadline = self.recv_timeout.map(|d| t0 + d);
        loop {
            enum Hit {
                Eager(RecvMsg),
                Rts { src: usize, tag: Tag, send_id: u64 },
            }
            let hit = {
                let mut e = self.state.engine.borrow_mut();
                if let Some(i) = e.eager.iter().position(|(s, t, _)| pattern.accepts(*s, *t)) {
                    let (src, tag, data) = e.eager.remove(i);
                    Some(Hit::Eager(RecvMsg { src, tag, data }))
                } else if let Some(i) = e
                    .rts
                    .iter()
                    .position(|(s, t, _, _)| pattern.accepts(*s, *t))
                {
                    let (src, tag, send_id, _bytes) = e.rts.remove(i);
                    Some(Hit::Rts { src, tag, send_id })
                } else {
                    None
                }
            };
            match hit {
                Some(Hit::Eager(msg)) => {
                    self.pay(RECV_OVERHEAD_MOPS, msg.data.bytes).await;
                    return Ok(msg);
                }
                Some(Hit::Rts { src, tag, send_id }) => {
                    // Boxed: most receives match an eager message.
                    let data = Box::pin(self.rendezvous_recv(src, send_id, deadline, t0)).await?;
                    self.pay(RECV_OVERHEAD_MOPS, data.bytes).await;
                    return Ok(RecvMsg { src, tag, data });
                }
                None => {
                    let n = self.state.engine.borrow().arrived.clone();
                    self.wait_arrival(n, deadline, t0, pattern.src).await?;
                }
            }
        }
    }

    /// The rendezvous half of a receive matched to an RTS: release the
    /// sender with a CTS, then wait for its data.
    async fn rendezvous_recv(
        &self,
        src: usize,
        send_id: u64,
        deadline: Option<SimTime>,
        t0: SimTime,
    ) -> Result<MpiData, SockError> {
        self.sender
            .send_to(
                &self.peers[src],
                self.port_of(src),
                CONTROL_BYTES,
                Payload::new(MpiMsg::Cts { send_id }),
            )
            .await?;
        loop {
            {
                let mut e = self.state.engine.borrow_mut();
                if let Some(d) = e.rdv_data.remove(&(src, send_id)) {
                    return Ok(d);
                }
            }
            let n = self.state.engine.borrow().arrived.clone();
            self.wait_arrival(n, deadline, t0, src as i32).await?;
        }
    }

    /// Combined send+receive (like `MPI_Sendrecv`), overlapping the two.
    pub async fn sendrecv(
        &self,
        dst: usize,
        send_tag: Tag,
        data: MpiData,
        src: usize,
        recv_tag: Tag,
    ) -> Result<RecvMsg, SockError> {
        let comm = self.clone();
        let send = spawn(async move { comm.send(dst, send_tag, data).await });
        let msg = self.recv(src, recv_tag).await?;
        send.await?;
        Ok(msg)
    }

    fn next_collective_tag(&self) -> Tag {
        let epoch = self.state.collective_epoch.get();
        self.state.collective_epoch.set(epoch + 1);
        COLLECTIVE_TAG_BASE - epoch as Tag * 64
    }

    /// Wrap one collective call with trace events, timing metrics, and a
    /// causal span. Emitted per participating rank; `elapsed_ns` is this
    /// rank's wall time in the collective (skew across ranks is visible
    /// in the histogram spread).
    ///
    /// Each rank records one `Mpi` span per collective. Non-root ranks
    /// publish a `"coll"` flow half-point toward rank 0; rank 0 consumes
    /// one per peer after the collective completes. Collectives are
    /// globally SPMD-ordered, so the k-th half-point on each side of a
    /// `(rank r, rank 0)` key always belongs to the same collective.
    ///
    /// The body is borrowed, pinned in the caller's frame: owned, it
    /// would be stored twice in this future (as argument and awaitee).
    async fn timed<T>(
        &self,
        op: &'static str,
        body: Pin<&mut dyn Future<Output = Result<T, SockError>>>,
    ) -> Result<T, SockError> {
        let ranks = self.size();
        obs::emit(|| Event::CollectiveStart { op, ranks });
        let rank = self.rank;
        let labels = || {
            self.state.coll_labels.get_or_init(|| CollLabels {
                track: self.peers[rank].name.clone(),
                lane: format!("rank{rank}").into(),
                detail: format!("x{ranks}").into(),
                peers: if rank == 0 {
                    (1..ranks).map(|r| format!("rank{r}")).collect()
                } else {
                    Vec::new()
                },
            })
        };
        let span = obs::span_begin(Category::Mpi, op, || {
            let l = labels();
            (l.track.clone(), l.lane.clone(), l.detail.clone())
        });
        if !span.is_none() && rank != 0 {
            obs::flow_out("coll", &labels().lane, "rank0", span);
        }
        let t0 = mgrid_desim::now();
        let out = body.await;
        let elapsed_ns = (mgrid_desim::now() - t0).as_nanos();
        if !span.is_none() {
            for peer in &labels().peers {
                obs::flow_in("coll", peer, "rank0", span);
            }
        }
        obs::span_end(span);
        obs::count("mpi.collectives", 1);
        obs::observe("mpi.collective_ns", elapsed_ns);
        obs::emit(|| Event::CollectiveEnd {
            op,
            ranks,
            elapsed_ns,
        });
        out
    }

    /// Barrier (dissemination algorithm, `ceil(log2(n))` rounds).
    pub async fn barrier(&self) -> Result<(), SockError> {
        self.timed("barrier", pin!(self.barrier_impl())).await
    }

    async fn barrier_impl(&self) -> Result<(), SockError> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let tag0 = self.next_collective_tag();
        let mut k = 1usize;
        let mut round = 0;
        while k < n {
            let to = (self.rank + k) % n;
            let from = (self.rank + n - k) % n;
            let tag = tag0 - round;
            let send = {
                let comm = self.clone();
                spawn(async move { comm.protocol_send(to, tag, MpiData::bytes_only(0)).await })
            };
            self.recv(from, tag).await?;
            send.await?;
            k <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcast from `root` (binomial tree). Non-root ranks receive and
    /// return the broadcast data; the root returns its own.
    pub async fn bcast(&self, root: usize, data: Option<MpiData>) -> Result<MpiData, SockError> {
        self.timed("bcast", pin!(self.bcast_impl(root, data))).await
    }

    async fn bcast_impl(&self, root: usize, data: Option<MpiData>) -> Result<MpiData, SockError> {
        let n = self.size();
        let tag = self.next_collective_tag();
        let vrank = (self.rank + n - root) % n;
        let data = if vrank == 0 {
            data.expect("root must supply broadcast data")
        } else {
            // Receive from the parent in the binomial tree.
            let parent_v = vrank & (vrank - 1); // clear lowest set bit
            let parent = (parent_v + root) % n;
            self.recv(parent, tag).await?.data
        };
        // Forward to children: children of v are v | (1<<j) for j above
        // v's lowest set bit range.
        let mut j = 1usize;
        while j < n {
            if vrank & (j - 1) == 0 && vrank & j == 0 {
                let child_v = vrank | j;
                if child_v < n {
                    let child = (child_v + root) % n;
                    self.protocol_send(child, tag, data.clone()).await?;
                }
            }
            j <<= 1;
        }
        Ok(data)
    }

    /// Reduce typed values to `root` with `combine` (binomial tree).
    /// `bytes` is the logical payload size used for costing. Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub async fn reduce<T, F>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
        combine: F,
    ) -> Result<Option<T>, SockError>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.timed(
            "reduce",
            pin!(self.reduce_impl(root, value, bytes, combine)),
        )
        .await
    }

    async fn reduce_impl<T, F>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
        combine: F,
    ) -> Result<Option<T>, SockError>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let n = self.size();
        let tag = self.next_collective_tag();
        let vrank = (self.rank + n - root) % n;
        let mut acc = value;
        let mut j = 1usize;
        // Receive from children (in increasing j), combine.
        while j < n {
            if vrank & (j - 1) == 0 && vrank & j == 0 {
                let child_v = vrank | j;
                if child_v < n {
                    let child = (child_v + root) % n;
                    let msg = self.recv(child, tag).await?;
                    let other = msg.data.downcast::<T>().expect("type mismatch in reduce");
                    acc = combine(&acc, &other);
                }
            }
            j <<= 1;
        }
        if vrank == 0 {
            return Ok(Some(acc));
        }
        let parent_v = vrank & (vrank - 1);
        let parent = (parent_v + root) % n;
        self.protocol_send(parent, tag, MpiData::typed(bytes, acc))
            .await?;
        Ok(None)
    }

    /// Allreduce: reduce to rank 0, then broadcast the result.
    ///
    /// Instrumented as a single `allreduce` collective (the inner reduce
    /// and bcast phases are not double-counted).
    pub async fn allreduce<T, F>(&self, value: T, bytes: u64, combine: F) -> Result<T, SockError>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(&T, &T) -> T,
    {
        let body = pin!(async {
            let reduced = self.reduce_impl(0, value, bytes, combine).await?;
            let data = self
                .bcast_impl(0, reduced.map(|v| MpiData::typed(bytes, v)))
                .await?;
            Ok(data
                .downcast::<T>()
                .expect("type mismatch in allreduce")
                .as_ref()
                .clone())
        });
        self.timed("allreduce", body).await
    }

    /// Gather one value per rank at `root`. Returns `Some(values)` (rank
    /// order) on the root, `None` elsewhere.
    pub async fn gather<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
    ) -> Result<Option<Vec<T>>, SockError> {
        self.timed("gather", pin!(self.gather_impl(root, value, bytes)))
            .await
    }

    async fn gather_impl<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
    ) -> Result<Option<Vec<T>>, SockError> {
        let n = self.size();
        let tag = self.next_collective_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = vec![None; n];
            out[root] = Some(value);
            for _ in 0..n - 1 {
                let msg = self
                    .recv_matching(Pattern {
                        src: crate::proto::ANY_SOURCE,
                        tag,
                    })
                    .await?;
                let v = msg.data.downcast::<T>().expect("type mismatch in gather");
                out[msg.src] = Some(v.as_ref().clone());
            }
            Ok(Some(
                out.into_iter()
                    .map(|v| v.expect("all ranks sent"))
                    .collect(),
            ))
        } else {
            self.protocol_send(root, tag, MpiData::typed(bytes, value))
                .await?;
            Ok(None)
        }
    }

    /// All-to-all personalized exchange: `chunks[d]` goes to rank `d`.
    /// Returns the chunks received, indexed by source rank.
    pub async fn alltoall<T: Clone + Send + Sync + 'static>(
        &self,
        chunks: Vec<(T, u64)>,
    ) -> Result<Vec<T>, SockError> {
        self.timed("alltoall", pin!(self.alltoall_impl(chunks)))
            .await
    }

    async fn alltoall_impl<T: Clone + Send + Sync + 'static>(
        &self,
        chunks: Vec<(T, u64)>,
    ) -> Result<Vec<T>, SockError> {
        let n = self.size();
        assert_eq!(chunks.len(), n, "alltoall needs one chunk per rank");
        let tag = self.next_collective_tag();
        let mut own: Option<T> = None;
        let mut sends = Vec::new();
        for (d, (chunk, bytes)) in chunks.into_iter().enumerate() {
            if d == self.rank {
                own = Some(chunk);
            } else {
                let comm = self.clone();
                sends.push(spawn(async move {
                    comm.protocol_send(d, tag, MpiData::typed(bytes, chunk))
                        .await
                }));
            }
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        out[self.rank] = own;
        for _ in 0..n - 1 {
            let msg = self
                .recv_matching(Pattern {
                    src: crate::proto::ANY_SOURCE,
                    tag,
                })
                .await?;
            let v = msg.data.downcast::<T>().expect("type mismatch in alltoall");
            out[msg.src] = Some(v.as_ref().clone());
        }
        for s in sends {
            s.await?;
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("all ranks sent"))
            .collect())
    }
}
