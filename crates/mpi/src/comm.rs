//! The communicator: point-to-point messaging with tag matching over
//! virtual sockets.
//!
//! The NAS Parallel Benchmarks and CACTUS are MPI programs; in the
//! original system their MPI library rides on the virtualized socket
//! interface (paper §3). This is that layer: an eager/rendezvous
//! protocol with LAM/MPICH-like cost structure — per-message software
//! overhead and per-byte copy costs paid on the (possibly paced) virtual
//! CPU, wire traffic through the simulated network.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mgrid_desim::channel::{oneshot, OneshotSender};
use mgrid_desim::sync::Notify;
use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::timeout::with_timeout;
use mgrid_desim::{obs, spawn, Category, Event, FxHashMap, FxHashSet, SpanStr};
use mgrid_middleware::{ProcessCtx, SockError, VSender};
use mgrid_netsim::Payload;

use crate::proto::{MpiData, MpiMsg, Pattern, RecvMsg, Tag};

/// Cost-model and wiring parameters of the MPI layer.
#[derive(Clone, Debug)]
pub struct MpiParams {
    /// Rank `r` binds `base_port + r` on its virtual host.
    pub base_port: u16,
    /// Messages at or below this size are sent eagerly; above it, the
    /// rendezvous protocol (RTS/CTS) is used.
    pub eager_threshold: u64,
    /// Software overhead per send call, in Mops (stack traversal,
    /// matching, syscall).
    pub send_overhead_mops: f64,
    /// Software overhead per completed receive, in Mops.
    pub recv_overhead_mops: f64,
    /// Buffer-copy cost per megabyte, in Mops, paid on each side.
    pub copy_mops_per_mb: f64,
    /// Wire size of RTS/CTS control messages and the per-message MPI
    /// header.
    pub control_bytes: u64,
    /// Deadline for blocking waits on a peer (posted receives and
    /// rendezvous CTS waits). `None` (the default) waits forever, real-MPI
    /// style; with a deadline, an expired wait fails the operation with
    /// [`SockError::TimedOut`] and records the peer in
    /// [`Comm::failed_ranks`] — how a fault-tolerant harness observes that
    /// a rank's host crashed or was partitioned away.
    pub recv_timeout: Option<SimDuration>,
}

impl Default for MpiParams {
    fn default() -> Self {
        MpiParams {
            base_port: 5000,
            eager_threshold: 16 * 1024,
            send_overhead_mops: 0.015,
            recv_overhead_mops: 0.015,
            copy_mops_per_mb: 3.0,
            control_bytes: 64,
            recv_timeout: None,
        }
    }
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
    hosts: Rc<Vec<String>>,
    sender: VSender,
    engine: Rc<RefCell<Engine>>,
    params: Rc<MpiParams>,
    next_send_id: Rc<Cell<u64>>,
    seq_out: Rc<RefCell<FxHashMap<usize, u64>>>,
    collective_epoch: Rc<Cell<u32>>,
    /// Eager sends still in flight in background tasks.
    outstanding: Rc<Cell<usize>>,
    drained: Notify,
    /// Ranks this communicator has timed out waiting on (suspected dead).
    failed: Rc<RefCell<FxHashSet<usize>>>,
    /// Interned labels of this rank's collective spans and flows —
    /// allocated on the first traced collective.
    coll_labels: Rc<std::cell::OnceCell<CollLabels>>,
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
    /// Create the communicator for `rank` of a world spanning `hosts`
    /// (rank `r` lives on `hosts[r]`). Binds the rank's port and starts
    /// the receive pump. All ranks must be created before any
    /// communication starts (as `mpirun` guarantees).
    pub fn create(ctx: ProcessCtx, rank: usize, hosts: Rc<Vec<String>>, params: MpiParams) -> Comm {
        assert!(rank < hosts.len(), "rank {rank} out of range");
        let sock = ctx.bind(params.base_port + rank as u16);
        let sender = sock.sender();
        let engine = Rc::new(RefCell::new(Engine {
            eager: Vec::new(),
            rts: Vec::new(),
            rdv_data: FxHashMap::default(),
            cts_waiters: FxHashMap::default(),
            expected_seq: FxHashMap::default(),
            stash: FxHashMap::default(),
            arrived: Notify::new(),
        }));
        {
            let engine = engine.clone();
            mgrid_desim::spawn_daemon(async move {
                loop {
                    let Ok(msg) = sock.recv().await else { break };
                    let Some(mpi) = msg.payload.downcast_ref::<MpiMsg>() else {
                        continue;
                    };
                    let mut e = engine.borrow_mut();
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
            hosts,
            sender,
            engine,
            params: Rc::new(params),
            next_send_id: Rc::new(Cell::new(0)),
            seq_out: Rc::new(RefCell::new(FxHashMap::default())),
            collective_epoch: Rc::new(Cell::new(0)),
            outstanding: Rc::new(Cell::new(0)),
            drained: Notify::new(),
            failed: Rc::new(RefCell::new(FxHashSet::default())),
            coll_labels: Rc::new(std::cell::OnceCell::new()),
        }
    }

    /// Ranks this communicator has timed out waiting on (sorted). Empty
    /// unless [`MpiParams::recv_timeout`] is set and a wait expired.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.failed.borrow().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Record a timed-out wait on `suspect` (`ANY_SOURCE` when the receive
    /// was a wildcard) and build the error the caller returns.
    fn rank_timeout(&self, suspect: i32, waited: SimDuration) -> SockError {
        if suspect >= 0 {
            self.failed.borrow_mut().insert(suspect as usize);
        }
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
        while self.outstanding.get() > 0 {
            self.drained.notified().await;
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.hosts.len()
    }

    /// The execution context of this rank's process.
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    /// The virtual hostname of a rank.
    pub fn host_of(&self, rank: usize) -> &str {
        &self.hosts[rank]
    }

    fn port_of(&self, rank: usize) -> u16 {
        self.params.base_port + rank as u16
    }

    async fn pay(&self, overhead_mops: f64, bytes: u64) {
        let copy = bytes as f64 / 1e6 * self.params.copy_mops_per_mb;
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
        self.pay(self.params.send_overhead_mops, data.bytes).await;
        let seq = {
            let mut seqs = self.seq_out.borrow_mut();
            let s = seqs.entry(dst).or_insert(0);
            let cur = *s;
            *s += 1;
            cur
        };
        let bytes = data.bytes;
        if bytes <= self.params.eager_threshold {
            // Eager: hand off to the transport and return (buffered).
            let sender = self.sender.clone();
            let host = self.hosts[dst].clone();
            let port = self.port_of(dst);
            let wire = bytes + self.params.control_bytes;
            let src = self.rank;
            self.outstanding.set(self.outstanding.get() + 1);
            let outstanding = self.outstanding.clone();
            let drained = self.drained.clone();
            spawn(async move {
                let _ = sender
                    .send_to(
                        &host,
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
                outstanding.set(outstanding.get() - 1);
                if outstanding.get() == 0 {
                    drained.notify_all();
                }
            });
            return Ok(());
        }
        // Rendezvous: RTS, wait for CTS, then ship the data.
        let send_id = self.next_send_id.get();
        self.next_send_id.set(send_id + 1);
        let (tx, rx) = oneshot();
        self.engine.borrow_mut().cts_waiters.insert(send_id, tx);
        {
            let sender = self.sender.clone();
            let host = self.hosts[dst].clone();
            let port = self.port_of(dst);
            let control = self.params.control_bytes;
            let src = self.rank;
            spawn(async move {
                let _ = sender
                    .send_to(
                        &host,
                        port,
                        control,
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
        match self.params.recv_timeout {
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
                        self.engine.borrow_mut().cts_waiters.remove(&send_id);
                        return Err(
                            self.rank_timeout(dst as i32, mgrid_desim::now().saturating_since(t0))
                        );
                    }
                }
            }
        }
        self.sender
            .send_to(
                &self.hosts[dst],
                self.port_of(dst),
                bytes + self.params.control_bytes,
                Payload::new(MpiMsg::RendezvousData {
                    src: self.rank,
                    send_id,
                    data,
                }),
            )
            .await
    }

    /// Non-blocking send: returns a handle to await completion.
    pub fn isend(
        &self,
        dst: usize,
        tag: Tag,
        data: MpiData,
    ) -> mgrid_desim::JoinHandle<Result<(), SockError>> {
        let comm = self.clone();
        spawn(async move { comm.send(dst, tag, data).await })
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
    /// deadline fails with [`SockError::TimedOut`] and records the awaited
    /// source (when specific) in [`Comm::failed_ranks`].
    pub async fn recv_matching(&self, pattern: Pattern) -> Result<RecvMsg, SockError> {
        let t0 = mgrid_desim::now();
        let deadline = self.params.recv_timeout.map(|d| t0 + d);
        loop {
            enum Hit {
                Eager(RecvMsg),
                Rts { src: usize, tag: Tag, send_id: u64 },
            }
            let hit = {
                let mut e = self.engine.borrow_mut();
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
                    self.pay(self.params.recv_overhead_mops, msg.data.bytes)
                        .await;
                    return Ok(msg);
                }
                Some(Hit::Rts { src, tag, send_id }) => {
                    // Release the sender, then wait for the data.
                    self.sender
                        .send_to(
                            &self.hosts[src],
                            self.port_of(src),
                            self.params.control_bytes,
                            Payload::new(MpiMsg::Cts { send_id }),
                        )
                        .await?;
                    let data = loop {
                        {
                            let mut e = self.engine.borrow_mut();
                            if let Some(d) = e.rdv_data.remove(&(src, send_id)) {
                                break d;
                            }
                        }
                        let n = self.engine.borrow().arrived.clone();
                        self.wait_arrival(n, deadline, t0, src as i32).await?;
                    };
                    self.pay(self.params.recv_overhead_mops, data.bytes).await;
                    return Ok(RecvMsg { src, tag, data });
                }
                None => {
                    let n = self.engine.borrow().arrived.clone();
                    self.wait_arrival(n, deadline, t0, pattern.src).await?;
                }
            }
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
        let send = self.isend(dst, send_tag, data);
        let msg = self.recv(src, recv_tag).await?;
        send.await?;
        Ok(msg)
    }

    fn next_collective_tag(&self) -> Tag {
        let epoch = self.collective_epoch.get();
        self.collective_epoch.set(epoch + 1);
        COLLECTIVE_TAG_BASE - epoch as Tag * 64
    }

    async fn coll_send(&self, dst: usize, tag: Tag, data: MpiData) -> Result<(), SockError> {
        self.protocol_send(dst, tag, data).await
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
    async fn timed<T>(
        &self,
        op: &'static str,
        fut: impl std::future::Future<Output = Result<T, SockError>>,
    ) -> Result<T, SockError> {
        let ranks = self.size();
        obs::emit(|| Event::CollectiveStart { op, ranks });
        let rank = self.rank;
        let labels = || {
            self.coll_labels.get_or_init(|| CollLabels {
                track: self.hosts[rank].as_str().into(),
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
        let out = fut.await;
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
        self.timed("barrier", self.barrier_impl()).await
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
                spawn(async move { comm.coll_send(to, tag, MpiData::bytes_only(0)).await })
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
        self.timed("bcast", self.bcast_impl(root, data)).await
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
                    self.coll_send(child, tag, data.clone()).await?;
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
        self.timed("reduce", self.reduce_impl(root, value, bytes, combine))
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
        self.coll_send(parent, tag, MpiData::typed(bytes, acc))
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
        self.timed("allreduce", async {
            let reduced = self.reduce_impl(0, value, bytes, combine).await?;
            let data = self
                .bcast_impl(0, reduced.map(|v| MpiData::typed(bytes, v)))
                .await?;
            Ok(data
                .downcast::<T>()
                .expect("type mismatch in allreduce")
                .as_ref()
                .clone())
        })
        .await
    }

    /// Gather one value per rank at `root`. Returns `Some(values)` (rank
    /// order) on the root, `None` elsewhere.
    pub async fn gather<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
    ) -> Result<Option<Vec<T>>, SockError> {
        self.timed("gather", self.gather_impl(root, value, bytes))
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
            self.coll_send(root, tag, MpiData::typed(bytes, value))
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
        self.timed("alltoall", self.alltoall_impl(chunks)).await
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
                    comm.coll_send(d, tag, MpiData::typed(bytes, chunk)).await
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
