//! Causal spans and cross-process flow edges.
//!
//! The flat [`crate::trace::Tracer`] answers *what happened*; spans
//! answer *what caused what* and *what dominated*. A span is a named
//! interval of virtual time on a `(track, lane)` pair — track is a
//! virtual host (a Perfetto "process" row), lane is a process or daemon
//! within it (a Perfetto "thread" row). Spans may carry an explicit
//! parent link, and **flow edges** connect a span on one track to a
//! span on another (message send → receive, MPI collective rendezvous),
//! turning the per-lane interval lists into a causal DAG.
//!
//! ## Flow matching
//!
//! Flows are recorded as *half-points*: the producing side calls
//! [`SpanStore::flow_out`] and the consuming side calls
//! [`SpanStore::flow_in`], each with the same `(class, src, dst)` key.
//! Neither side needs to tag payloads — both sides keep an independent
//! FIFO sequence counter per key, and [`SpanStore::snapshot`] joins the
//! k-th `flow_out` on a key with the k-th `flow_in` on the same key.
//! This is exact whenever the transport preserves per-key order (vsock
//! messages on one `(src, dst:port)` channel; SPMD-ordered collectives)
//! and degrades to a crossed arrow — never nondeterminism — when
//! concurrent transfers on one key overtake each other.
//!
//! Everything here is deterministic: span ids are a per-simulation
//! counter, all iteration orders are record order, and the snapshot is a
//! pure function of the recorded half-points.
//!
//! ## Storage
//!
//! Recording a span or a half-point allocates nothing in the steady
//! state. A span's track, lane and detail are [`SpanStr`]s its site
//! interned up front. The strings of a flow key are interned into small
//! integers the first time they are seen, each distinct key gets a dense
//! *stream* number, and a half-point is that number plus a span id —
//! [`SpanStore::snapshot`] joins the two sides with array indexing.
//! Consumers that group spans by `(track, lane)` share one
//! `SpanSnapshot::lane_index` pass instead of comparing names per
//! span.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::event::Category;
use crate::fasthash::FxHashMap;
use crate::time::SimTime;

/// Shared immutable attribute string (track, lane, detail).
///
/// `Arc<str>` rather than `String` so hot instrumentation sites can
/// precompute their attributes once and hand out reference bumps per
/// span instead of fresh heap allocations, and so snapshots stay `Send`
/// (the scenario pool returns them across threads).
pub type SpanStr = Arc<str>;

/// Identifier of one recorded span, unique within a simulation.
///
/// The reserved value [`SpanId::NONE`] is returned when span recording
/// is disabled (or no simulation is running) so call sites can thread
/// ids through unconditionally; every operation on it is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: recording was disabled when the span began.
    pub const NONE: SpanId = SpanId(0);

    /// True for the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw id value (1-based; 0 is the sentinel).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// One recorded span: a named virtual-time interval on a track/lane.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// This span's id (1-based, in begin order).
    pub id: SpanId,
    /// Enclosing span, if the caller linked one.
    pub parent: Option<SpanId>,
    /// Subsystem category (reused from the flat event stream).
    pub cat: Category,
    /// Stable operation name (`"quantum"`, `"vsock_send"`, …).
    pub name: &'static str,
    /// Top-level grouping row — the virtual host or node.
    pub track: SpanStr,
    /// Row within the track — the process, rank, or daemon.
    pub lane: SpanStr,
    /// Free-form detail (job name, destination, collective op …).
    pub detail: SpanStr,
    /// Virtual instant the span began.
    pub begin: SimTime,
    /// Virtual instant the span ended; `None` if never closed.
    pub end: Option<SimTime>,
}

impl SpanRecord {
    /// Duration in nanoseconds (zero while the span is open).
    pub fn dur_ns(&self) -> u64 {
        self.end
            .map(|e| e.as_nanos().saturating_sub(self.begin.as_nanos()))
            .unwrap_or(0)
    }
}

/// A resolved causal edge between two spans on (usually) different
/// tracks, produced by joining `flow_out`/`flow_in` half-points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowEdge {
    /// Flow class (`"msg"` for vsock messages, `"coll"` for MPI
    /// collectives).
    pub class: &'static str,
    /// Producing span.
    pub from: SpanId,
    /// Consuming span.
    pub to: SpanId,
}

/// Immutable copy of a [`SpanStore`]'s contents with flows resolved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanSnapshot {
    /// All recorded spans, in begin order (`id` ascending).
    pub spans: Vec<SpanRecord>,
    /// Resolved flow edges, in `flow_in` record order.
    pub flows: Vec<FlowEdge>,
    /// Spans discarded because the store hit its capacity.
    pub dropped: u64,
}

impl SpanSnapshot {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.flows.is_empty()
    }

    /// Look up a span by id (`None` for the sentinel or a dropped span).
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        if id.is_none() {
            return None;
        }
        let idx = (id.0 - 1) as usize;
        self.spans.get(idx).filter(|s| s.id == id)
    }
}

/// The `(track, lane)` pairs of one snapshot, numbered in sorted order
/// (see [`SpanSnapshot::lane_index`]).
pub(crate) struct LaneIndex<'a> {
    /// Distinct `(track, lane)` pairs, sorted.
    pub pairs: Vec<(&'a str, &'a str)>,
    /// For each span of the snapshot, in order, its index into `pairs`.
    pub of_span: Vec<u32>,
}

impl SpanSnapshot {
    /// Number the distinct `(track, lane)` pairs in sorted order and
    /// resolve every span to its pair, in one pass.
    ///
    /// Instrumentation sites hand out clones of a few interned
    /// [`SpanStr`]s, so spans of one lane usually share their two
    /// allocations: a pair is first looked up by its pointers, and only
    /// a pair of pointers not seen before is looked up by name (so equal
    /// names held by distinct allocations still land on one lane).
    pub(crate) fn lane_index(&self) -> LaneIndex<'_> {
        let mut by_ptr: FxHashMap<(*const u8, *const u8), u32> = FxHashMap::default();
        let mut by_name: FxHashMap<(&str, &str), u32> = FxHashMap::default();
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        let mut of_span: Vec<u32> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let ptrs = (s.track.as_ptr(), s.lane.as_ptr());
            let lane = *by_ptr.entry(ptrs).or_insert_with(|| {
                let names = (&*s.track, &*s.lane);
                *by_name.entry(names).or_insert_with(|| {
                    pairs.push(names);
                    (pairs.len() - 1) as u32
                })
            });
            of_span.push(lane);
        }
        // Renumber from first-seen order to sorted order.
        let mut sorted: Vec<u32> = (0..pairs.len() as u32).collect();
        sorted.sort_unstable_by_key(|&i| pairs[i as usize]);
        let mut rank = vec![0u32; pairs.len()];
        for (r, &i) in sorted.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        for lane in &mut of_span {
            *lane = rank[*lane as usize];
        }
        LaneIndex {
            pairs: sorted.iter().map(|&i| pairs[i as usize]).collect(),
            of_span,
        }
    }
}

/// One flow half-point stream: everything recorded on one
/// `(class, src, dst)` key.
struct FlowStream {
    class: &'static str,
    /// Send-side half-points in emit order (the vector index is the
    /// FIFO sequence number).
    outs: Vec<SpanId>,
    /// Receive-side half-points recorded so far (the next one's FIFO
    /// sequence number).
    ins: u64,
}

struct SpanInner {
    enabled: bool,
    capacity: usize,
    dropped: u64,
    spans: Vec<SpanRecord>,
    /// Interned flow-key strings (class, src and dst alike).
    names: FxHashMap<Box<str>, u32>,
    /// Interned `(class, src, dst)` → index into `streams`.
    stream_of: FxHashMap<(u32, u32, u32), u32>,
    streams: Vec<FlowStream>,
    /// Receive-side half-points in record order: stream, FIFO sequence
    /// number within it, consuming span.
    in_points: Vec<(u32, u64, SpanId)>,
}

impl SpanInner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.names.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.insert(s.into(), id);
        id
    }

    /// Index into `streams` of key `(class, src, dst)`, created on first
    /// use.
    fn stream(&mut self, class: &'static str, src: &str, dst: &str) -> u32 {
        let key = (self.intern(class), self.intern(src), self.intern(dst));
        let next = self.streams.len() as u32;
        let at = *self.stream_of.entry(key).or_insert(next);
        if at == next {
            self.streams.push(FlowStream {
                class,
                outs: Vec::new(),
                ins: 0,
            });
        }
        at
    }
}

/// Shared per-simulation span store (cloning shares the store).
///
/// Disabled by default — [`SpanStore::set_enabled`] turns it on, and
/// while disabled every operation is a cheap no-op returning
/// [`SpanId::NONE`]. Unlike the bounded event ring, spans are kept in
/// full (the critical-path analyzer needs the whole DAG); `capacity` is
/// a large backstop against runaway instrumentation, counted in
/// [`SpanStore::dropped`] when hit.
#[derive(Clone)]
pub struct SpanStore {
    inner: Rc<RefCell<SpanInner>>,
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new()
    }
}

impl SpanStore {
    /// Default backstop on retained spans.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A fresh, disabled store with the default capacity.
    pub fn new() -> Self {
        SpanStore {
            inner: Rc::new(RefCell::new(SpanInner {
                enabled: false,
                capacity: Self::DEFAULT_CAPACITY,
                dropped: 0,
                spans: Vec::new(),
                names: FxHashMap::default(),
                stream_of: FxHashMap::default(),
                streams: Vec::new(),
                in_points: Vec::new(),
            })),
        }
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Enable or disable recording. Open spans survive a disable and can
    /// still be closed.
    pub fn set_enabled(&self, on: bool) {
        self.inner.borrow_mut().enabled = on;
    }

    /// Change the retained-span backstop (existing spans are kept).
    pub fn set_capacity(&self, capacity: usize) {
        self.inner.borrow_mut().capacity = capacity;
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().spans.is_empty()
    }

    /// Spans discarded because the capacity backstop was hit.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Open a span at `at`. Returns [`SpanId::NONE`] (recording nothing)
    /// while disabled or once the capacity backstop is hit.
    #[allow(
        clippy::too_many_arguments,
        reason = "one flat call per span keeps the hot recording path free of a builder"
    )]
    pub fn begin(
        &self,
        at: SimTime,
        parent: Option<SpanId>,
        cat: Category,
        name: &'static str,
        track: impl Into<SpanStr>,
        lane: impl Into<SpanStr>,
        detail: impl Into<SpanStr>,
    ) -> SpanId {
        let mut s = self.inner.borrow_mut();
        if !s.enabled {
            return SpanId::NONE;
        }
        if s.spans.len() >= s.capacity {
            s.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(s.spans.len() as u64 + 1);
        s.spans.push(SpanRecord {
            id,
            parent: parent.filter(|p| !p.is_none()),
            cat,
            name,
            track: track.into(),
            lane: lane.into(),
            detail: detail.into(),
            begin: at,
            end: None,
        });
        id
    }

    /// Close a span at `at`. No-op for the sentinel or an already-closed
    /// span (the first close wins, keeping replays byte-stable).
    pub fn end(&self, at: SimTime, id: SpanId) {
        if id.is_none() {
            return;
        }
        let mut s = self.inner.borrow_mut();
        let idx = (id.0 - 1) as usize;
        if let Some(rec) = s.spans.get_mut(idx) {
            if rec.end.is_none() {
                rec.end = Some(at);
            }
        }
    }

    /// Record the producing half of a flow on key `(class, src, dst)`,
    /// anchored to `span`. No-op for the sentinel span.
    pub fn flow_out(&self, class: &'static str, src: &str, dst: &str, span: SpanId) {
        if span.is_none() {
            return;
        }
        let mut s = self.inner.borrow_mut();
        if !s.enabled {
            return;
        }
        let at = s.stream(class, src, dst);
        s.streams[at as usize].outs.push(span);
    }

    /// Record the consuming half of a flow on key `(class, src, dst)`,
    /// anchored to `span`. No-op for the sentinel span.
    pub fn flow_in(&self, class: &'static str, src: &str, dst: &str, span: SpanId) {
        if span.is_none() {
            return;
        }
        let mut s = self.inner.borrow_mut();
        if !s.enabled {
            return;
        }
        let at = s.stream(class, src, dst);
        let stream = &mut s.streams[at as usize];
        let seq = stream.ins;
        stream.ins += 1;
        s.in_points.push((at, seq, span));
    }

    /// Snapshot spans and resolve flow half-points into [`FlowEdge`]s.
    ///
    /// Edges appear in `flow_in` record order; an in-point whose matching
    /// out-point was never recorded (e.g. the sender ran with spans
    /// disabled) is silently skipped.
    pub fn snapshot(&self) -> SpanSnapshot {
        let s = self.inner.borrow();
        let mut flows = Vec::with_capacity(s.in_points.len());
        for &(at, seq, to) in &s.in_points {
            let stream = &s.streams[at as usize];
            if let Some(&from) = stream.outs.get(seq as usize) {
                flows.push(FlowEdge {
                    class: stream.class,
                    from,
                    to,
                });
            }
        }
        SpanSnapshot {
            spans: s.spans.clone(),
            flows,
            dropped: s.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn store() -> SpanStore {
        let s = SpanStore::new();
        s.set_enabled(true);
        s
    }

    #[test]
    fn disabled_store_returns_sentinel() {
        let s = SpanStore::new();
        let id = s.begin(
            t(1),
            None,
            Category::Sched,
            "quantum",
            "h0",
            "job",
            String::new(),
        );
        assert!(id.is_none());
        s.end(t(2), id); // must not panic
        s.flow_out("msg", "a", "b", id);
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn ids_are_sequential_and_ends_stick() {
        let s = store();
        let a = s.begin(t(1), None, Category::Net, "send", "h0", "p", String::new());
        let b = s.begin(
            t(2),
            Some(a),
            Category::Net,
            "xfer",
            "h0",
            "p",
            String::new(),
        );
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
        s.end(t(5), b);
        s.end(t(9), b); // second close ignored
        let snap = s.snapshot();
        assert_eq!(snap.span(b).unwrap().end, Some(t(5)));
        assert_eq!(snap.span(b).unwrap().parent, Some(a));
        assert_eq!(snap.span(a).unwrap().end, None);
        assert_eq!(snap.span(b).unwrap().dur_ns(), 3);
    }

    #[test]
    fn flows_join_fifo_per_key() {
        let s = store();
        let mk = |st: &SpanStore, n| {
            st.begin(t(n), None, Category::Vsock, "send", "x", "p", String::new())
        };
        let s1 = mk(&s, 1);
        let s2 = mk(&s, 2);
        let r1 = mk(&s, 3);
        let r2 = mk(&s, 4);
        // Two sends then two receives on the same key: 1st↔1st, 2nd↔2nd.
        s.flow_out("msg", "a", "b", s1);
        s.flow_out("msg", "a", "b", s2);
        s.flow_in("msg", "a", "b", r1);
        s.flow_in("msg", "a", "b", r2);
        // A receive with no matching send on another key is skipped.
        s.flow_in("msg", "ghost", "b", r1);
        let snap = s.snapshot();
        assert_eq!(
            snap.flows,
            vec![
                FlowEdge {
                    class: "msg",
                    from: s1,
                    to: r1
                },
                FlowEdge {
                    class: "msg",
                    from: s2,
                    to: r2
                },
            ]
        );
    }

    #[test]
    fn capacity_backstop_counts_drops() {
        let s = store();
        s.set_capacity(1);
        let a = s.begin(
            t(1),
            None,
            Category::Mpi,
            "barrier",
            "h",
            "r0",
            String::new(),
        );
        let b = s.begin(
            t(2),
            None,
            Category::Mpi,
            "barrier",
            "h",
            "r1",
            String::new(),
        );
        assert!(!a.is_none());
        assert!(b.is_none());
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.len(), 1);
    }
}
