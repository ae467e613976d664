//! Causal spans and cross-process flow edges.
//!
//! The flat [`crate::trace::Tracer`] answers *what happened*; spans
//! answer *what caused what* and *what dominated*. A span is a named
//! interval of virtual time on a `(track, lane)` pair — track is a
//! virtual host (a Perfetto "process" row), lane is a process or daemon
//! within it (a Perfetto "thread" row). **Flow edges** connect a span on
//! one track to a span on another (message send → receive, MPI collective
//! rendezvous), turning the per-lane interval lists into a causal DAG.
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
//! A stored span is one 24-byte [`SpanRow`] of a [`SpanTable`]: begin and
//! end nanoseconds and two small integers, the first of which also
//! carries whether the span was closed. Everything a
//! site repeats from span to span is stored once: the distinct
//! `(cat, name, track, lane)` combinations — a few per process, tens per
//! run — make up the table's *kinds*, the distinct detail strings its
//! *details*, and a row holds an index into each. [`SpanStore::begin`]
//! interns both by their text, so equal text held by a fresh allocation
//! lands on the one entry. A span's id is its row index plus one.
//! Recording a span allocates nothing in the steady state.
//!
//! The store holds its table in an [`Arc`] and writes through
//! [`Arc::make_mut`]: [`SpanStore::snapshot`] hands out that same `Arc`,
//! so a snapshot of a store nobody records into any more (the normal
//! case: [`crate::obs::Obs::seal`], then snapshot) copies no span, and
//! only a `begin` or a closing `end` *after* a snapshot was taken pays
//! for one copy of the table. The profiler, the critical path and the
//! Perfetto export read rows and resolve `(track, lane)` once per kind
//! (`SpanTable::lanes`); [`SpanTable::record`] materialises a
//! [`SpanRecord`] for tests and slow consumers.
//!
//! The strings of a flow key are interned into small integers the first
//! time they are seen, each distinct key gets a dense *stream* number,
//! and a half-point is that number plus a span id —
//! [`SpanStore::snapshot`] joins the two sides with array indexing. A
//! span id is four bytes, so a flow costs 28: a 4-byte out-point, a
//! 12-byte in-point `(stream, sequence number, span)` and a 12-byte
//! [`FlowEdge`] once resolved.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
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
pub struct SpanId(u32);

impl SpanId {
    /// The null span: recording was disabled when the span began.
    pub const NONE: SpanId = SpanId(0);

    /// True for the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw id value (1-based; 0 is the sentinel).
    pub fn get(self) -> u64 {
        u64::from(self.0)
    }
}

/// One span, materialised from a [`SpanTable`] row by
/// [`SpanTable::record`]: the view tests, oracles and slow consumers
/// read. It is not how spans are stored.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// This span's id (1-based, in begin order).
    pub id: SpanId,
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

/// One stored span. Its id is its index in [`SpanTable::rows`] plus one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Virtual instant the span began, nanoseconds.
    begin: u64,
    /// Virtual instant the span ended, nanoseconds; meaningful only
    /// when closed (any instant, `u64::MAX` included, is a valid end).
    end: u64,
    /// Index into [`SpanTable::kinds`], with [`SpanRow::CLOSED`] set
    /// once the span is closed.
    kind: u32,
    /// Index into [`SpanTable::details`].
    detail: u32,
}

// What a recorded span costs; a wider row shows in `peak_rss_mb`.
const _: () = assert!(std::mem::size_of::<SpanRow>() == 24);

impl SpanRow {
    /// The bit of `kind` that marks a closed span. The store's backstop
    /// keeps the kind index below it.
    const CLOSED: u32 = 1 << 31;

    /// Virtual instant the span began, nanoseconds.
    pub fn begin(&self) -> u64 {
        self.begin
    }

    /// Virtual instant the span ended, nanoseconds; `None` while open.
    pub fn end(&self) -> Option<u64> {
        self.is_closed().then_some(self.end)
    }

    /// Whether the span was closed.
    pub fn is_closed(&self) -> bool {
        self.kind & Self::CLOSED != 0
    }

    /// Index into [`SpanTable::kinds`].
    pub fn kind(&self) -> usize {
        (self.kind & !Self::CLOSED) as usize
    }

    /// Index into [`SpanTable::details`].
    pub fn detail(&self) -> usize {
        self.detail as usize
    }

    /// Duration in nanoseconds (zero while the span is open).
    pub fn dur_ns(&self) -> u64 {
        self.end().map_or(0, |end| end.saturating_sub(self.begin))
    }
}

/// What the spans of one site on one lane share: a distinct
/// `(cat, name, track, lane)` combination.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanKind {
    /// Subsystem category.
    pub cat: Category,
    /// Stable operation name.
    pub name: &'static str,
    /// Top-level grouping row — the virtual host or node.
    pub track: SpanStr,
    /// Row within the track — the process, rank, or daemon.
    pub lane: SpanStr,
}

/// All recorded spans in begin order, with what they repeat stored once
/// (see the module docs, "Storage").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTable {
    rows: Vec<SpanRow>,
    kinds: Vec<SpanKind>,
    details: Vec<SpanStr>,
}

impl SpanTable {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored rows, in begin order.
    pub fn rows(&self) -> &[SpanRow] {
        &self.rows
    }

    /// The distinct `(cat, name, track, lane)` combinations, in
    /// first-recorded order.
    pub fn kinds(&self) -> &[SpanKind] {
        &self.kinds
    }

    /// The distinct detail strings, in first-recorded order.
    pub fn details(&self) -> &[SpanStr] {
        &self.details
    }

    /// Row index of span `id`: `None` for the sentinel and for an id this
    /// table has no row for (a dropped span, another store's span).
    pub fn index_of(&self, id: SpanId) -> Option<usize> {
        let i = (id.0 as usize).checked_sub(1)?;
        (i < self.rows.len()).then_some(i)
    }

    /// Span `i` (0-based, begin order) as a [`SpanRecord`].
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn record(&self, i: usize) -> SpanRecord {
        let row = &self.rows[i];
        let kind = &self.kinds[row.kind()];
        SpanRecord {
            id: SpanId(i as u32 + 1),
            cat: kind.cat,
            name: kind.name,
            track: kind.track.clone(),
            lane: kind.lane.clone(),
            detail: self.details[row.detail()].clone(),
            begin: SimTime::from_nanos(row.begin),
            end: row.end().map(SimTime::from_nanos),
        }
    }

    /// Every span as a [`SpanRecord`], in begin order.
    pub fn records(&self) -> impl Iterator<Item = SpanRecord> + '_ {
        (0..self.rows.len()).map(|i| self.record(i))
    }

    /// Heap bytes the table's contents occupy: rows, kinds, details and
    /// the text they point to (each allocation with its two reference
    /// counts). Growth slack of the vectors is not counted, so the value
    /// is a function of what was recorded.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let text = |s: &SpanStr| 2 * size_of::<usize>() + s.len();
        self.rows.len() * size_of::<SpanRow>()
            + self.kinds.len() * size_of::<SpanKind>()
            + self.details.len() * size_of::<SpanStr>()
            + self
                .kinds
                .iter()
                .map(|k| text(&k.track) + text(&k.lane))
                .sum::<usize>()
            + self.details.iter().map(text).sum::<usize>()
    }

    /// Number the distinct `(track, lane)` pairs in sorted order and
    /// resolve every kind to its pair: the row numbering the profiler,
    /// the critical path and the Perfetto export share.
    pub(crate) fn lanes(&self) -> Lanes<'_> {
        fn pair(k: &SpanKind) -> (&str, &str) {
            (&k.track, &k.lane)
        }
        let mut pairs: Vec<(&str, &str)> = self.kinds.iter().map(pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let of_kind = self
            .kinds
            .iter()
            .map(|k| {
                pairs
                    .binary_search(&pair(k))
                    .expect("every kind's pair is listed") as u32
            })
            .collect();
        Lanes { pairs, of_kind }
    }
}

/// The `(track, lane)` pairs of one table, numbered in sorted order (see
/// [`SpanTable::lanes`]).
pub(crate) struct Lanes<'a> {
    /// Distinct `(track, lane)` pairs, sorted.
    pub pairs: Vec<(&'a str, &'a str)>,
    /// For each kind of the table, in order, its index into `pairs`.
    pub of_kind: Vec<u32>,
}

/// What a flow carries: the class half of a flow key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowClass {
    /// A vsock message, send → receive.
    Msg,
    /// An MPI collective rendezvous, rank → root.
    Coll,
}

impl FlowClass {
    /// Stable name (`"msg"`, `"coll"`): a flow arrow's name in the
    /// Perfetto export.
    pub fn name(self) -> &'static str {
        match self {
            FlowClass::Msg => "msg",
            FlowClass::Coll => "coll",
        }
    }
}

/// A resolved causal edge between two spans on (usually) different
/// tracks, produced by joining `flow_out`/`flow_in` half-points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEdge {
    /// Producing span.
    pub from: SpanId,
    /// Consuming span.
    pub to: SpanId,
    /// Flow class.
    pub class: FlowClass,
}

// What a resolved flow costs beside its two half-points.
const _: () = assert!(std::mem::size_of::<FlowEdge>() == 12);

/// A [`SpanStore`]'s contents with flows resolved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanSnapshot {
    /// All recorded spans, in begin order. Shared with the store until
    /// one of the two changes (see the module docs, "Storage").
    pub spans: Arc<SpanTable>,
    /// Resolved flow edges, in `flow_in` record order.
    pub flows: Vec<FlowEdge>,
    /// Spans discarded because the store hit its capacity.
    pub dropped: u64,
}

// The scenario pool returns snapshots across threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SpanSnapshot>();
};

impl SpanSnapshot {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.flows.is_empty()
    }

    /// Look up a span by id (`None` for the sentinel or a dropped span).
    pub fn span(&self, id: SpanId) -> Option<SpanRecord> {
        self.spans.index_of(id).map(|i| self.spans.record(i))
    }
}

/// The interning indexes over a store's [`SpanTable`] (see the module
/// docs, "Storage"), keyed by text.
#[derive(Default)]
struct Interner {
    kind_by_text: FxHashMap<(Category, &'static str, SpanStr, SpanStr), u32>,
    detail_by_text: FxHashMap<SpanStr, u32>,
}

impl Interner {
    /// Index in `kinds` of this combination, appended on first sight.
    fn kind(
        &mut self,
        kinds: &mut Vec<SpanKind>,
        cat: Category,
        name: &'static str,
        track: SpanStr,
        lane: SpanStr,
    ) -> u32 {
        match self.kind_by_text.entry((cat, name, track, lane)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let (cat, name, track, lane) = e.key().clone();
                kinds.push(SpanKind {
                    cat,
                    name,
                    track,
                    lane,
                });
                *e.insert(kinds.len() as u32 - 1)
            }
        }
    }

    /// Index in `details` of this text, appended on first sight.
    fn detail(&mut self, details: &mut Vec<SpanStr>, detail: SpanStr) -> u32 {
        match self.detail_by_text.entry(detail) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                details.push(e.key().clone());
                *e.insert(details.len() as u32 - 1)
            }
        }
    }
}

/// One flow half-point stream: everything recorded on one
/// `(class, src, dst)` key.
struct FlowStream {
    class: FlowClass,
    /// Send-side half-points in emit order (the vector index is the
    /// FIFO sequence number).
    outs: Vec<SpanId>,
    /// Receive-side half-points recorded so far (the next one's FIFO
    /// sequence number).
    ins: u32,
}

struct SpanInner {
    enabled: bool,
    capacity: usize,
    dropped: u64,
    /// Shared with every snapshot taken since the last write.
    table: Arc<SpanTable>,
    interner: Interner,
    /// Interned flow-key strings (src and dst alike).
    names: FxHashMap<Box<str>, u32>,
    /// `(class, interned src, interned dst)` → index into `streams`.
    stream_of: FxHashMap<(FlowClass, u32, u32), u32>,
    streams: Vec<FlowStream>,
    /// Receive-side half-points in record order: stream, FIFO sequence
    /// number within it, consuming span.
    in_points: Vec<(u32, u32, SpanId)>,
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
    fn stream(&mut self, class: FlowClass, src: &str, dst: &str) -> u32 {
        let key = (class, self.intern(src), self.intern(dst));
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

    /// The most spans a store ever retains (see [`SpanStore::begin`]).
    const MAX_SPANS: usize = (SpanRow::CLOSED - 1) as usize;

    /// A fresh, disabled store with the default capacity.
    pub fn new() -> Self {
        SpanStore {
            inner: Rc::new(RefCell::new(SpanInner {
                enabled: false,
                capacity: Self::DEFAULT_CAPACITY,
                dropped: 0,
                table: Arc::default(),
                interner: Interner::default(),
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
        self.inner.borrow().table.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().table.is_empty()
    }

    /// Spans discarded because the capacity backstop was hit.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Open a span at `at`. Returns [`SpanId::NONE`] (recording nothing)
    /// while disabled or once the capacity backstop is hit.
    ///
    /// A kind index is a 31-bit number (the top bit of a row's kind
    /// marks it closed), so the backstop never exceeds 2³¹ − 1 spans
    /// whatever [`SpanStore::set_capacity`] was given.
    pub fn begin(
        &self,
        at: SimTime,
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
        if s.table.len() >= s.capacity.min(Self::MAX_SPANS) {
            s.dropped += 1;
            return SpanId::NONE;
        }
        let s = &mut *s;
        let table = Arc::make_mut(&mut s.table);
        let kind = s
            .interner
            .kind(&mut table.kinds, cat, name, track.into(), lane.into());
        let detail = s.interner.detail(&mut table.details, detail.into());
        table.rows.push(SpanRow {
            begin: at.as_nanos(),
            end: 0,
            kind,
            detail,
        });
        SpanId(table.rows.len() as u32)
    }

    /// Close a span at `at`. No-op for the sentinel or an already-closed
    /// span (the first close wins, keeping replays byte-stable).
    pub fn end(&self, at: SimTime, id: SpanId) {
        let mut s = self.inner.borrow_mut();
        // Look before writing: a repeated close must not be what copies
        // a table some snapshot shares.
        match s.table.index_of(id) {
            Some(i) if !s.table.rows[i].is_closed() => {
                let row = &mut Arc::make_mut(&mut s.table).rows[i];
                row.end = at.as_nanos();
                row.kind |= SpanRow::CLOSED;
            }
            _ => {}
        }
    }

    /// Record the producing half of a flow on key `(class, src, dst)`,
    /// anchored to `span`. No-op for the sentinel span.
    pub fn flow_out(&self, class: FlowClass, src: &str, dst: &str, span: SpanId) {
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
    pub fn flow_in(&self, class: FlowClass, src: &str, dst: &str, span: SpanId) {
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

    /// Share the span table and resolve flow half-points into
    /// [`FlowEdge`]s.
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
                    from,
                    to,
                    class: stream.class,
                });
            }
        }
        SpanSnapshot {
            spans: Arc::clone(&s.table),
            flows,
            dropped: s.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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
        let id = s.begin(t(1), Category::Sched, "quantum", "h0", "job", String::new());
        assert!(id.is_none());
        s.end(t(2), id); // must not panic
        s.flow_out(FlowClass::Msg, "a", "b", id);
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn ids_are_sequential_and_ends_stick() {
        let s = store();
        let a = s.begin(t(1), Category::Net, "send", "h0", "p", String::new());
        let b = s.begin(t(2), Category::Net, "xfer", "h0", "p", String::new());
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
        s.end(t(5), b);
        s.end(t(9), b); // second close ignored
        let snap = s.snapshot();
        assert_eq!(snap.span(b).unwrap().end, Some(t(5)));
        assert_eq!(snap.span(a).unwrap().end, None);
        assert_eq!(snap.span(b).unwrap().dur_ns(), 3);
    }

    #[test]
    fn flows_join_fifo_per_key() {
        let s = store();
        let mk =
            |st: &SpanStore, n| st.begin(t(n), Category::Vsock, "send", "x", "p", String::new());
        let s1 = mk(&s, 1);
        let s2 = mk(&s, 2);
        let r1 = mk(&s, 3);
        let r2 = mk(&s, 4);
        // Two sends then two receives on the same key: 1st↔1st, 2nd↔2nd.
        s.flow_out(FlowClass::Msg, "a", "b", s1);
        s.flow_out(FlowClass::Msg, "a", "b", s2);
        s.flow_in(FlowClass::Msg, "a", "b", r1);
        s.flow_in(FlowClass::Msg, "a", "b", r2);
        // A receive with no matching send on another key is skipped.
        s.flow_in(FlowClass::Msg, "ghost", "b", r1);
        let snap = s.snapshot();
        assert_eq!(
            snap.flows,
            vec![
                FlowEdge {
                    from: s1,
                    to: r1,
                    class: FlowClass::Msg
                },
                FlowEdge {
                    from: s2,
                    to: r2,
                    class: FlowClass::Msg
                },
            ]
        );
    }

    #[test]
    fn capacity_backstop_counts_drops() {
        let s = store();
        s.set_capacity(1);
        let a = s.begin(t(1), Category::Mpi, "barrier", "h", "r0", String::new());
        let b = s.begin(t(2), Category::Mpi, "barrier", "h", "r1", String::new());
        assert!(!a.is_none());
        assert!(b.is_none());
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.len(), 1);
    }
    #[test]
    fn a_snapshot_shares_the_table_until_someone_writes() {
        let s = store();
        let a = s.begin(t(1), Category::Net, "send", "h0", "p", "d");
        let b = s.begin(t(2), Category::Net, "send", "h0", "p", "d");
        s.end(t(3), a);
        let snap = s.snapshot();
        let before: Vec<SpanRecord> = snap.spans.records().collect();

        // Recording after the snapshot copies the table: the snapshot
        // keeps what it saw, the store gets the new rows.
        s.end(t(9), b);
        let c = s.begin(t(10), Category::Mpi, "barrier", "h1", "r0", "");
        assert_eq!(snap.spans.records().collect::<Vec<_>>(), before);
        assert_eq!(snap.span(b).unwrap().end, None);
        assert!(snap.span(c).is_none());
        let now = s.snapshot();
        assert!(!Arc::ptr_eq(&snap.spans, &now.spans));
        assert_eq!(now.spans.len(), 3);
        assert_eq!(now.span(b).unwrap().end, Some(t(9)));
        assert_eq!(&*now.span(c).unwrap().track, "h1");

        // With recording off (what `Obs::seal` does) snapshots are the
        // same table, and closing a closed span again copies nothing.
        s.set_enabled(false);
        let (one, two) = (s.snapshot(), s.snapshot());
        assert!(Arc::ptr_eq(&one.spans, &two.spans));
        s.end(t(99), a);
        s.end(t(99), SpanId::NONE);
        assert!(Arc::ptr_eq(&one.spans, &s.snapshot().spans));
        assert_eq!(one.span(a).unwrap().end, Some(t(3)));
    }

    #[test]
    fn heap_bytes_counts_rows_once_and_shared_text_once() {
        let s = store();
        let (track, lane, detail): (SpanStr, SpanStr, SpanStr) =
            ("host".into(), "proc".into(), "1500B to peer".into());
        for i in 0..1000 {
            let id = s.begin(
                t(i),
                Category::Net,
                "net_send",
                track.clone(),
                lane.clone(),
                detail.clone(),
            );
            s.end(t(i + 1), id);
        }
        let table = s.snapshot().spans;
        assert_eq!((table.kinds().len(), table.details().len()), (1, 1));
        let fixed = table.heap_bytes() - 1000 * std::mem::size_of::<SpanRow>();
        assert!(fixed < 200, "{fixed} bytes beside the rows");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table is a lossless encoding: whatever goes in through the
        /// store comes out of `record(i)` as the `SpanRecord` the old
        /// `Vec<SpanRecord>` storage would have held.
        #[test]
        fn records_match_a_reference_built_beside_the_store(
            ops in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..60),
        ) {
            const TEXTS: [&str; 4] = ["", "alpha0", "p0", "é\"\n"];
            const NAMES: [&str; 3] = ["quantum", "net_send", ""];
            let shared: Vec<SpanStr> = TEXTS.iter().map(|t| SpanStr::from(*t)).collect();
            let s = store();
            let mut want: Vec<SpanRecord> = Vec::new();
            for &(a, b, c) in &ops {
                if a % 4 == 0 && !want.is_empty() {
                    // Close a span (again, sometimes) at any instant up
                    // to the last one; the first close wins.
                    let i = (b % want.len() as u64) as usize;
                    let at = t(if c % 3 == 0 { u64::MAX } else { c % 1_000 });
                    s.end(at, want[i].id);
                    want[i].end.get_or_insert(at);
                    continue;
                }
                // Equal text from the shared allocation or a fresh one.
                let text = |pick: u64| -> SpanStr {
                    let text = &shared[(pick % 4) as usize];
                    if a % 2 == 1 { SpanStr::from(&**text) } else { text.clone() }
                };
                let (track, lane, detail) = (text(a >> 2), text(a >> 4), text(a >> 6));
                let name = NAMES[(a >> 8) as usize % NAMES.len()];
                let cat = Category::ALL[(a >> 10) as usize % Category::ALL.len()];
                let own = want.len() as u32;
                let begin = t(c % 1_000);
                let id = s.begin(begin, cat, name, track.clone(), lane.clone(), detail.clone());
                prop_assert_eq!(id, SpanId(own + 1));
                want.push(SpanRecord {
                    id,
                    cat,
                    name,
                    track,
                    lane,
                    detail,
                    begin,
                    end: None,
                });
            }
            let table = s.snapshot().spans;
            prop_assert_eq!(table.records().collect::<Vec<_>>(), want);
            // Equal text is one entry, however many allocations held it.
            for (i, kind) in table.kinds().iter().enumerate() {
                prop_assert!(!table.kinds()[..i].contains(kind));
            }
            for (i, detail) in table.details().iter().enumerate() {
                prop_assert!(!table.details()[..i].contains(detail));
            }
        }
    }
}
