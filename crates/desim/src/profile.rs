//! Virtual-time profiler and critical-path analyzer over span
//! snapshots.
//!
//! Both consumers are pure functions of a [`SpanSnapshot`]: run them on
//! the same snapshot and the rendered tables are byte-identical, which
//! is what the CI determinism lanes diff. All arithmetic is integer
//! nanoseconds — no floats are formatted anywhere.
//!
//! - [`Profile`] answers *where did the virtual seconds go*: completed
//!   span time bucketed per `(track, lane)` into virtual CPU
//!   ([`Category::Sched`]), network wait ([`Category::Net`] /
//!   [`Category::Vsock`]), collective wait ([`Category::Mpi`]), and
//!   other; plus a top-down per-operation attribution table in the
//!   style of an HPC profiler.
//! - [`CriticalPath`] answers *which chain made the run late*: the
//!   longest dependency chain through the span/flow DAG, where a span
//!   depends on its lane predecessor (program order) and on flow
//!   producers (message send → receive, collective rendezvous).

use std::fmt::Write as _;

use crate::event::Category;
use crate::span::{SpanId, SpanRow, SpanSnapshot};

/// Format integer nanoseconds as milliseconds with microsecond
/// precision (`"12.345"`), byte-stable by construction.
pub fn fmt_ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns / 1_000) % 1_000)
}

/// Per-`(track, lane)` virtual-time buckets, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneRow {
    /// Virtual host row.
    pub track: String,
    /// Process/daemon row within the track.
    pub lane: String,
    /// Virtual CPU time ([`Category::Sched`] spans).
    pub cpu_ns: u64,
    /// Network wait ([`Category::Net`] and [`Category::Vsock`] spans).
    pub net_ns: u64,
    /// Collective/barrier wait ([`Category::Mpi`] spans).
    pub coll_ns: u64,
    /// Everything else.
    pub other_ns: u64,
}

impl LaneRow {
    /// Sum of all buckets.
    pub fn total_ns(&self) -> u64 {
        self.cpu_ns + self.net_ns + self.coll_ns + self.other_ns
    }
}

/// Per-operation attribution row (grouped by category + span name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRow {
    /// Span category.
    pub cat: Category,
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total virtual time across them, nanoseconds.
    pub total_ns: u64,
}

/// Deterministic virtual-time attribution over one span snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-lane bucket rows, sorted by `(track, lane)`.
    pub lanes: Vec<LaneRow>,
    /// Per-operation rows, sorted by total time descending (ties by
    /// category then name).
    pub ops: Vec<OpRow>,
    /// Grand total of completed span time, nanoseconds.
    pub total_ns: u64,
}

impl Profile {
    /// Build the attribution tables from a snapshot. Open spans (no
    /// `end`) contribute nothing.
    pub fn from_snapshot(snap: &SpanSnapshot) -> Profile {
        let table = &*snap.spans;
        // Completed spans and their time, per kind: a kind fixes the
        // lane, the bucket and the operation, so the pass over the rows
        // only adds.
        let mut done: Vec<(u64, u64)> = vec![(0, 0); table.kinds().len()];
        for row in table.rows().iter().filter(|r| r.closed) {
            let (count, ns) = &mut done[row.kind as usize];
            *count += 1;
            *ns += row.dur_ns();
        }
        let index = table.lanes();
        // One accumulator per lane; `None` until a completed span lands
        // on it (a lane with only open spans has no row).
        let mut lanes: Vec<Option<LaneRow>> = vec![None; index.pairs.len()];
        let mut ops: Vec<OpRow> = Vec::new();
        let mut total = 0u64;
        for ((kind, &lane), &(count, d)) in table.kinds().iter().zip(&index.of_kind).zip(&done) {
            if count == 0 {
                continue;
            }
            total += d;
            let row = lanes[lane as usize].get_or_insert_with(|| {
                let (track, lane) = index.pairs[lane as usize];
                LaneRow {
                    track: track.to_string(),
                    lane: lane.to_string(),
                    ..LaneRow::default()
                }
            });
            match kind.cat {
                Category::Sched => row.cpu_ns += d,
                Category::Net | Category::Vsock => row.net_ns += d,
                Category::Mpi => row.coll_ns += d,
                Category::Mem | Category::Fault => row.other_ns += d,
            }
            // A run has a handful of operations: a scan beats a map.
            let at = ops
                .iter()
                .position(|op| op.cat == kind.cat && op.name == kind.name)
                .unwrap_or_else(|| {
                    ops.push(OpRow {
                        cat: kind.cat,
                        name: kind.name,
                        count: 0,
                        total_ns: 0,
                    });
                    ops.len() - 1
                });
            ops[at].count += count;
            ops[at].total_ns += d;
        }
        ops.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.cat.cmp(&b.cat))
                .then(a.name.cmp(b.name))
        });
        Profile {
            lanes: lanes.into_iter().flatten().collect(),
            ops,
            total_ns: total,
        }
    }

    /// Render both tables as an indented text block (byte-stable).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.total_ns == 0 {
            out.push_str("  (no completed spans)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>12} {:>12}",
            "track/lane", "cpu(ms)", "net(ms)", "coll(ms)", "total(ms)"
        );
        for r in &self.lanes {
            let _ = writeln!(
                out,
                "  {:<28} {:>12} {:>12} {:>12} {:>12}",
                format!("{}/{}", r.track, r.lane),
                fmt_ms(r.cpu_ns),
                fmt_ms(r.net_ns),
                fmt_ms(r.coll_ns),
                fmt_ms(r.total_ns()),
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>7}",
            "operation", "count", "total(ms)", "share"
        );
        for op in &self.ops {
            // Integer permille of the grand total, rendered as "42.7%".
            let p = (op.total_ns as u128 * 1000 / self.total_ns as u128) as u64;
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>6}.{}%",
                format!("{}.{}", op.cat.name(), op.name),
                op.count,
                fmt_ms(op.total_ns),
                p / 10,
                p % 10,
            );
        }
        out
    }
}

/// Bucket `(group, value)` items by group, keeping input order within a
/// group: returns `(start, values)` with group `g`'s values at
/// `values[start[g]..start[g + 1]]`.
fn bucket(groups: usize, items: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start: Vec<u32> = vec![0; groups + 1];
    for (g, _) in items.clone() {
        start[g as usize + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut values: Vec<u32> = vec![0; start[groups] as usize];
    let mut fill = start.clone();
    for (g, v) in items {
        values[fill[g as usize] as usize] = v;
        fill[g as usize] += 1;
    }
    (start, values)
}

/// One hop on the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The span at this hop.
    pub id: SpanId,
    /// Virtual host row.
    pub track: String,
    /// Process/daemon row.
    pub lane: String,
    /// Span name.
    pub name: &'static str,
    /// Span detail.
    pub detail: String,
    /// Span begin, nanoseconds.
    pub begin_ns: u64,
    /// This hop's contribution to the path total, nanoseconds. Hop
    /// contributions always sum to [`CriticalPath::total_ns`]; a send
    /// span entered mid-flight (its ack tail is off the causal path)
    /// can contribute less than its own duration.
    pub contrib_ns: u64,
    /// How this hop depends on the previous one: `"start"` for the
    /// first hop, then `"flow"` or `"lane"`.
    pub via: &'static str,
    /// Number of consecutive same-operation spans coalesced into this
    /// hop. A saturated lane (say, back-to-back scheduler quanta on the
    /// busiest host) collapses to one row with the repeat count instead
    /// of hundreds of identical rows; `id`, `begin_ns`, and `detail`
    /// are the first span's, `contrib_ns` is the group total.
    pub count: u64,
}

/// The longest dependency chain through a span/flow DAG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Hops, chain start first.
    pub hops: Vec<Hop>,
    /// Sum of hop durations, nanoseconds.
    pub total_ns: u64,
}

/// Compute the critical path of a snapshot.
///
/// Only completed spans participate, and [`Category::Sched`] spans are
/// left out of the DAG entirely: scheduler quanta are the rate
/// controller's wall slices, granted whether or not the process makes
/// progress, so a quantum lane is saturated end-to-end by construction
/// and would mask the application-level dependency chain (quanta still
/// count in [`Profile`] and render in the Perfetto export). The
/// analyzer builds a DAG over the remaining span *boundary points* —
/// two nodes per span, its begin and its end — with three edge kinds:
///
/// - **work** `begin(s) → end(s)`, weight `dur(s)`: the span's own
///   elapsed virtual time — except for spans that consume a resolved
///   flow (a receive, a root collective), whose weight is 0: their
///   completion is *caused* by the producer's message, so a blocked
///   receiver's wait must ride the flow edge, not masquerade as local
///   progress (otherwise a rank that waits its whole life forms a
///   saturated lane chain that drowns out the real cross-host path);
/// - **lane** `end(p) → begin(s)`, weight 0, where `p` is the latest
///   span on `s`'s `(track, lane)` ending at or before `s` begins
///   (program order; the idle gap between them is slack, not cost);
/// - **flow** `begin(a) → end(s)`, weight `end(s) − begin(a)`, for a
///   resolved [`crate::span::FlowEdge`] `a → s`: the transfer occupies
///   the wall interval from the producer *starting* to the consumer
///   *unblocking*. Anchoring at the producer's begin keeps the graph
///   acyclic even though a send span's ack tail outlives the receive.
///
/// The longest path to any end node is the critical path. All
/// tie-breaks are deterministic: higher cost first, then edge kind
/// (flow, work, lane), then smaller span id.
pub fn critical_path(snap: &SpanSnapshot) -> CriticalPath {
    const NONE: u32 = u32::MAX;
    // Edge kinds, in tie-break priority order; `START` marks a node
    // with no chosen in-edge.
    const FLOW: u8 = 0;
    const WORK: u8 = 1;
    const LANE: u8 = 2;
    const START: u8 = 3;
    const VIA: [&str; 4] = ["flow", "work", "lane", "start"];

    // The completed non-scheduler spans ("comp" spans), by row index.
    // A span's id is its row index + 1, so `at` is ascending: it orders
    // comp spans as their ids do, and a binary search in it finds a
    // span's comp index. Times and lanes are read from the rows, and
    // each scratch array is sized once: the scratch stays small beside
    // the snapshot it reads.
    let table = &*snap.spans;
    let (rows, kinds) = (table.rows(), table.kinds());
    let index = table.lanes();
    let is_comp = |row: &SpanRow| row.closed && kinds[row.kind as usize].cat != Category::Sched;
    let n = rows.iter().filter(|row| is_comp(row)).count();
    if n == 0 {
        return CriticalPath::default();
    }
    let mut at: Vec<u32> = Vec::with_capacity(n);
    at.extend((0..rows.len() as u32).filter(|&i| is_comp(&rows[i as usize])));
    let row = |c: usize| &rows[at[c] as usize];
    let begin = |c: usize| row(c).begin;
    let end = |c: usize| row(c).end;
    let lane = |c: usize| index.of_kind[row(c).kind as usize];
    let comp = |sid: SpanId| -> Option<usize> {
        let i = u32::try_from(table.index_of(sid)?).ok()?;
        at.binary_search(&i).ok()
    };

    // Flow producers per consumer comp index:
    // `flow_from[flow_start[c]..flow_start[c + 1]]`, in flow order.
    let (flow_start, flow_from) = bucket(
        n,
        snap.flows.iter().filter_map(|f| {
            let (a, b) = (comp(f.from)?, comp(f.to)?);
            (begin(a) < end(b) || (begin(a) == end(b) && at[a] < at[b]))
                .then_some((b as u32, a as u32))
        }),
    );

    // Node c*2 is span c's begin, c*2+1 its end. Topological order:
    // (time, span id, begin-before-end); every edge above respects it.
    // Begins and ends are sorted apart, then merged: a recorded
    // snapshot's begins are already in time order, so sorting them is
    // one pass.
    let sorted_by = |time: fn(&SpanRow) -> u64| {
        let mut spans: Vec<u32> = (0..n as u32).collect();
        spans.sort_unstable_by_key(|&c| (time(row(c as usize)), at[c as usize]));
        spans
    };
    let (begins, ends) = (sorted_by(|r| r.begin), sorted_by(|r| r.end));
    let (mut b, mut e) = (begins.iter().peekable(), ends.iter().peekable());
    let order = std::iter::from_fn(|| match (b.peek(), e.peek()) {
        (Some(&&p), Some(&&q))
            if (end(q as usize), at[q as usize]) < (begin(p as usize), at[p as usize]) =>
        {
            e.next().map(|&q| 2 * q + 1)
        }
        (Some(_), _) => b.next().map(|&p| 2 * p),
        (None, _) => e.next().map(|&q| 2 * q + 1),
    });

    // Lane predecessor per comp index: latest span on the same
    // (track, lane) with end <= begin; an equal-instant predecessor
    // must have the smaller id (same-instant causality follows
    // creation order, which also keeps the node graph acyclic). Those
    // are exactly the lane's end nodes the topological order visits
    // before the span's begin, so the DP fills it in as it goes, from
    // the last end node visited on each lane.
    let mut lane_pred: Vec<u32> = vec![NONE; n];
    let mut last_end: Vec<u32> = vec![NONE; index.pairs.len()];

    // The best in-edge of node `v` given its predecessors' costs:
    // `(cost through it, edge kind, predecessor node)`. Max cost, then
    // edge-kind priority, then smaller span id. The longest-path DP
    // keeps only each node's cost; the walk back asks again for the
    // edge, which its predecessors' final costs determine.
    let best_in = |cost: &[u64], lane_pred: &[u32], v: usize| -> Option<(u64, u8, usize)> {
        let c = v / 2;
        let mut best: Option<(u64, u8, usize)> = None;
        let mut offer = |u: usize, kind: u8, w: u64| {
            let cand = (cost[u] + w, kind, u);
            let key = |x: (u64, u8, usize)| (x.0, std::cmp::Reverse((x.1, at[x.2 / 2])));
            if best.is_none_or(|cur| key(cand) > key(cur)) {
                best = Some(cand);
            }
        };
        if v.is_multiple_of(2) {
            if lane_pred[c] != NONE {
                offer(lane_pred[c] as usize * 2 + 1, LANE, 0);
            }
        } else {
            // A flow consumer's end is caused by the message, not by
            // local elapsed time: zero-weight work edge (see above).
            let producers = &flow_from[flow_start[c] as usize..flow_start[c + 1] as usize];
            let work_w = if producers.is_empty() {
                end(c) - begin(c)
            } else {
                0
            };
            offer(v - 1, WORK, work_w);
            for &a in producers {
                offer(a as usize * 2, FLOW, end(c) - begin(a as usize));
            }
        }
        best
    };
    let mut cost: Vec<u64> = vec![0; 2 * n];
    for v in order {
        let (v, c) = (v as usize, v as usize / 2);
        let last = &mut last_end[lane(c) as usize];
        if v.is_multiple_of(2) {
            lane_pred[c] = *last;
        } else {
            *last = c as u32;
        }
        if let Some((best_cost, _, _)) = best_in(&cost, &lane_pred, v) {
            cost[v] = best_cost;
        }
    }
    drop((begins, ends));

    // Terminus: the costliest end node, ties to the smaller span id.
    let mut term = 1usize;
    for c in 0..n {
        let v = c * 2 + 1;
        if cost[v] > cost[term] || (cost[v] == cost[term] && at[c] < at[term / 2]) {
            term = v;
        }
    }
    let total = cost[term];

    // Walk back, then group consecutive nodes of one span into a hop.
    // Each node comes with its in-edge: `(node, edge kind, predecessor)`.
    let mut nodes = Vec::new();
    let mut cur = Some(term);
    while let Some(v) = cur {
        let edge = best_in(&cost, &lane_pred, v);
        nodes.push((v, edge.map_or(START, |e| e.1), edge.map(|e| e.2)));
        cur = edge.map(|e| e.2);
    }
    nodes.reverse();
    let mut hops: Vec<Hop> = Vec::new();
    let mut hop_lane = NONE;
    let mut entry_cost = 0u64;
    let mut entry_via = START;
    for (k, &(v, via, pred)) in nodes.iter().enumerate() {
        let c = v / 2;
        let first_of_span = k == 0 || nodes[k - 1].0 / 2 != c;
        if first_of_span {
            entry_via = via;
            entry_cost = pred.map_or(0, |u| cost[u]);
        }
        let last_of_span = k + 1 == nodes.len() || nodes[k + 1].0 / 2 != c;
        if last_of_span {
            let s = table.record(at[c] as usize);
            let via = if hops.is_empty() { START } else { entry_via };
            let contrib = cost[v] - entry_cost;
            // Coalesce a lane-chained run of the same operation into one
            // hop with a repeat count.
            match hops.last_mut() {
                Some(prev) if via == LANE && hop_lane == lane(c) && prev.name == s.name => {
                    prev.contrib_ns += contrib;
                    prev.count += 1;
                }
                _ => {
                    hop_lane = lane(c);
                    hops.push(Hop {
                        id: s.id,
                        track: s.track.to_string(),
                        lane: s.lane.to_string(),
                        name: s.name,
                        detail: s.detail.to_string(),
                        begin_ns: s.begin.as_nanos(),
                        contrib_ns: contrib,
                        via: VIA[via as usize],
                        count: 1,
                    });
                }
            }
        }
    }
    CriticalPath {
        hops,
        total_ns: total,
    }
}

impl CriticalPath {
    /// Render the chain as an indented text block (byte-stable).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.hops.is_empty() {
            out.push_str("  (no completed spans)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {} hops, {} ms on the path",
            self.hops.len(),
            fmt_ms(self.total_ns)
        );
        let _ = writeln!(
            out,
            "  {:>4} {:>12} {:>12} {:<7} span",
            "#", "begin(ms)", "contrib(ms)", "via"
        );
        for (i, h) in self.hops.iter().enumerate() {
            let mut where_ = format!("{}/{} {}", h.track, h.lane, h.name);
            if h.count > 1 {
                let _ = write!(where_, " x{}", h.count);
            } else if !h.detail.is_empty() {
                let _ = write!(where_, " [{}]", h.detail);
            }
            let _ = writeln!(
                out,
                "  {:>4} {:>12} {:>12} {:<7} {}",
                i + 1,
                fmt_ms(h.begin_ns),
                fmt_ms(h.contrib_ns),
                h.via,
                where_,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStore;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Two hosts: h0 computes (0..100), sends a message (100..120)
    /// received by h1 (wait 80..120), which then computes (120..300).
    fn two_host_snapshot() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let c0 = st.begin(t(0), Category::Sched, "quantum", "h0", "p0", String::new());
        st.end(t(100), c0);
        let rx = st.begin(
            t(80),
            Category::Vsock,
            "vsock_recv",
            "h1",
            "p1",
            String::new(),
        );
        let tx = st.begin(
            t(100),
            Category::Vsock,
            "vsock_send",
            "h0",
            "p0",
            String::new(),
        );
        st.end(t(120), tx);
        st.flow_out("msg", "h0", "h1", tx);
        st.flow_in("msg", "h0", "h1", rx);
        st.end(t(120), rx);
        let c1 = st.begin(
            t(120),
            Category::Sched,
            "quantum",
            "h1",
            "p1",
            String::new(),
        );
        st.end(t(300), c1);
        st.snapshot()
    }

    #[test]
    fn profile_buckets_by_category_and_sorts_ops() {
        let p = Profile::from_snapshot(&two_host_snapshot());
        assert_eq!(p.lanes.len(), 2);
        assert_eq!(p.lanes[0].track, "h0");
        assert_eq!(p.lanes[0].cpu_ns, 100);
        assert_eq!(p.lanes[0].net_ns, 20);
        assert_eq!(p.lanes[1].cpu_ns, 180);
        assert_eq!(p.lanes[1].net_ns, 40);
        assert_eq!(p.total_ns, 340);
        assert_eq!(p.ops[0].name, "quantum"); // 280 ns dominates
        assert_eq!(p.ops[0].count, 2);
        // Rendering twice is byte-identical.
        assert_eq!(
            p.to_table(),
            Profile::from_snapshot(&two_host_snapshot()).to_table()
        );
    }

    #[test]
    fn critical_path_crosses_the_flow_edge() {
        let cp = critical_path(&two_host_snapshot());
        let hops: Vec<_> = cp
            .hops
            .iter()
            .map(|h| (h.name, h.via, h.contrib_ns))
            .collect();
        // Scheduler quanta stay out of the DAG; the path is the message
        // dependency: the send starts the transfer, the flow edge covers
        // send begin → recv end (the receiver's wait rides the flow, not
        // its own zero-weight work edge).
        assert_eq!(
            hops,
            vec![("vsock_send", "start", 0), ("vsock_recv", "flow", 20)]
        );
        assert_eq!(cp.total_ns, 20);
        assert_eq!(
            cp.hops.iter().map(|h| h.contrib_ns).sum::<u64>(),
            cp.total_ns
        );
        assert_eq!(
            cp.to_table(),
            critical_path(&two_host_snapshot()).to_table()
        );
    }

    #[test]
    fn critical_path_without_flows_is_the_longest_lane_chain() {
        let st = SpanStore::new();
        st.set_enabled(true);
        // Lane A: 10 + 10 with an idle gap; lane B: one 25-ns span.
        // B wins — the gap is slack, not cost.
        for (b, e) in [(0u64, 10u64), (20, 30)] {
            let id = st.begin(t(b), Category::Vsock, "vsock_send", "a", "p", String::new());
            st.end(t(e), id);
        }
        let id = st.begin(t(5), Category::Vsock, "vsock_send", "b", "p", String::new());
        st.end(t(30), id);
        let cp = critical_path(&st.snapshot());
        assert_eq!(cp.total_ns, 25);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].track, "b");
        assert_eq!(cp.hops[0].count, 1);
    }

    #[test]
    fn consecutive_lane_hops_coalesce_with_a_count() {
        let st = SpanStore::new();
        st.set_enabled(true);
        for (b, e) in [(0u64, 10u64), (10, 20), (20, 35)] {
            let id = st.begin(t(b), Category::Vsock, "vsock_send", "a", "p", String::new());
            st.end(t(e), id);
        }
        let cp = critical_path(&st.snapshot());
        assert_eq!(cp.total_ns, 35);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].count, 3);
        assert_eq!(cp.hops[0].contrib_ns, 35);
        assert!(cp.to_table().contains("vsock_send x3"));
    }

    /// A random snapshot: up to a dozen spans on four lanes, begins in
    /// time order with same-instant ties, zero-length and open spans,
    /// `Sched` spans, and flows whose ends may be open or
    /// `Sched` spans.
    fn random_snapshot(rng: &mut crate::rng::SimRng) -> SpanSnapshot {
        const CATS: [Category; 3] = [Category::Sched, Category::Vsock, Category::Mpi];
        const NAMES: [&str; 2] = ["a", "b"];
        const HOSTS: [&str; 2] = ["h0", "h1"];
        let st = SpanStore::new();
        st.set_enabled(true);
        let mut ids = Vec::new();
        let mut at = 0;
        for _ in 0..1 + rng.below(12) {
            at += rng.below(3);
            let id = st.begin(
                t(at),
                CATS[rng.below(3) as usize],
                NAMES[rng.below(2) as usize],
                HOSTS[rng.below(2) as usize],
                ["p0", "p1"][rng.below(2) as usize],
                String::new(),
            );
            if rng.below(6) != 0 {
                st.end(t(at + rng.below(4)), id);
            }
            ids.push(id);
        }
        for _ in 0..rng.below(9) {
            let (src, dst) = (HOSTS[rng.below(2) as usize], HOSTS[rng.below(2) as usize]);
            let span = ids[rng.below(ids.len() as u64) as usize];
            if rng.below(2) == 0 {
                st.flow_out("msg", src, dst, span);
            } else {
                st.flow_in("msg", src, dst, span);
            }
        }
        st.snapshot()
    }

    /// The critical path by the rules of [`critical_path`]'s docs, one
    /// edge list per node and one pass over the nodes in time order:
    /// `(total_ns, the first span id of each hop)`.
    fn reference_path(snap: &SpanSnapshot) -> (u64, Vec<SpanId>) {
        const FLOW: u8 = 0;
        const WORK: u8 = 1;
        const LANE: u8 = 2;
        let spans: Vec<_> = snap
            .spans
            .records()
            .filter(|r| r.end.is_some() && r.cat != Category::Sched)
            .collect();
        let n = spans.len();
        if n == 0 {
            return (0, Vec::new());
        }
        let id = |c: usize| spans[c].id.get();
        let begin = |c: usize| spans[c].begin.as_nanos();
        let end = |c: usize| spans[c].end.expect("completed").as_nanos();
        let comp = |sid: SpanId| spans.iter().position(|r| r.id == sid);
        let same_lane = |a: usize, b: usize| {
            (&spans[a].track, &spans[a].lane) == (&spans[b].track, &spans[b].lane)
        };
        // Node 2c is span c's begin, 2c + 1 its end; edges into each
        // node as (from node, kind, weight).
        let mut into: Vec<Vec<(usize, u8, u64)>> = vec![Vec::new(); 2 * n];
        for c in 0..n {
            let lane_pred = (0..n)
                .filter(|&p| {
                    p != c
                        && same_lane(p, c)
                        && (end(p) < begin(c) || (end(p) == begin(c) && id(p) < id(c)))
                })
                .max_by_key(|&p| (end(p), id(p)));
            if let Some(p) = lane_pred {
                into[2 * c].push((2 * p + 1, LANE, 0));
            }
            let producers: Vec<usize> = snap
                .flows
                .iter()
                .filter(|f| comp(f.to) == Some(c))
                .filter_map(|f| comp(f.from))
                .filter(|&a| begin(a) < end(c) || (begin(a) == end(c) && id(a) < id(c)))
                .collect();
            let work = if producers.is_empty() {
                end(c) - begin(c)
            } else {
                0
            };
            into[2 * c + 1].push((2 * c, WORK, work));
            for a in producers {
                into[2 * c + 1].push((2 * a, FLOW, end(c) - begin(a)));
            }
        }
        let mut order: Vec<usize> = (0..2 * n).collect();
        order.sort_by_key(|&v| {
            let c = v / 2;
            (if v % 2 == 0 { begin(c) } else { end(c) }, id(c), v % 2)
        });
        let mut cost = vec![0u64; 2 * n];
        let mut pred: Vec<Option<(usize, u8)>> = vec![None; 2 * n];
        for &v in &order {
            // Highest cost, then edge kind (flow, work, lane),
            // then the smaller span id.
            let best = into[v].iter().copied().max_by(|x, y| {
                (cost[x.0] + x.2)
                    .cmp(&(cost[y.0] + y.2))
                    .then((y.1, id(y.0 / 2)).cmp(&(x.1, id(x.0 / 2))))
            });
            if let Some((u, kind, w)) = best {
                cost[v] = cost[u] + w;
                pred[v] = Some((u, kind));
            }
        }
        let term = (0..n)
            .map(|c| 2 * c + 1)
            .max_by(|&a, &b| cost[a].cmp(&cost[b]).then(id(b / 2).cmp(&id(a / 2))))
            .expect("n > 0");
        // Walk back to the first node, then list each span's visit with
        // the kind of edge that entered it.
        let mut visits: Vec<(usize, Option<u8>)> = Vec::new();
        let mut v = term;
        loop {
            let entry = pred[v];
            match visits.last_mut() {
                Some(last) if last.0 == v / 2 => last.1 = entry.map(|e| e.1),
                _ => visits.push((v / 2, entry.map(|e| e.1))),
            }
            match entry {
                Some((u, _)) => v = u,
                None => break,
            }
        }
        visits.reverse();
        // A lane-entered visit of the same name on the same lane as the
        // hop it follows joins that hop.
        let mut hops: Vec<(SpanId, usize)> = Vec::new();
        for (k, &(c, via)) in visits.iter().enumerate() {
            match hops.last() {
                Some(&(_, first))
                    if k > 0
                        && via == Some(LANE)
                        && same_lane(first, c)
                        && spans[first].name == spans[c].name => {}
                _ => hops.push((spans[c].id, c)),
            }
        }
        (cost[term], hops.into_iter().map(|(sid, _)| sid).collect())
    }

    #[test]
    fn critical_path_matches_a_plain_longest_path() {
        for seed in 0..2000 {
            let snap = random_snapshot(&mut crate::rng::SimRng::new(seed));
            let cp = critical_path(&snap);
            let got = (
                cp.total_ns,
                cp.hops.iter().map(|h| h.id).collect::<Vec<_>>(),
            );
            assert_eq!(got, reference_path(&snap), "seed {seed}");
            assert_eq!(
                cp.hops.iter().map(|h| h.contrib_ns).sum::<u64>(),
                cp.total_ns,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_snapshot_yields_empty_outputs() {
        let snap = SpanSnapshot::default();
        assert_eq!(Profile::from_snapshot(&snap).total_ns, 0);
        assert!(critical_path(&snap).hops.is_empty());
        assert!(Profile::from_snapshot(&snap)
            .to_table()
            .contains("no completed spans"));
    }
}
