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
//!   depends on its lane predecessor (program order), on flow producers
//!   (message send → receive, collective rendezvous), and on its parent.

use std::fmt::Write as _;

use crate::event::Category;
use crate::span::{SpanId, SpanSnapshot};

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
    /// first hop, then `"flow"`, `"lane"`, or `"parent"`.
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
/// two nodes per span, its begin and its end — with four edge kinds:
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
/// - **parent** `begin(p) → begin(s)`, weight 0, for `s`'s parent link;
/// - **flow** `begin(a) → end(s)`, weight `end(s) − begin(a)`, for a
///   resolved [`crate::span::FlowEdge`] `a → s`: the transfer occupies
///   the wall interval from the producer *starting* to the consumer
///   *unblocking*. Anchoring at the producer's begin keeps the graph
///   acyclic even though a send span's ack tail outlives the receive.
///
/// The longest path to any end node is the critical path. All
/// tie-breaks are deterministic: higher cost first, then edge kind
/// (flow, work, lane, parent), then smaller span id.
pub fn critical_path(snap: &SpanSnapshot) -> CriticalPath {
    const NONE: u32 = u32::MAX;
    // Edge kinds, in tie-break priority order; `START` marks a node
    // with no chosen in-edge.
    const FLOW: u8 = 0;
    const WORK: u8 = 1;
    const LANE: u8 = 2;
    const PARENT: u8 = 3;
    const START: u8 = 4;
    const VIA: [&str; 5] = ["flow", "work", "lane", "parent", "start"];

    // Project the completed non-scheduler spans ("comp" spans) into
    // parallel arrays; everything below works on these, not on rows.
    let table = &*snap.spans;
    let (rows, kinds) = (table.rows(), table.kinds());
    let index = table.lanes();
    let mut comp_of: Vec<u32> = vec![NONE; rows.len()];
    let mut at: Vec<u32> = Vec::new();
    let mut begin: Vec<u64> = Vec::new();
    let mut end: Vec<u64> = Vec::new();
    let mut id: Vec<u64> = Vec::new();
    let mut lane: Vec<u32> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if !row.closed || kinds[row.kind as usize].cat == Category::Sched {
            continue;
        }
        comp_of[i] = at.len() as u32;
        at.push(i as u32);
        begin.push(row.begin);
        end.push(row.end);
        id.push(i as u64 + 1);
        lane.push(index.of_kind[row.kind as usize]);
    }
    if at.is_empty() {
        return CriticalPath::default();
    }
    let n = at.len();
    let comp = |sid: SpanId| -> Option<usize> {
        let c = comp_of[table.index_of(sid)?];
        (c != NONE).then_some(c as usize)
    };

    // Lane predecessor per comp index: latest span on the same
    // (track, lane) with end <= begin; an equal-instant predecessor
    // must have the smaller id (same-instant causality follows
    // creation order, which also keeps the node graph acyclic).
    // `by_lane[lane_start[l]..lane_start[l + 1]]` holds lane `l`'s comp
    // indices sorted by (end, id).
    let lanes = index.pairs.len();
    let (lane_start, mut by_lane) =
        bucket(lanes, lane.iter().enumerate().map(|(c, &l)| (l, c as u32)));
    for l in 0..lanes {
        by_lane[lane_start[l] as usize..lane_start[l + 1] as usize]
            .sort_unstable_by_key(|&c| (end[c as usize], id[c as usize]));
    }
    let mut lane_pred: Vec<u32> = vec![NONE; n];
    for c in 0..n {
        let l = lane[c] as usize;
        let mates = &by_lane[lane_start[l] as usize..lane_start[l + 1] as usize];
        let cut = mates.partition_point(|&p| end[p as usize] <= begin[c]);
        lane_pred[c] = mates[..cut]
            .iter()
            .rev()
            .copied()
            .find(|&p| {
                let p = p as usize;
                p != c && (end[p] < begin[c] || id[p] < id[c])
            })
            .unwrap_or(NONE);
    }
    // Flow producers per consumer comp index:
    // `flow_from[flow_start[c]..flow_start[c + 1]]`, in flow order.
    let edges: Vec<(u32, u32)> = snap
        .flows
        .iter()
        .filter_map(|f| {
            let (a, b) = (comp(f.from)?, comp(f.to)?);
            (begin[a] < end[b] || (begin[a] == end[b] && id[a] < id[b]))
                .then_some((b as u32, a as u32))
        })
        .collect();
    let (flow_start, flow_from) = bucket(n, edges.iter().copied());

    // Node c*2 is span c's begin, c*2+1 its end. Topological order:
    // (time, span id, begin-before-end); every edge above respects it.
    let mut order: Vec<(u64, u64, u32)> = Vec::with_capacity(2 * n);
    for c in 0..n {
        order.push((begin[c], id[c], 2 * c as u32));
        order.push((end[c], id[c], 2 * c as u32 + 1));
    }
    order.sort_unstable();

    // Longest-path DP. `via` is the kind of the chosen in-edge.
    let mut cost: Vec<u64> = vec![0; 2 * n];
    let mut pred: Vec<u32> = vec![NONE; 2 * n];
    let mut via: Vec<u8> = vec![START; 2 * n];
    for &(_, _, v) in &order {
        let v = v as usize;
        let c = v / 2;
        // Best in-edge so far: (cost, kind, pred span id, pred node).
        // Max cost, then edge-kind priority, then smaller span id.
        let mut best: Option<(u64, u8, u64, u32)> = None;
        let mut offer = |u: usize, kind: u8, w: u64| {
            let cand = (cost[u] + w, kind, id[u / 2], u as u32);
            let key = |x: (u64, u8, u64, u32)| (x.0, std::cmp::Reverse((x.1, x.2)));
            if best.is_none_or(|cur| key(cand) > key(cur)) {
                best = Some(cand);
            }
        };
        if v.is_multiple_of(2) {
            if lane_pred[c] != NONE {
                offer(lane_pred[c] as usize * 2 + 1, LANE, 0);
            }
            if let Some(p) = rows[at[c] as usize].parent_id().and_then(comp) {
                // Defensive: a parent that does not precede its child
                // in the topological order is ignored.
                if (begin[p], id[p]) < (begin[c], id[c]) {
                    offer(p * 2, PARENT, 0);
                }
            }
        } else {
            // A flow consumer's end is caused by the message, not by
            // local elapsed time: zero-weight work edge (see above).
            let producers = &flow_from[flow_start[c] as usize..flow_start[c + 1] as usize];
            let work_w = if producers.is_empty() {
                end[c] - begin[c]
            } else {
                0
            };
            offer(v - 1, WORK, work_w);
            for &a in producers {
                offer(a as usize * 2, FLOW, end[c] - begin[a as usize]);
            }
        }
        if let Some((best_cost, kind, _, u)) = best {
            cost[v] = best_cost;
            pred[v] = u;
            via[v] = kind;
        }
    }

    // Terminus: the costliest end node, ties to the smaller span id.
    let mut term = 1usize;
    for c in 0..n {
        let v = c * 2 + 1;
        if cost[v] > cost[term] || (cost[v] == cost[term] && id[c] < id[term / 2]) {
            term = v;
        }
    }
    let total = cost[term];

    // Walk back, then group consecutive nodes of one span into a hop.
    let mut nodes = Vec::new();
    let mut cur = term as u32;
    while cur != NONE {
        nodes.push(cur as usize);
        cur = pred[cur as usize];
    }
    nodes.reverse();
    let mut hops: Vec<Hop> = Vec::new();
    let mut hop_lane = NONE;
    let mut entry_cost = 0u64;
    let mut entry_via = START;
    for (k, &v) in nodes.iter().enumerate() {
        let c = v / 2;
        let first_of_span = k == 0 || nodes[k - 1] / 2 != c;
        if first_of_span {
            entry_via = via[v];
            entry_cost = if pred[v] == NONE {
                0
            } else {
                cost[pred[v] as usize]
            };
        }
        let last_of_span = k + 1 == nodes.len() || nodes[k + 1] / 2 != c;
        if last_of_span {
            let s = table.record(at[c] as usize);
            let via = if hops.is_empty() { START } else { entry_via };
            let contrib = cost[v] - entry_cost;
            // Coalesce a lane-chained run of the same operation into one
            // hop with a repeat count.
            match hops.last_mut() {
                Some(prev) if via == LANE && hop_lane == lane[c] && prev.name == s.name => {
                    prev.contrib_ns += contrib;
                    prev.count += 1;
                }
                _ => {
                    hop_lane = lane[c];
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
        let c0 = st.begin(
            t(0),
            None,
            Category::Sched,
            "quantum",
            "h0",
            "p0",
            String::new(),
        );
        st.end(t(100), c0);
        let rx = st.begin(
            t(80),
            None,
            Category::Vsock,
            "vsock_recv",
            "h1",
            "p1",
            String::new(),
        );
        let tx = st.begin(
            t(100),
            None,
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
            None,
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
            let id = st.begin(
                t(b),
                None,
                Category::Vsock,
                "vsock_send",
                "a",
                "p",
                String::new(),
            );
            st.end(t(e), id);
        }
        let id = st.begin(
            t(5),
            None,
            Category::Vsock,
            "vsock_send",
            "b",
            "p",
            String::new(),
        );
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
            let id = st.begin(
                t(b),
                None,
                Category::Vsock,
                "vsock_send",
                "a",
                "p",
                String::new(),
            );
            st.end(t(e), id);
        }
        let cp = critical_path(&st.snapshot());
        assert_eq!(cp.total_ns, 35);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].count, 3);
        assert_eq!(cp.hops[0].contrib_ns, 35);
        assert!(cp.to_table().contains("vsock_send x3"));
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
