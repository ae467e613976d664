//! Differential tests of the observability consumers.
//!
//! [`perfetto::export`] (and [`perfetto::export_to`], the same encoder
//! behind a writer), [`profile::critical_path`] and
//! [`Profile::from_snapshot`] stream, index and read the 32-byte rows of
//! a `SpanTable` where they used to build a `String` per record and walk
//! name-keyed maps over a `Vec<SpanRecord>`. Their output is a contract
//! (the golden Perfetto file, the profiler tables, byte-stable
//! `--profile-out`), so the previous implementations live on here as
//! test-only oracles, reading the records `SpanTable::record`
//! materialises, and random snapshots are run through both.
//!
//! The snapshots are nastier than any real run: names that need every
//! JSON escape class, open spans, begin times out of id order, ties at
//! one instant, flows that name open, unknown or sentinel spans, and the
//! same track/lane text held sometimes by one shared allocation and
//! sometimes by a fresh one per span — which is what proves the store
//! interns by text, whatever allocation holds it.

use std::sync::Arc;

use proptest::prelude::*;

use mgrid_desim::perfetto;
use mgrid_desim::profile::{self, Profile};
use mgrid_desim::{
    Category, Event, FlowEdge, SimTime, SpanId, SpanSnapshot, SpanStore, SpanStr, TraceEvent,
};

/// Track, lane and detail texts: plain, empty, and one per escape class
/// (`"`, `\`, newline, other control bytes, non-ASCII).
const TEXTS: [&str; 8] = [
    "alpha0",
    "beta0",
    "",
    "quo\"te",
    "back\\slash",
    "line\nbreak",
    "ctl\u{1}\t\u{1f}",
    "é漢字🦀\u{7f}",
];

/// Span names, including ones the exporter must escape.
const NAMES: [&str; 5] = [
    "quantum",
    "vsock_send",
    "vsock_recv",
    "we\"ird\\na\nme",
    "π",
];

/// One span to record: `(begin, duration or open, text picks)`.
/// `texts` packs the track, lane, detail, name and category picks and
/// the shared-or-fresh allocation coin.
type SpanSpec = (u64, u64, u64);

/// Build a snapshot from span and flow specs (see the module docs).
fn snapshot(spans: &[SpanSpec], flows: &[(u64, u64, u64)]) -> SpanSnapshot {
    let store = SpanStore::new();
    store.set_enabled(true);
    // A longer store donates ids this snapshot has never heard of.
    let donor = SpanStore::new();
    donor.set_enabled(true);
    let shared: Vec<SpanStr> = TEXTS.iter().map(|t| SpanStr::from(*t)).collect();
    let text = |pick: u64, fresh: bool| -> SpanStr {
        let at = (pick % TEXTS.len() as u64) as usize;
        if fresh {
            Arc::from(TEXTS[at])
        } else {
            shared[at].clone()
        }
    };
    let mut ids: Vec<SpanId> = vec![SpanId::NONE];
    for _ in 0..spans.len() + 3 {
        let id = donor.begin(SimTime::ZERO, Category::Net, "donor", "", "", "");
        ids.push(id);
    }
    for &(begin, dur, texts) in spans {
        let fresh = texts % 2 == 1;
        // Tracks and lanes draw from the first four texts so lanes
        // collect several spans each.
        let track = text(texts / 2 % 4, fresh);
        let lane = text(texts / 8 % 4, fresh);
        let detail = text(texts / 32, fresh);
        let name = NAMES[(texts / 256 % NAMES.len() as u64) as usize];
        let cat = Category::ALL[(texts / 2048 % Category::ALL.len() as u64) as usize];
        let id = store.begin(SimTime::from_nanos(begin), cat, name, track, lane, detail);
        // One span in five stays open.
        if dur % 5 != 0 {
            store.end(SimTime::from_nanos(begin + dur / 5), id);
        }
    }
    let mut snap = store.snapshot();
    snap.flows
        .extend(flows.iter().map(|&(class, from, to)| FlowEdge {
            class: ["msg", "coll"][(class % 2) as usize],
            from: ids[(from % ids.len() as u64) as usize],
            to: ids[(to % ids.len() as u64) as usize],
        }));
    snap
}

/// One event of every variant, names drawn from [`TEXTS`].
fn every_event() -> Vec<Event> {
    let t = |at: usize| SpanStr::from(TEXTS[at]);
    vec![
        Event::QuantumGrant {
            host: t(3),
            job: t(4),
        },
        Event::QuantumPreempt {
            host: t(0),
            job: t(7),
            wall_ns: 10_000_000,
        },
        Event::PacketEnqueue {
            link: 3,
            bytes: 1500,
            queued_bytes: u64::MAX,
        },
        Event::PacketDequeue { link: 0, bytes: 0 },
        Event::PacketDrop { link: 9, bytes: 64 },
        Event::VsockSend {
            src: t(5),
            dst: t(6),
            bytes: 999,
        },
        Event::VsockRecv {
            host: t(2),
            bytes: 1_000,
        },
        Event::MemAlloc {
            host: t(1),
            bytes: 1,
            in_use: 2,
        },
        Event::MemDeny {
            host: t(1),
            requested: 3,
            in_use: 2,
            limit: 4,
        },
        Event::CollectiveStart {
            op: "barrier",
            ranks: 4,
        },
        Event::CollectiveEnd {
            op: "allreduce",
            ranks: 4,
            elapsed_ns: 77,
        },
        Event::FaultInjected {
            fault: "link_down",
            target: t(3),
        },
        Event::RankTimeout {
            rank: 2,
            waited_ns: 5,
        },
    ]
}

/// The analyses and the export agree with their oracles on `snap`.
fn assert_matches_reference(snap: &SpanSnapshot, events: &[TraceEvent]) {
    let want = reference::export(snap, events);
    assert_eq!(perfetto::export(snap, events, &[]), want);
    let mut streamed = Vec::new();
    perfetto::export_to(snap, events, &mut streamed).expect("writes to memory");
    assert_eq!(String::from_utf8(streamed).expect("utf-8"), want);
    let (new, old) = (Profile::from_snapshot(snap), reference::profile(snap));
    assert_eq!(new, old);
    assert_eq!(new.to_table(), old.to_table());
    let (new, old) = (profile::critical_path(snap), reference::critical_path(snap));
    assert_eq!(new, old);
    assert_eq!(new.to_table(), old.to_table());
}

#[test]
fn empty_snapshot_matches_the_reference() {
    assert_matches_reference(&SpanSnapshot::default(), &[]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Times fall in a narrow range so spans tie at one instant, nest,
    /// overlap and chain.
    #[test]
    fn random_snapshots_match_the_reference(
        spans in prop::collection::vec((0u64..40, 0u64..60, any::<u64>()), 0..40),
        flows in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..30),
        ticks in prop::collection::vec((0u64..5_000, 0u64..13), 0..12),
    ) {
        let snap = snapshot(&spans, &flows);
        let kinds = every_event();
        let events: Vec<TraceEvent> = ticks
            .iter()
            .map(|&(at, kind)| TraceEvent {
                at: SimTime::from_nanos(at),
                event: kinds[kind as usize].clone(),
            })
            .collect();
        assert_matches_reference(&snap, &events);
    }

    /// Long single-lane chains with flows between neighbours: the shape
    /// of a real run (one lane per process, FIFO messages), where the
    /// lane-predecessor search and the coalescing of repeated hops work
    /// hardest.
    #[test]
    fn chained_lanes_match_the_reference(
        steps in prop::collection::vec((0u64..4, 0u64..30, 0u64..3), 1..60),
    ) {
        let store = SpanStore::new();
        store.set_enabled(true);
        let hosts: Vec<SpanStr> = ["h0", "h1", "h2", "h3"].iter().map(|h| SpanStr::from(*h)).collect();
        let lane: SpanStr = "proc".into();
        let mut clock = [0u64; 4];
        let mut last: Option<(usize, SpanId)> = None;
        for &(host, dur, kind) in &steps {
            let h = host as usize;
            let (cat, name) = [
                (Category::Sched, "quantum"),
                (Category::Vsock, "vsock_send"),
                (Category::Vsock, "vsock_recv"),
            ][kind as usize];
            let id = store.begin(
                SimTime::from_nanos(clock[h]),
                cat,
                name,
                hosts[h].clone(),
                lane.clone(),
                "",
            );
            clock[h] += dur;
            store.end(SimTime::from_nanos(clock[h]), id);
            // A receive consumes the previous step's send, if any.
            match (kind, last) {
                (2, Some((from, tx))) if from != h => {
                    store.flow_out("msg", "a", "b", tx);
                    store.flow_in("msg", "a", "b", id);
                    last = None;
                }
                (1, _) => last = Some((h, id)),
                _ => {}
            }
        }
        assert_matches_reference(&store.snapshot(), &[]);
    }
}

/// The implementations this repository shipped before the streamed
/// export and the array-based analyses, kept as oracles: one
/// heap `String` per record collected in a `Vec<String>`, name-keyed
/// `BTreeMap`s per span, a `Vec` per DAG node.
mod reference {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    use mgrid_desim::profile::{CriticalPath, Hop, LaneRow, OpRow, Profile};
    use mgrid_desim::{Category, SpanId, SpanRecord, SpanSnapshot, TraceEvent};

    /// Escape a string for a JSON value position.
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Nanoseconds rendered as trace-event microseconds (`"12.345"`).
    fn ts_us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    pub fn export(snap: &SpanSnapshot, events: &[TraceEvent]) -> String {
        // Deterministic pid/tid assignment: tracks sorted by name, lanes
        // sorted within each track, both 1-based.
        let spans: Vec<SpanRecord> = snap.spans.records().collect();
        let mut tracks: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
        for s in &spans {
            tracks
                .entry(s.track.as_ref())
                .or_default()
                .insert(s.lane.as_ref(), 0);
        }
        let mut pid_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (p, (track, lanes)) in tracks.iter_mut().enumerate() {
            pid_of.insert(track, p + 1);
            for (t, tid) in lanes.values_mut().enumerate() {
                *tid = t + 1;
            }
        }
        let events_pid = tracks.len() + 1;

        let mut recs: Vec<String> = Vec::new();

        // Metadata: process and thread names.
        for (track, lanes) in &tracks {
            let pid = pid_of[track];
            recs.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
                esc(track)
            ));
            for (lane, tid) in lanes {
                recs.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                    esc(lane)
                ));
            }
        }
        if !events.is_empty() {
            recs.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{events_pid},\"args\":{{\"name\":\"events\"}}}}"
            ));
            for (t, cat) in Category::ALL.iter().enumerate() {
                recs.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{events_pid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    t + 1,
                    cat.name()
                ));
            }
        }
        // Span slices, in record order.
        for s in &spans {
            let Some(end) = s.end else { continue };
            let pid = pid_of[s.track.as_ref()];
            let tid = tracks[s.track.as_ref()][s.lane.as_ref()];
            let args = if s.detail.is_empty() {
                format!("{{\"span\":{}}}", s.id.get())
            } else {
                format!(
                    "{{\"span\":{},\"detail\":\"{}\"}}",
                    s.id.get(),
                    esc(s.detail.as_ref())
                )
            };
            recs.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                esc(s.name),
                s.cat.name(),
                ts_us(s.begin.as_nanos()),
                ts_us(end.as_nanos().saturating_sub(s.begin.as_nanos())),
            ));
        }

        // Flow arrows: anchored at the producer's begin ("s") and bound to
        // the slice enclosing the consumer's end ("f" with bp:"e").
        for (i, f) in snap.flows.iter().enumerate() {
            let (Some(from), Some(to)) = (snap.span(f.from), snap.span(f.to)) else {
                continue;
            };
            let Some(to_end) = to.end else { continue };
            if from.end.is_none() {
                continue;
            }
            let id = i + 1;
            recs.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                f.class,
                ts_us(from.begin.as_nanos()),
                pid_of[from.track.as_ref()],
                tracks[from.track.as_ref()][from.lane.as_ref()],
            ));
            recs.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                f.class,
                ts_us(to_end.as_nanos()),
                pid_of[to.track.as_ref()],
                tracks[to.track.as_ref()][to.lane.as_ref()],
            ));
        }

        // Flat events as thread-scoped instants on per-category lanes.
        for e in events {
            let tid = Category::ALL
                .iter()
                .position(|c| *c == e.category())
                .expect("category is in ALL")
                + 1;
            recs.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{events_pid},\"tid\":{tid}}}",
                e.event.kind(),
                e.category().name(),
                ts_us(e.at.as_nanos()),
            ));
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(r);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    pub fn profile(snap: &SpanSnapshot) -> Profile {
        let mut lanes: BTreeMap<(String, String), LaneRow> = BTreeMap::new();
        let mut ops: BTreeMap<(Category, &'static str), OpRow> = BTreeMap::new();
        let mut total = 0u64;
        for s in snap.spans.records() {
            if s.end.is_none() {
                continue;
            }
            let d = s.dur_ns();
            total += d;
            let row = lanes
                .entry((s.track.to_string(), s.lane.to_string()))
                .or_insert_with(|| LaneRow {
                    track: s.track.to_string(),
                    lane: s.lane.to_string(),
                    ..LaneRow::default()
                });
            match s.cat {
                Category::Sched => row.cpu_ns += d,
                Category::Net | Category::Vsock => row.net_ns += d,
                Category::Mpi => row.coll_ns += d,
                Category::Mem | Category::Fault => row.other_ns += d,
            }
            let op = ops.entry((s.cat, s.name)).or_insert_with(|| OpRow {
                cat: s.cat,
                name: s.name,
                count: 0,
                total_ns: 0,
            });
            op.count += 1;
            op.total_ns += d;
        }
        let mut ops: Vec<OpRow> = ops.into_values().collect();
        ops.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.cat.cmp(&b.cat))
                .then(a.name.cmp(b.name))
        });
        Profile {
            lanes: lanes.into_values().collect(),
            ops,
            total_ns: total,
        }
    }

    pub fn critical_path(snap: &SpanSnapshot) -> CriticalPath {
        // Completed non-scheduler spans, indexed into `spans`.
        let spans: Vec<SpanRecord> = snap.spans.records().collect();
        let comp: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].end.is_some() && spans[i].cat != Category::Sched)
            .collect();
        if comp.is_empty() {
            return CriticalPath::default();
        }
        let n = comp.len();
        // Map a span id to its `comp` index.
        let mut comp_of: BTreeMap<SpanId, usize> = BTreeMap::new();
        for (c, &i) in comp.iter().enumerate() {
            comp_of.insert(spans[i].id, c);
        }
        let begin_ns = |c: usize| spans[comp[c]].begin.as_nanos();
        let end_ns = |c: usize| spans[comp[c]].end.unwrap().as_nanos();
        let span_id = |c: usize| spans[comp[c]].id;

        // Lane predecessor per comp index: latest span on the same
        // (track, lane) with end <= begin; an equal-instant predecessor
        // must have the smaller id (same-instant causality follows
        // creation order, which also keeps the node graph acyclic).
        let mut by_lane: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (c, &ci) in comp.iter().enumerate() {
            let s = &spans[ci];
            by_lane
                .entry((s.track.as_ref(), s.lane.as_ref()))
                .or_default()
                .push(c);
        }
        for lane in by_lane.values_mut() {
            lane.sort_by_key(|&c| (end_ns(c), span_id(c)));
        }
        let mut lane_pred: Vec<Option<usize>> = vec![None; n];
        for c in 0..n {
            let s = &spans[comp[c]];
            let lane = &by_lane[&(s.track.as_ref(), s.lane.as_ref())];
            let cut = lane.partition_point(|&p| end_ns(p) <= begin_ns(c));
            for &p in lane[..cut].iter().rev() {
                let ok = p != c && (end_ns(p) < begin_ns(c) || span_id(p) < span_id(c));
                if ok {
                    lane_pred[c] = Some(p);
                    break;
                }
            }
        }
        // Flow producers per consumer comp index.
        let mut flows_to: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in &snap.flows {
            if let (Some(&a), Some(&b)) = (comp_of.get(&f.from), comp_of.get(&f.to)) {
                if begin_ns(a) < end_ns(b) || (begin_ns(a) == end_ns(b) && span_id(a) < span_id(b))
                {
                    flows_to[b].push(a);
                }
            }
        }

        // Node c*2 is span c's begin, c*2+1 its end. Topological order:
        // (time, span id, begin-before-end); every edge above respects it.
        let node_time = |v: usize| {
            if v.is_multiple_of(2) {
                begin_ns(v / 2)
            } else {
                end_ns(v / 2)
            }
        };
        let mut order: Vec<usize> = (0..2 * n).collect();
        order.sort_by_key(|&v| (node_time(v), span_id(v / 2), v % 2));
        let mut pos: Vec<usize> = vec![0; 2 * n];
        for (p, &v) in order.iter().enumerate() {
            pos[v] = p;
        }

        // Longest-path DP. `via` is the kind of the chosen in-edge.
        let mut cost: Vec<u64> = vec![0; 2 * n];
        let mut pred: Vec<Option<usize>> = vec![None; 2 * n];
        let mut via: Vec<&'static str> = vec!["start"; 2 * n];
        const PRIO: [&str; 3] = ["flow", "work", "lane"];
        let prio = |k: &str| PRIO.iter().position(|p| *p == k).unwrap() as u8;
        for &v in &order {
            let c = v / 2;
            // (candidate pred node, kind, weight)
            let mut cands: Vec<(usize, &'static str, u64)> = Vec::new();
            if v % 2 == 0 {
                if let Some(p) = lane_pred[c] {
                    cands.push((p * 2 + 1, "lane", 0));
                }
            } else {
                // A flow consumer's end is caused by the message, not by
                // local elapsed time: zero-weight work edge (see above).
                let work_w = if flows_to[c].is_empty() {
                    end_ns(c) - begin_ns(c)
                } else {
                    0
                };
                cands.push((v - 1, "work", work_w));
                for &a in &flows_to[c] {
                    cands.push((a * 2, "flow", end_ns(c) - begin_ns(a)));
                }
            }
            for (u, kind, w) in cands {
                if pos[u] >= pos[v] {
                    continue; // defensive: ignore any order-violating edge
                }
                let cand_cost = cost[u] + w;
                // Max cost, then edge-kind priority, then smaller span id.
                let better = match pred[v] {
                    None => true,
                    Some(p) => {
                        let cur = (
                            cost[v],
                            std::cmp::Reverse(prio(via[v])),
                            std::cmp::Reverse(span_id(p / 2)),
                        );
                        (
                            cand_cost,
                            std::cmp::Reverse(prio(kind)),
                            std::cmp::Reverse(span_id(u / 2)),
                        ) > cur
                    }
                };
                if better {
                    cost[v] = cand_cost;
                    pred[v] = Some(u);
                    via[v] = kind;
                }
            }
        }

        // Terminus: the costliest end node, ties to the smaller span id.
        let mut term = 1usize;
        for c in 0..n {
            let v = c * 2 + 1;
            if cost[v] > cost[term] || (cost[v] == cost[term] && span_id(c) < span_id(term / 2)) {
                term = v;
            }
        }
        let total = cost[term];

        // Walk back, then group consecutive nodes of one span into a hop.
        let mut nodes = Vec::new();
        let mut cur = Some(term);
        while let Some(v) = cur {
            nodes.push(v);
            cur = pred[v];
        }
        nodes.reverse();
        let mut hops: Vec<Hop> = Vec::new();
        let mut entry_cost = 0u64;
        let mut entry_via: &'static str = "start";
        for (k, &v) in nodes.iter().enumerate() {
            let c = v / 2;
            let first_of_span = k == 0 || nodes[k - 1] / 2 != c;
            if first_of_span {
                entry_via = via[v];
                entry_cost = pred[v].map_or(0, |u| cost[u]);
            }
            let last_of_span = k + 1 == nodes.len() || nodes[k + 1] / 2 != c;
            if last_of_span {
                let s = &spans[comp[c]];
                let via = if hops.is_empty() { "start" } else { entry_via };
                let contrib = cost[v] - entry_cost;
                // Coalesce a lane-chained run of the same operation into one
                // hop with a repeat count.
                match hops.last_mut() {
                    Some(prev)
                        if via == "lane"
                            && prev.track == *s.track
                            && prev.lane == *s.lane
                            && prev.name == s.name =>
                    {
                        prev.contrib_ns += contrib;
                        prev.count += 1;
                    }
                    _ => hops.push(Hop {
                        id: s.id,
                        track: s.track.to_string(),
                        lane: s.lane.to_string(),
                        name: s.name,
                        detail: s.detail.to_string(),
                        begin_ns: s.begin.as_nanos(),
                        contrib_ns: contrib,
                        via,
                        count: 1,
                    }),
                }
            }
        }
        CriticalPath {
            hops,
            total_ns: total,
        }
    }
}
