//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders a [`SpanSnapshot`] (plus optional flat events and
//! shard-epoch records) into the Chrome trace-event JSON format that
//! <https://ui.perfetto.dev> and `chrome://tracing` load directly:
//!
//! - every span track (virtual host) becomes a Perfetto *process* row
//!   and every lane (grid process / daemon) a *thread* row under it,
//!   with `"X"` complete events for the spans themselves;
//! - resolved flow edges become `"s"`/`"f"` flow arrows from the
//!   producing span to the consuming span;
//! - flat [`TraceEvent`]s become `"i"` instant ticks on one lane per
//!   [`Category`], under a dedicated `events` process;
//! - [`EpochRecord`]s become run/idle slices on one lane per shard under
//!   a `shard-engine` process (no producer is left in this workspace; see
//!   [`export`]).
//!
//! The output is hand-rolled (no serde), mirroring
//! [`crate::event::Event::to_json_line`]: identical inputs produce byte-identical
//! strings, which the golden-file test in `tests/perfetto.rs` pins.
//! Timestamps are microseconds (the trace-event unit) formatted as
//! exact `ns/1000` decimals with three fractional digits — no floats.
//!
//! The document is streamed: every record is appended straight to the
//! one result `String` (sized up front from the input counts) through
//! the same integer, timestamp and escape writers the JSON-lines trace
//! uses, and each span's `(pid, tid)` comes from one
//! `SpanSnapshot::lane_index` pass — no per-record heap strings, no
//! per-record name lookups.

use crate::event::Category;
use crate::jsonw::{push_escaped, push_ts_us, push_u64};
use crate::span::SpanSnapshot;
use crate::trace::TraceEvent;

/// One barrier round of a sharded run: per-shard horizons and whether
/// each shard had events to execute before its horizon.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochRecord {
    /// Per-shard exclusive horizon in nanoseconds (`u64::MAX` when a
    /// shard was unbounded this round).
    pub horizons: Vec<u64>,
    /// Per-shard: true when the shard had activity before its horizon
    /// (the window executed rather than idle-parked).
    pub ran: Vec<bool>,
}

/// Build the complete Chrome trace-event JSON document.
///
/// `events` adds instant ticks (pass `&[]` to skip). The result is a
/// pure function of its inputs: same snapshot, same bytes.
///
/// `epochs` (always `&[]` in this workspace) and its lane renderer are
/// kept only because the third parameter is pinned by `benchmark/`,
/// which this repo's PRs may not edit: `benchmark/src/scenario.rs` calls
/// `export(snap, events, &[])`.
pub fn export(snap: &SpanSnapshot, events: &[TraceEvent], epochs: &[EpochRecord]) -> String {
    // Deterministic pid/tid assignment: tracks sorted by name, lanes
    // sorted within each track, both 1-based. The lane index is sorted
    // by (track, lane), so one walk over it numbers both.
    let index = snap.lane_index();
    let mut pid_tid: Vec<(u64, u64)> = Vec::with_capacity(index.pairs.len());
    for (l, &(track, _)) in index.pairs.iter().enumerate() {
        let next = match pid_tid.last() {
            Some(&(pid, tid)) if index.pairs[l - 1].0 == track => (pid, tid + 1),
            Some(&(pid, _)) => (pid + 1, 1),
            None => (1, 1),
        };
        pid_tid.push(next);
    }
    let tracks = pid_tid.last().map_or(0, |&(pid, _)| pid);
    let events_pid = tracks + 1;
    let engine_pid = tracks + 2;
    let span_lane = |id| {
        let s = snap.span(id)?;
        Some((s, pid_tid[index.of_span[(id.get() - 1) as usize] as usize]))
    };

    // Typical records run 100-170 bytes; a short guess only costs a
    // regrowth.
    let mut out = String::with_capacity(
        64 + 176 * snap.spans.len() + 224 * snap.flows.len() + 112 * events.len(),
    );
    out.push_str("{\"traceEvents\":[\n");
    let head = out.len();
    // Start the next record: the separator, then `{"name":"<name>"`.
    let open = |out: &mut String, name: &str| {
        if out.len() > head {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":\"");
        push_escaped(out, name);
        out.push('"');
    };
    let num = |out: &mut String, key: &str, v: u64| {
        out.push_str(key);
        push_u64(out, v);
    };
    let ts = |out: &mut String, key: &str, ns: u64| {
        out.push_str(key);
        push_ts_us(out, ns);
    };
    // A `process_name` record, or a `thread_name` one when `tid` is set.
    let meta = |out: &mut String, pid: u64, tid: Option<u64>, name: &str| {
        open(
            out,
            if tid.is_some() {
                "thread_name"
            } else {
                "process_name"
            },
        );
        num(out, ",\"ph\":\"M\",\"pid\":", pid);
        if let Some(tid) = tid {
            num(out, ",\"tid\":", tid);
        }
        out.push_str(",\"args\":{\"name\":\"");
        push_escaped(out, name);
        out.push_str("\"}}");
    };

    // Metadata: process and thread names.
    for (l, &(track, lane)) in index.pairs.iter().enumerate() {
        let (pid, tid) = pid_tid[l];
        if tid == 1 {
            meta(&mut out, pid, None, track);
        }
        meta(&mut out, pid, Some(tid), lane);
    }
    if !events.is_empty() {
        meta(&mut out, events_pid, None, "events");
        for (t, cat) in Category::ALL.iter().enumerate() {
            meta(&mut out, events_pid, Some(t as u64 + 1), cat.name());
        }
    }
    if !epochs.is_empty() {
        meta(&mut out, engine_pid, None, "shard-engine");
        for d in 0..epochs[0].horizons.len() {
            let name = format!("shard{d}");
            meta(&mut out, engine_pid, Some(d as u64 + 1), &name);
        }
    }

    // Span slices, in record order.
    for (s, &l) in snap.spans.iter().zip(&index.of_span) {
        let Some(end) = s.end else { continue };
        let (pid, tid) = pid_tid[l as usize];
        open(&mut out, s.name);
        out.push_str(",\"cat\":\"");
        out.push_str(s.cat.name());
        ts(&mut out, "\",\"ph\":\"X\",\"ts\":", s.begin.as_nanos());
        let dur = end.as_nanos().saturating_sub(s.begin.as_nanos());
        ts(&mut out, ",\"dur\":", dur);
        num(&mut out, ",\"pid\":", pid);
        num(&mut out, ",\"tid\":", tid);
        num(&mut out, ",\"args\":{\"span\":", s.id.get());
        if !s.detail.is_empty() {
            out.push_str(",\"detail\":\"");
            push_escaped(&mut out, &s.detail);
            out.push('"');
        }
        out.push_str("}}");
    }

    // Flow arrows: anchored at the producer's begin ("s") and bound to
    // the slice enclosing the consumer's end ("f" with bp:"e").
    for (i, f) in snap.flows.iter().enumerate() {
        let (Some((from, from_lane)), Some((to, to_lane))) = (span_lane(f.from), span_lane(f.to))
        else {
            continue;
        };
        let Some(to_end) = to.end else { continue };
        if from.end.is_none() {
            continue;
        }
        let id = i as u64 + 1;
        let halves = [
            ("s\"", from.begin.as_nanos(), from_lane),
            ("f\",\"bp\":\"e\"", to_end.as_nanos(), to_lane),
        ];
        for (ph, at, (pid, tid)) in halves {
            open(&mut out, f.class);
            out.push_str(",\"cat\":\"flow\",\"ph\":\"");
            out.push_str(ph);
            num(&mut out, ",\"id\":", id);
            ts(&mut out, ",\"ts\":", at);
            num(&mut out, ",\"pid\":", pid);
            num(&mut out, ",\"tid\":", tid);
            out.push('}');
        }
    }

    // Flat events as thread-scoped instants on per-category lanes.
    for e in events {
        let tid = Category::ALL
            .iter()
            .position(|c| *c == e.category())
            .expect("category is in ALL") as u64
            + 1;
        open(&mut out, e.event.kind());
        out.push_str(",\"cat\":\"");
        out.push_str(e.category().name());
        ts(
            &mut out,
            "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            e.at.as_nanos(),
        );
        num(&mut out, ",\"pid\":", events_pid);
        num(&mut out, ",\"tid\":", tid);
        out.push('}');
    }

    // Shard-epoch lanes: one run/idle slice per shard per round,
    // spanning from the previous round's horizon to this one's.
    if !epochs.is_empty() {
        let shards = epochs[0].horizons.len();
        let mut prev = vec![0u64; shards];
        for (round, rec) in epochs.iter().enumerate() {
            for (d, last) in prev.iter_mut().enumerate() {
                let h = rec.horizons.get(d).copied().unwrap_or(u64::MAX);
                if h == u64::MAX || h <= *last {
                    continue;
                }
                let ran = rec.ran.get(d).copied().unwrap_or(false);
                open(&mut out, if ran { "run" } else { "idle" });
                ts(&mut out, ",\"cat\":\"epoch\",\"ph\":\"X\",\"ts\":", *last);
                ts(&mut out, ",\"dur\":", h - *last);
                num(&mut out, ",\"pid\":", engine_pid);
                num(&mut out, ",\"tid\":", d as u64 + 1);
                num(&mut out, ",\"args\":{\"round\":", round as u64 + 1);
                out.push_str("}}");
                *last = h;
            }
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStore;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let a = st.begin(
            t(1_000),
            None,
            Category::Sched,
            "quantum",
            "alpha0",
            "mg.A",
            "cpu",
        );
        st.end(t(11_500), a);
        let b = st.begin(
            t(2_000),
            None,
            Category::Vsock,
            "vsock_recv",
            "beta0",
            "mg.B",
            String::new(),
        );
        let c = st.begin(
            t(11_500),
            Some(a),
            Category::Vsock,
            "vsock_send",
            "alpha0",
            "mg.A",
            "beta0:19",
        );
        st.flow_out("msg", "alpha0", "beta0:19", c);
        st.flow_in("msg", "alpha0", "beta0:19", b);
        st.end(t(14_000), b);
        st.end(t(15_000), c);
        st.snapshot()
    }

    #[test]
    fn export_is_byte_stable_and_shapes_right() {
        let snap = sample();
        let one = export(&snap, &[], &[]);
        let two = export(&snap, &[], &[]);
        assert_eq!(one, two);
        // pids follow sorted track order: alpha0=1, beta0=2.
        assert!(one.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"alpha0\"}}"
        ));
        assert!(one.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":10.500,\"pid\":1,\"tid\":1"));
        // One flow pair, producer anchored at the send begin.
        assert!(one.contains("\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":11.500,\"pid\":1"));
        assert!(one.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":14.000,\"pid\":2"));
    }

    #[test]
    fn epoch_records_become_engine_lanes() {
        let epochs = vec![
            EpochRecord {
                horizons: vec![5_000, 5_000],
                ran: vec![true, false],
            },
            EpochRecord {
                horizons: vec![9_000, u64::MAX],
                ran: vec![true, true],
            },
        ];
        let out = export(&SpanSnapshot::default(), &[], &epochs);
        assert!(out.contains("\"name\":\"shard-engine\""));
        assert!(out.contains(
            "\"name\":\"run\",\"cat\":\"epoch\",\"ph\":\"X\",\"ts\":0.000,\"dur\":5.000"
        ));
        assert!(out.contains("\"name\":\"idle\",\"cat\":\"epoch\""));
        // The unbounded (u64::MAX) horizon produced no slice.
        assert_eq!(out.matches("\"cat\":\"epoch\"").count(), 3);
    }

    #[test]
    fn instant_events_land_on_category_lanes() {
        use crate::event::Event;
        let events = vec![TraceEvent {
            at: t(7_250),
            event: Event::PacketDrop { link: 3, bytes: 99 },
        }];
        let out = export(&SpanSnapshot::default(), &events, &[]);
        // Net is the second category lane.
        assert!(out.contains(
            "{\"name\":\"packet_drop\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7.250,\"pid\":1,\"tid\":2}"
        ));
    }
}
