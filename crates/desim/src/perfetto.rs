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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Category;
use crate::span::SpanSnapshot;
use crate::trace::TraceEvent;

/// Escape a string for a JSON value position (same rules as
/// [`crate::event::Event::to_json_line`]'s `field_str`).
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
    // sorted within each track, both 1-based.
    let mut tracks: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for s in &snap.spans {
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
    let engine_pid = tracks.len() + 2;

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
    if !epochs.is_empty() {
        let shards = epochs[0].horizons.len();
        recs.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{engine_pid},\"args\":{{\"name\":\"shard-engine\"}}}}"
        ));
        for d in 0..shards {
            recs.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{engine_pid},\"tid\":{},\"args\":{{\"name\":\"shard{d}\"}}}}",
                d + 1
            ));
        }
    }

    // Span slices, in record order.
    for s in &snap.spans {
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
                let name = if rec.ran.get(d).copied().unwrap_or(false) {
                    "run"
                } else {
                    "idle"
                };
                recs.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"epoch\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{engine_pid},\"tid\":{},\"args\":{{\"round\":{}}}}}",
                    ts_us(*last),
                    ts_us(h - *last),
                    d + 1,
                    round + 1,
                ));
                *last = h;
            }
        }
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
