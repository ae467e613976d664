//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders a [`SpanSnapshot`] (plus optional flat events) into the
//! Chrome trace-event JSON format that
//! <https://ui.perfetto.dev> and `chrome://tracing` load directly:
//!
//! - every span track (virtual host) becomes a Perfetto *process* row
//!   and every lane (grid process / daemon) a *thread* row under it,
//!   with `"X"` complete events for the spans themselves;
//! - resolved flow edges become `"s"`/`"f"` flow arrows from the
//!   producing span to the consuming span;
//! - flat [`TraceEvent`]s become `"i"` instant ticks on one lane per
//!   [`Category`], under a dedicated `events` process.
//!
//! The output is hand-rolled (no serde), mirroring
//! [`crate::event::Event::to_json_line`]: identical inputs produce byte-identical
//! strings, which the golden-file test in `tests/perfetto.rs` pins.
//! Timestamps are microseconds (the trace-event unit) formatted as
//! exact `ns/1000` decimals with three fractional digits — no floats.
//!
//! The document is streamed: one encoder appends every record to a
//! `String` through the same integer, timestamp and escape writers the
//! JSON-lines trace uses — no per-record heap strings, no per-record name
//! lookups (a span's `(pid, tid)` is resolved once per *kind*, see
//! `SpanTable::lanes`). [`export`] gives the encoder one buffer sized up
//! front from the input counts and returns it; [`export_to`] gives it a
//! small one and hands it to an [`io::Write`] every 64 KB, so writing a
//! profile to a file never holds the document in memory.

use std::convert::Infallible;
use std::io;

use crate::event::Category;
use crate::jsonw::{push_escaped, push_ts_us, push_u64};
use crate::span::{SpanId, SpanSnapshot};
use crate::trace::TraceEvent;

/// Build the complete Chrome trace-event JSON document.
///
/// `events` adds instant ticks (pass `&[]` to skip). The result is a
/// pure function of its inputs: same snapshot, same bytes.
///
/// The third parameter is uninhabited: `&[]` is the only value it takes.
/// It stays because the benchmark crate (`benchmark/src/scenario.rs`)
/// calls `export(snap, events, &[])`.
pub fn export(snap: &SpanSnapshot, events: &[TraceEvent], _none: &[Infallible]) -> String {
    // Typical records run 100-170 bytes; a short guess only costs a
    // regrowth.
    let buf = String::with_capacity(
        64 + 176 * snap.spans.len() + 224 * snap.flows.len() + 112 * events.len(),
    );
    match encode(snap, events, buf, |_| Ok::<(), Infallible>(())) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Write the document [`export`] builds to `out`, the
/// same bytes, in chunks of about 64 KB. Stops at the first failed write
/// and returns its error; `out` is not flushed.
pub fn export_to(
    snap: &SpanSnapshot,
    events: &[TraceEvent],
    out: &mut impl io::Write,
) -> io::Result<()> {
    const CHUNK: usize = 64 * 1024;
    let buf = String::with_capacity(CHUNK + 1024);
    let rest = encode(snap, events, buf, |buf| -> io::Result<()> {
        if buf.len() >= CHUNK {
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
        Ok(())
    })?;
    out.write_all(rest.as_bytes())
}

/// The document under construction: records are appended to `buf`, and
/// `flush` sees `buf` between records (it may drain it).
struct Doc<F> {
    buf: String,
    first: bool,
    flush: F,
}

impl<E, F: FnMut(&mut String) -> Result<(), E>> Doc<F> {
    /// Start the next record: the separator, then `{"name":"<name>"`.
    fn open(&mut self, name: &str) -> Result<(), E> {
        (self.flush)(&mut self.buf)?;
        if !self.first {
            self.buf.push_str(",\n");
        }
        self.first = false;
        self.buf.push_str("{\"name\":\"");
        push_escaped(&mut self.buf, name);
        self.buf.push('"');
        Ok(())
    }

    fn num(&mut self, key: &str, v: u64) {
        self.buf.push_str(key);
        push_u64(&mut self.buf, v);
    }

    fn ts(&mut self, key: &str, ns: u64) {
        self.buf.push_str(key);
        push_ts_us(&mut self.buf, ns);
    }

    /// A `process_name` record, or a `thread_name` one when `tid` is set.
    fn meta(&mut self, pid: u64, tid: Option<u64>, name: &str) -> Result<(), E> {
        self.open(if tid.is_some() {
            "thread_name"
        } else {
            "process_name"
        })?;
        self.num(",\"ph\":\"M\",\"pid\":", pid);
        if let Some(tid) = tid {
            self.num(",\"tid\":", tid);
        }
        self.buf.push_str(",\"args\":{\"name\":\"");
        push_escaped(&mut self.buf, name);
        self.buf.push_str("\"}}");
        Ok(())
    }
}

/// The one encoder behind [`export`] and [`export_to`]: appends the
/// document to `buf`, calling `flush` on it before each record, and
/// returns what `flush` left in it.
fn encode<E>(
    snap: &SpanSnapshot,
    events: &[TraceEvent],
    buf: String,
    flush: impl FnMut(&mut String) -> Result<(), E>,
) -> Result<String, E> {
    let table = &*snap.spans;
    // Deterministic pid/tid assignment: tracks sorted by name, lanes
    // sorted within each track, both 1-based. The lane list is sorted
    // by (track, lane), so one walk over it numbers both.
    let lanes = table.lanes();
    let mut pid_tid: Vec<(u64, u64)> = Vec::with_capacity(lanes.pairs.len());
    for (l, &(track, _)) in lanes.pairs.iter().enumerate() {
        let next = match pid_tid.last() {
            Some(&(pid, tid)) if lanes.pairs[l - 1].0 == track => (pid, tid + 1),
            Some(&(pid, _)) => (pid + 1, 1),
            None => (1, 1),
        };
        pid_tid.push(next);
    }
    let tracks = pid_tid.last().map_or(0, |&(pid, _)| pid);
    let events_pid = tracks + 1;
    // `(pid, tid)` per kind: what a row needs to find its lane.
    let kind_lane: Vec<(u64, u64)> = lanes.of_kind.iter().map(|&l| pid_tid[l as usize]).collect();
    let span_lane = |id: SpanId| {
        let row = &table.rows()[table.index_of(id)?];
        Some((row, kind_lane[row.kind()]))
    };

    let mut doc = Doc {
        buf,
        first: true,
        flush,
    };
    doc.buf.push_str("{\"traceEvents\":[\n");

    // Metadata: process and thread names.
    for (l, &(track, lane)) in lanes.pairs.iter().enumerate() {
        let (pid, tid) = pid_tid[l];
        if tid == 1 {
            doc.meta(pid, None, track)?;
        }
        doc.meta(pid, Some(tid), lane)?;
    }
    if !events.is_empty() {
        doc.meta(events_pid, None, "events")?;
        for (t, cat) in Category::ALL.iter().enumerate() {
            doc.meta(events_pid, Some(t as u64 + 1), cat.name())?;
        }
    }

    // Span slices, in record order.
    for (i, row) in table.rows().iter().enumerate() {
        if !row.is_closed() {
            continue;
        }
        let kind = &table.kinds()[row.kind()];
        let (pid, tid) = kind_lane[row.kind()];
        doc.open(kind.name)?;
        doc.buf.push_str(",\"cat\":\"");
        doc.buf.push_str(kind.cat.name());
        doc.ts("\",\"ph\":\"X\",\"ts\":", row.begin());
        doc.ts(",\"dur\":", row.dur_ns());
        doc.num(",\"pid\":", pid);
        doc.num(",\"tid\":", tid);
        doc.num(",\"args\":{\"span\":", i as u64 + 1);
        let detail = &table.details()[row.detail()];
        if !detail.is_empty() {
            doc.buf.push_str(",\"detail\":\"");
            push_escaped(&mut doc.buf, detail);
            doc.buf.push('"');
        }
        doc.buf.push_str("}}");
    }

    // Flow arrows: anchored at the producer's begin ("s") and bound to
    // the slice enclosing the consumer's end ("f" with bp:"e").
    for (i, f) in snap.flows.iter().enumerate() {
        let (Some((from, from_lane)), Some((to, to_lane))) = (span_lane(f.from), span_lane(f.to))
        else {
            continue;
        };
        let (Some(_), Some(to_end)) = (from.end(), to.end()) else {
            continue;
        };
        let id = i as u64 + 1;
        let halves = [
            ("s\"", from.begin(), from_lane),
            ("f\",\"bp\":\"e\"", to_end, to_lane),
        ];
        for (ph, at, (pid, tid)) in halves {
            doc.open(f.class.name())?;
            doc.buf.push_str(",\"cat\":\"flow\",\"ph\":\"");
            doc.buf.push_str(ph);
            doc.num(",\"id\":", id);
            doc.ts(",\"ts\":", at);
            doc.num(",\"pid\":", pid);
            doc.num(",\"tid\":", tid);
            doc.buf.push('}');
        }
    }

    // Flat events as thread-scoped instants on per-category lanes.
    for e in events {
        let tid = Category::ALL
            .iter()
            .position(|c| *c == e.category())
            .expect("category is in ALL") as u64
            + 1;
        doc.open(e.event.kind())?;
        doc.buf.push_str(",\"cat\":\"");
        doc.buf.push_str(e.category().name());
        doc.ts("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":", e.at.as_nanos());
        doc.num(",\"pid\":", events_pid);
        doc.num(",\"tid\":", tid);
        doc.buf.push('}');
    }

    doc.buf.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(doc.buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FlowClass, SpanStore};
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let a = st.begin(
            t(1_000),
            Category::Sched,
            "quantum",
            "alpha0",
            "mg.A",
            "cpu",
        );
        st.end(t(11_500), a);
        let b = st.begin(
            t(2_000),
            Category::Vsock,
            "vsock_recv",
            "beta0",
            "mg.B",
            String::new(),
        );
        let c = st.begin(
            t(11_500),
            Category::Vsock,
            "vsock_send",
            "alpha0",
            "mg.A",
            "beta0:19",
        );
        st.flow_out(FlowClass::Msg, "alpha0", "beta0:19", c);
        st.flow_in(FlowClass::Msg, "alpha0", "beta0:19", b);
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
    /// A snapshot whose export runs to several 64 KB chunks.
    fn long_sample() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let (track, lane): (crate::SpanStr, crate::SpanStr) = ("alpha0".into(), "mg.A".into());
        for i in 0..2_000u64 {
            let id = st.begin(
                t(i * 10),
                Category::Net,
                "net_send",
                track.clone(),
                lane.clone(),
                "1500B to beta0",
            );
            st.end(t(i * 10 + 7), id);
        }
        st.snapshot()
    }

    #[test]
    fn export_to_writes_the_bytes_export_returns_in_chunks() {
        /// Keeps what it is given and the size of each write.
        #[derive(Default)]
        struct Chunks(Vec<u8>, Vec<usize>);
        impl io::Write for Chunks {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for snap in [SpanSnapshot::default(), sample(), long_sample()] {
            let want = export(&snap, &[], &[]);
            let mut got = Chunks::default();
            export_to(&snap, &[], &mut got).expect("writes to memory");
            assert_eq!(String::from_utf8(got.0).expect("utf-8"), want);
            // Never the whole document at once: a write is one chunk
            // plus at most the record that filled it, then the tail.
            let (tail, chunks) = got.1.split_last().expect("at least the tail");
            assert!(*tail < 65 * 1024, "{:?}", got.1);
            assert!(
                chunks.iter().all(|n| (64 * 1024..65 * 1024).contains(n)),
                "{:?}",
                got.1
            );
            assert_eq!(chunks.is_empty(), want.len() < 64 * 1024);
        }
    }

    #[test]
    fn export_to_stops_at_the_first_failed_write() {
        /// Accepts `left` bytes, then fails every write.
        struct FailsAfter {
            left: usize,
            writes: usize,
        }
        impl io::Write for FailsAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.left == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.left);
                self.left -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let snap = long_sample();
        let size = export(&snap, &[], &[]).len();
        // Failing in the first chunk, at a chunk boundary, and in the tail.
        for left in [0, 1, 64 * 1024, size - 1] {
            let mut out = FailsAfter { left, writes: 0 };
            let err = export_to(&snap, &[], &mut out).expect_err("the writer fails");
            assert_eq!(err.to_string(), "disk full");
            // `write_all` retries a short write once; nothing is written
            // after the failure.
            assert!(
                out.writes <= left / (64 * 1024) + 3,
                "{} writes",
                out.writes
            );
        }
        let mut out = FailsAfter {
            left: size,
            writes: 0,
        };
        export_to(&snap, &[], &mut out).expect("exactly enough room");
    }
}
