//! Bounded ring buffer of typed trace events, with an optional
//! streaming sink.
//!
//! Model components record [`Event`]s (timestamped on entry) into a
//! shared ring buffer when tracing is enabled. Consumers include tests
//! asserting on event ordering, the `mgrid --trace-out` JSON-lines sink,
//! and the metrics summary, which reports the [`Tracer::dropped`] count
//! so a truncated trace is never silently read as complete.
//!
//! Two consumers see different views of a long run:
//!
//! - the in-memory ring keeps only the newest `capacity` events (with
//!   [`Tracer::dropped`] counting evictions), for tests and the summary;
//! - a [`Tracer::set_sink`] writer receives **every** event as a JSON
//!   line the moment it is recorded, so a `--trace-out` file is the
//!   complete stream even when the ring wrapped. [`Tracer::streamed`]
//!   counts the lines written.
//!
//! Independently of both, [`Tracer::kind_counts`] tallies every recorded
//! event by its [`Event::kind`] name — eviction-proof totals for the
//! metrics summary.
//!
//! Recording allocates nothing per event: the tallies are a fixed array
//! indexed by kind, the sink line is encoded into one buffer the tracer
//! reuses and handed over in a single `write_all`, and the ring stores
//! events whose name fields are shared [`crate::span::SpanStr`]s.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;

use crate::event::{Category, Event};
use crate::time::SimTime;

/// One timestamped trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Physical instant the event was recorded.
    pub at: SimTime,
    /// The structured event payload.
    pub event: Event,
}

impl TraceEvent {
    /// Category of the contained event.
    pub fn category(&self) -> Category {
        self.event.category()
    }

    /// Encode as one JSON-lines record (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.event.to_json_line(self.at.as_nanos())
    }
}

struct TraceState {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Eviction-proof per-kind totals, indexed by the event's position
    /// in [`Event::KINDS`].
    kinds: [u64; Event::KINDS.len()],
    /// Optional streaming sink: every recorded event is written as one
    /// JSON line before ring admission, so the sink never truncates.
    sink: Option<Box<dyn Write>>,
    /// The sink's line buffer, reused across events.
    line: String,
    streamed: u64,
    sink_error: Option<String>,
}

/// A shared, bounded trace buffer.
///
/// Cloning shares the buffer. When full, the **oldest** events are
/// evicted and counted in [`Tracer::dropped`].
#[derive(Clone)]
pub struct Tracer {
    state: Rc<RefCell<TraceState>>,
}

impl Tracer {
    /// Create an enabled tracer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            state: Rc::new(RefCell::new(TraceState {
                enabled: true,
                capacity,
                events: VecDeque::new(),
                dropped: 0,
                kinds: [0; Event::KINDS.len()],
                sink: None,
                line: String::new(),
                streamed: 0,
                sink_error: None,
            })),
        }
    }

    /// A tracer that records nothing (the default for a fresh
    /// [`crate::Simulation`]; enable with [`Tracer::set_enabled`] after
    /// giving it capacity via [`Tracer::set_capacity`]).
    pub fn disabled() -> Self {
        let t = Tracer::new(0);
        t.state.borrow_mut().enabled = false;
        t
    }

    /// Whether events are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.state.borrow().enabled
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.state.borrow_mut().enabled = on;
    }

    /// Change the buffer capacity. Excess retained events are evicted
    /// oldest-first (and counted as dropped).
    pub fn set_capacity(&self, capacity: usize) {
        let mut s = self.state.borrow_mut();
        s.capacity = capacity;
        while s.events.len() > capacity {
            s.events.pop_front();
            s.dropped += 1;
        }
    }

    /// Record an event (no-op when disabled).
    ///
    /// The event is counted in [`Tracer::kind_counts`], streamed to the
    /// sink if one is set, then admitted to the bounded ring (evicting
    /// the oldest entry when full).
    pub fn record(&self, at: SimTime, event: Event) {
        let mut s = self.state.borrow_mut();
        let s = &mut *s;
        if !s.enabled {
            return;
        }
        s.kinds[event.kind_index()] += 1;
        if let (Some(sink), None) = (s.sink.as_mut(), &s.sink_error) {
            s.line.clear();
            event.write_json_line(at.as_nanos(), &mut s.line);
            s.line.push('\n');
            match sink.write_all(s.line.as_bytes()) {
                Ok(()) => s.streamed += 1,
                Err(e) => s.sink_error = Some(e.to_string()),
            }
        }
        if s.events.len() >= s.capacity {
            s.events.pop_front();
            s.dropped += 1;
        }
        if s.capacity > 0 {
            s.events.push_back(TraceEvent { at, event });
        }
    }

    /// Attach a streaming sink. Every subsequently recorded event is
    /// written to it as one JSON line (the `--trace-out` format) at
    /// record time, independent of ring capacity. Replaces any previous
    /// sink without flushing it; call [`Tracer::flush_sink`] first if
    /// that matters.
    pub fn set_sink(&self, sink: Box<dyn Write>) {
        let mut s = self.state.borrow_mut();
        s.sink = Some(sink);
        s.streamed = 0;
        s.sink_error = None;
    }

    /// Flush the streaming sink, if any (errors are latched like write
    /// errors).
    pub fn flush_sink(&self) {
        let mut s = self.state.borrow_mut();
        if s.sink_error.is_some() {
            return;
        }
        if let Some(sink) = s.sink.as_mut() {
            if let Err(e) = sink.flush() {
                s.sink_error = Some(e.to_string());
            }
        }
    }

    /// Number of events successfully written to the streaming sink.
    pub fn streamed(&self) -> u64 {
        self.state.borrow().streamed
    }

    /// First sink write/flush error, if any. Once set, streaming stops;
    /// the in-memory ring keeps recording.
    pub fn sink_error(&self) -> Option<String> {
        self.state.borrow().sink_error.clone()
    }

    /// Eviction-proof per-kind event totals, sorted by kind name. Counts
    /// every recorded event regardless of ring capacity.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let s = self.state.borrow();
        let mut counts: Vec<(&'static str, u64)> = Event::KINDS
            .iter()
            .zip(s.kinds)
            .filter(|(_, n)| *n > 0)
            .map(|(kind, n)| (*kind, n))
            .collect();
        counts.sort_unstable();
        counts
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.borrow().events.iter().cloned().collect()
    }

    /// Number of events evicted because the buffer was full. A nonzero
    /// value means [`Tracer::events`] is a *suffix* of the true event
    /// stream, not the whole of it.
    pub fn dropped(&self) -> u64 {
        self.state.borrow().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn ev(n: u64) -> Event {
        Event::PacketDequeue { link: 0, bytes: n }
    }

    /// A `Write` sharing its buffer, so a test can read it back after
    /// handing ownership to the tracer.
    #[derive(Clone, Default)]
    struct Shared(Rc<RefCell<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn records_in_order() {
        let t = Tracer::new(10);
        t.record(
            SimTime::from_nanos(1),
            Event::QuantumGrant {
                host: "h0".into(),
                job: "j".into(),
            },
        );
        t.record(SimTime::from_nanos(2), ev(9));
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].category(), Category::Sched);
        assert_eq!(evs[1].event, ev(9));
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_drops() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            t.record(SimTime::from_nanos(i), ev(i));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].event, ev(2)); // 0 and 1 were evicted
        assert_eq!(evs[2].event, ev(4));
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let t = Tracer::new(0);
        for i in 0..4u64 {
            t.record(SimTime::ZERO, ev(i));
        }
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn disabled_records_nothing_and_counts_nothing() {
        let t = Tracer::disabled();
        t.record(SimTime::ZERO, ev(1));
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn set_capacity_shrinks_with_drop_accounting() {
        let t = Tracer::new(8);
        for i in 0..6u64 {
            t.record(SimTime::ZERO, ev(i));
        }
        t.set_capacity(2);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 4);
        assert_eq!(t.events()[0].event, ev(4));
    }

    #[test]
    fn filter_by_category() {
        let t = Tracer::new(10);
        t.record(SimTime::ZERO, ev(1));
        t.record(
            SimTime::ZERO,
            Event::QuantumGrant {
                host: "h".into(),
                job: "j".into(),
            },
        );
        t.record(SimTime::ZERO, ev(2));
        let count = |c| t.events().iter().filter(|e| e.category() == c).count();
        assert_eq!(count(Category::Net), 2);
        assert_eq!(count(Category::Sched), 1);
        assert_eq!(count(Category::Mpi), 0);
    }

    #[test]
    fn kind_counts_survive_eviction() {
        let t = Tracer::new(2);
        for i in 0..5u64 {
            t.record(SimTime::from_nanos(i), ev(i));
        }
        t.record(
            SimTime::from_nanos(9),
            Event::QuantumGrant {
                host: "h".into(),
                job: "j".into(),
            },
        );
        assert_eq!(
            t.kind_counts(),
            vec![("packet_dequeue", 5), ("quantum_grant", 1)]
        );
        assert_eq!(t.events().len(), 2); // the ring still evicted
    }

    #[test]
    fn sink_streams_every_event_past_ring_capacity() {
        let buf = Shared::default();
        let t = Tracer::new(1); // ring keeps only the newest event
        t.set_sink(Box::new(buf.clone()));
        for i in 0..4u64 {
            t.record(SimTime::from_nanos(i), ev(i));
        }
        assert_eq!(t.streamed(), 4);
        assert_eq!(t.dropped(), 3);
        assert!(t.sink_error().is_none());
        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"t_ns\":0"));
    }

    #[test]
    fn sink_error_latches_and_stops_streaming() {
        /// Fails every write, counting the attempts.
        struct Failing(Rc<Cell<u32>>);
        impl std::io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                self.0.set(self.0.get() + 1);
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let attempts = Rc::new(Cell::new(0));
        let t = Tracer::new(4);
        t.set_sink(Box::new(Failing(attempts.clone())));
        t.record(SimTime::ZERO, ev(1));
        t.record(SimTime::ZERO, ev(2));
        assert_eq!(t.streamed(), 0);
        assert!(t.sink_error().unwrap().contains("disk full"));
        assert_eq!(attempts.get(), 1); // the sink is left alone after the error
        assert_eq!(t.events().len(), 2); // the ring keeps recording
        assert_eq!(t.kind_counts(), vec![("packet_dequeue", 2)]);
    }

    /// One event of every variant, with strings that need escaping.
    fn every_event() -> Vec<Event> {
        vec![
            Event::QuantumGrant {
                host: "h\"0".into(),
                job: "j\\0".into(),
            },
            Event::QuantumPreempt {
                host: "h".into(),
                job: "line\nbreak".into(),
                wall_ns: u64::MAX,
            },
            Event::PacketEnqueue {
                link: 1,
                bytes: 2,
                queued_bytes: 3,
            },
            Event::PacketDequeue { link: 4, bytes: 5 },
            Event::PacketDrop { link: 6, bytes: 7 },
            Event::VsockSend {
                src: "é漢字".into(),
                dst: "ctl\u{1}".into(),
                bytes: 11,
            },
            Event::VsockRecv {
                host: "".into(),
                bytes: 0,
            },
            Event::MemAlloc {
                host: "m".into(),
                bytes: 12,
                in_use: 13,
            },
            Event::MemDeny {
                host: "m".into(),
                requested: 14,
                in_use: 15,
                limit: 16,
            },
            Event::CollectiveStart {
                op: "barrier",
                ranks: 4,
            },
            Event::CollectiveEnd {
                op: "bcast",
                ranks: 4,
                elapsed_ns: 17,
            },
            Event::FaultInjected {
                fault: "link_down",
                target: "a<->b".into(),
            },
            Event::RankTimeout {
                rank: 3,
                waited_ns: 18,
            },
        ]
    }

    #[test]
    fn sink_receives_each_variant_as_its_json_line() {
        let events = every_event();
        assert_eq!(events.len(), Event::KINDS.len());
        let buf = Shared::default();
        let t = Tracer::new(2);
        t.set_sink(Box::new(buf.clone()));
        let mut want = String::new();
        for (i, e) in events.iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 1_000);
            t.record(at, e.clone());
            want.push_str(&e.to_json_line(at.as_nanos()));
            want.push('\n');
        }
        assert_eq!(String::from_utf8(buf.0.borrow().clone()).unwrap(), want);
        assert_eq!(t.streamed(), events.len() as u64);
    }

    #[test]
    fn kind_counts_are_sorted_by_name_and_skip_unseen_kinds() {
        let t = Tracer::new(1);
        for e in every_event().into_iter().skip(2) {
            t.record(SimTime::ZERO, e.clone());
            t.record(SimTime::ZERO, e);
        }
        let counts = t.kind_counts();
        let mut names: Vec<&str> = Event::KINDS[2..].to_vec();
        names.sort_unstable();
        assert_eq!(counts.iter().map(|(k, _)| *k).collect::<Vec<_>>(), names);
        assert!(counts.iter().all(|(_, n)| *n == 2));
    }
}
