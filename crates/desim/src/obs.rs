//! Observability handle and in-simulation instrumentation functions.
//!
//! Every [`crate::Simulation`] owns an [`Obs`]: a typed-event [`Tracer`]
//! and a causal [`SpanStore`] (both disabled by default) plus an
//! always-on [`Metrics`] registry. Instrumented code anywhere in the
//! workspace calls the free functions in this module — [`emit`],
//! [`count`], [`observe`], [`span_begin`] / [`span_end`] and the two flow
//! halves [`flow_out`] / [`flow_in`] — which resolve the current
//! simulation through the executor's thread-local context.
//!
//! Two properties make these safe on hot paths:
//!
//! - **No-op outside a simulation.** Code like the memory manager is
//!   also used from plain unit tests with no executor running; the free
//!   functions silently do nothing there instead of panicking.
//! - **Lazy event construction.** [`emit`] takes a closure, so an
//!   [`Event`] is never built unless the tracer is actually enabled —
//!   and when it is, its name fields are clones of [`SpanStr`]s the
//!   site interned once, not fresh strings.

use crate::event::{Category, Event};
use crate::executor::try_with_current;
use crate::metrics::{Counter, HistogramHandle, Metrics};
use crate::span::{SpanId, SpanStore, SpanStr};
use crate::trace::Tracer;

/// The observability surface of one simulation: a shared typed-event
/// tracer, a causal span store, and a shared metrics registry.
#[derive(Clone)]
pub struct Obs {
    tracer: Tracer,
    spans: SpanStore,
    metrics: Metrics,
}

impl Obs {
    /// A fresh handle: tracing and spans disabled, metrics empty.
    pub fn new() -> Self {
        Obs {
            tracer: Tracer::disabled(),
            spans: SpanStore::new(),
            metrics: Metrics::new(),
        }
    }

    /// The event tracer (disabled until given capacity and enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The causal span store (disabled until [`Obs::enable_spans`]).
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Convenience: give the tracer `capacity` and enable it.
    pub fn enable_tracing(&self, capacity: usize) {
        self.tracer.set_capacity(capacity);
        self.tracer.set_enabled(true);
    }

    /// Turn on causal span recording.
    pub fn enable_spans(&self) {
        self.spans.set_enabled(true);
    }

    /// Freeze the tracer and span store in place.
    ///
    /// Called at the instant a run's root workload completes, so tasks
    /// still ready in the same event batch record nothing further.
    pub fn seal(&self) {
        self.tracer.set_enabled(false);
        self.tracer.flush_sink();
        self.spans.set_enabled(false);
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

/// Record a typed event in the current simulation's tracer.
///
/// The closure runs only if a simulation context exists *and* its tracer
/// is enabled, so disabled tracing costs one thread-local read.
pub fn emit(event: impl FnOnce() -> Event) {
    try_with_current(|s| {
        let obs = s.obs();
        if obs.tracer.is_enabled() {
            obs.tracer.record(s.now(), event());
        }
    });
}

/// Add `n` to a counter in the current simulation's metrics registry.
/// No-op outside a simulation.
pub fn count(name: &str, n: u64) {
    try_with_current(|s| s.obs().metrics.count(name, n));
}

/// Record a duration-like value (nanoseconds) into a histogram with the
/// default decade bounds. No-op outside a simulation.
pub fn observe(name: &str, value: u64) {
    try_with_current(|s| s.obs().metrics.observe(name, value));
}

/// A [`Counter`] handle bound to the current simulation's registry, for
/// per-event hot paths: resolve the name once at setup, then add without
/// any lookup. Outside a simulation the handle is detached (writes are
/// kept but never snapshotted), preserving the no-op-outside-sim rule.
pub fn counter_handle(name: &str) -> Counter {
    try_with_current(|s| s.obs().metrics.counter_handle(name)).unwrap_or_default()
}

/// A [`HistogramHandle`] bound to the current simulation's registry (see
/// [`counter_handle`] for the rationale and the outside-simulation rule).
pub fn histogram_handle(name: &str, bounds: &[u64]) -> HistogramHandle {
    try_with_current(|s| s.obs().metrics.histogram_handle(name, bounds))
        .unwrap_or_else(|| HistogramHandle::detached(bounds))
}

/// Open a causal span in the current simulation's span store.
///
/// `f` returns `(track, lane, detail)` — the virtual host row, the
/// process/daemon row within it, and free-form detail — as
/// [`SpanStr`]s, so hot call sites can precompute the triple once and
/// clone reference bumps per span. Like [`emit`], the closure runs only
/// when spans are actually recorded, so disabled spans never allocate.
/// Returns [`SpanId::NONE`] (a universal no-op id) when disabled or
/// outside a simulation.
pub fn span_begin(
    cat: Category,
    name: &'static str,
    f: impl FnOnce() -> (SpanStr, SpanStr, SpanStr),
) -> SpanId {
    try_with_current(|s| {
        let obs = s.obs();
        if !obs.spans.is_enabled() {
            return SpanId::NONE;
        }
        let (track, lane, detail) = f();
        obs.spans.begin(s.now(), cat, name, track, lane, detail)
    })
    .unwrap_or(SpanId::NONE)
}

/// Close a causal span. No-op for [`SpanId::NONE`] or outside a
/// simulation.
pub fn span_end(id: SpanId) {
    if id.is_none() {
        return;
    }
    try_with_current(|s| s.obs().spans.end(s.now(), id));
}

/// Record the producing half of a cross-track flow, anchored to `span`
/// (see [`crate::span::SpanStore::flow_out`]). No-op for
/// [`SpanId::NONE`].
pub fn flow_out(class: &'static str, src: &str, dst: &str, span: SpanId) {
    if span.is_none() {
        return;
    }
    try_with_current(|s| s.obs().spans.flow_out(class, src, dst, span));
}

/// Record the consuming half of a cross-track flow, anchored to `span`
/// (see [`crate::span::SpanStore::flow_in`]). No-op for
/// [`SpanId::NONE`].
pub fn flow_in(class: &'static str, src: &str, dst: &str, span: SpanId) {
    if span.is_none() {
        return;
    }
    try_with_current(|s| s.obs().spans.flow_in(class, src, dst, span));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::executor::Simulation;

    #[test]
    fn noop_outside_simulation() {
        // None of these may panic without a running executor.
        emit(|| Event::PacketDrop { link: 1, bytes: 2 });
        count("net.drops", 1);
        observe("sched.quantum_ns", 5);
    }

    #[test]
    fn records_into_current_simulation() {
        let mut sim = Simulation::new(1);
        sim.obs().enable_tracing(16);
        let obs = sim.obs().clone();
        sim.block_on(async {
            emit(|| Event::PacketDrop { link: 3, bytes: 99 });
            count("net.drops", 1);
            count("net.drops", 1);
            observe("net.queue_ns", 123);
        });
        let events = obs.tracer().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category(), Category::Net);
        assert_eq!(obs.metrics().counter("net.drops"), 2);
        assert_eq!(obs.metrics().snapshot().histograms.len(), 1);
    }

    #[test]
    fn spans_record_with_virtual_timestamps() {
        use crate::time::SimDuration;
        let mut sim = Simulation::new(1);
        sim.obs().enable_spans();
        let obs = sim.obs().clone();
        sim.block_on(async {
            let id = span_begin(Category::Sched, "quantum", || {
                ("h0".into(), "job".into(), "".into())
            });
            crate::executor::sleep(SimDuration::from_nanos(50)).await;
            span_end(id);
        });
        let snap = obs.spans().snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans.record(0).dur_ns(), 50);
        assert_eq!(&*snap.spans.record(0).track, "h0");
        // Sealed, the store hands every snapshot the one table.
        obs.seal();
        let (one, two) = (obs.spans().snapshot(), obs.spans().snapshot());
        assert!(std::sync::Arc::ptr_eq(&one.spans, &two.spans));
    }

    #[test]
    fn disabled_spans_skip_arg_construction() {
        let mut sim = Simulation::new(1);
        let obs = sim.obs().clone();
        sim.block_on(async {
            let id = span_begin(Category::Net, "send", || {
                panic!("span closure must not run while spans are disabled")
            });
            assert!(id.is_none());
            span_end(id);
            flow_out("msg", "a", "b", id);
            flow_in("msg", "a", "b", id);
        });
        assert!(obs.spans().is_empty());
    }

    #[test]
    fn disabled_tracer_skips_event_construction() {
        let mut sim = Simulation::new(1);
        let obs = sim.obs().clone();
        sim.block_on(async {
            emit(|| panic!("event closure must not run while tracing is disabled"));
        });
        assert!(obs.tracer().events().is_empty());
    }
}
