//! Lightweight metrics registry: counters and fixed-bucket histograms,
//! with no external dependencies.
//!
//! A [`Metrics`] registry is a cheap clonable handle (`Rc` inside — the
//! simulator is single-threaded) that instrumented subsystems write to
//! through the free functions in [`crate::obs`]. A [`MetricsSnapshot`]
//! freezes the registry into plain sorted vectors, which serialize with
//! serde, render as text, and [`MetricsSnapshot::merge`] across the many
//! simulations one benchmark figure runs.
//!
//! Naming convention: `"<category>.<metric>"`, e.g. `"sched.quanta"`,
//! `"net.drops"`, matching [`crate::event::Category`] names so the
//! per-category summary can group them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

/// Default histogram bucket upper bounds for durations, in nanoseconds:
/// one bucket per decade from 1 µs to 10 s.
pub const TIME_BOUNDS_NS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Default histogram bucket upper bounds for sizes, in bytes: one bucket
/// per factor of 4 from 64 B to 1 MiB.
pub const SIZE_BOUNDS_BYTES: &[u64] = &[64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

#[derive(Clone, Debug)]
struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last counts values above every bound.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// A pre-registered counter: a shared cell that adds with no name lookup.
///
/// Obtain one from [`Metrics::counter_handle`] (or
/// [`crate::obs::counter_handle`] inside a simulation) during setup, then
/// call [`Counter::add`] on the hot path. A handle detached from any
/// registry (outside a simulation) still works; its writes are simply
/// never snapshotted.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A pre-registered histogram: records values with no name lookup.
///
/// Obtain one from [`Metrics::histogram_handle`] (or
/// [`crate::obs::histogram_handle`] inside a simulation) during setup.
/// Detached handles (outside a simulation) record into private storage
/// that is never snapshotted.
#[derive(Clone)]
pub struct HistogramHandle {
    hist: Rc<RefCell<Histogram>>,
}

impl HistogramHandle {
    /// A histogram attached to no registry.
    pub fn detached(bounds: &[u64]) -> Self {
        HistogramHandle {
            hist: Rc::new(RefCell::new(Histogram::new(bounds))),
        }
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.hist.borrow_mut().observe(value);
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Rc<RefCell<Histogram>>>,
}

/// A registry of named counters and histograms.
///
/// Cloning shares the underlying storage; a simulation and its
/// instrumented components all write to one registry.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `n` to the counter `name` (creating it at zero).
    pub fn count(&self, name: &str, n: u64) {
        self.counter_handle(name).add(n);
    }

    /// A shared handle to the counter `name` (creating it at zero). The
    /// handle adds directly to the counter's cell, skipping the per-call
    /// name lookup — use it from per-event hot paths.
    pub fn counter_handle(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        match inner.counters.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                inner.counters.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Current value of counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// A shared handle to histogram `name`, creating it with `bounds` on
    /// first use (later calls ignore `bounds`). The handle records
    /// directly, skipping the per-call name lookup.
    pub fn histogram_handle(&self, name: &str, bounds: &[u64]) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        let hist = match inner.histograms.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Rc::new(RefCell::new(Histogram::new(bounds)));
                inner.histograms.insert(name.to_string(), h.clone());
                h
            }
        };
        HistogramHandle { hist }
    }

    /// Record a duration-like `value` (nanoseconds) into histogram `name`
    /// with the default decade bounds [`TIME_BOUNDS_NS`].
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram_handle(name, TIME_BOUNDS_NS).observe(value);
    }

    /// Freeze the registry into a serializable snapshot. Entries are
    /// sorted by name, so equal registries produce identical snapshots.
    /// Counters and histograms that were registered (e.g. through a
    /// handle) but never written are omitted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .filter(|(_, v)| v.get() > 0)
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .filter(|(_, h)| h.borrow().count > 0)
                .map(|(k, h)| {
                    let h = h.borrow();
                    HistogramSnapshot {
                        name: k.clone(),
                        bounds: h.bounds.clone(),
                        buckets: h.buckets.clone(),
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0 } else { h.min },
                        max: h.max,
                    }
                })
                .collect(),
        }
    }
}

/// Frozen, serializable state of one histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one more entry than `bounds`, the last being
    /// values above every bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Frozen, serializable state of a whole [`Metrics`] registry.
///
/// All entries are sorted by name (inherited from the registry's ordered
/// storage), making snapshots deterministic across runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Counter value by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Fold `other` into `self`: counters add, histograms with identical
    /// bounds merge bucket-wise (mismatched bounds keep `self`'s buckets
    /// and only fold the scalar stats).
    ///
    /// Used by the bench runner to combine the registries of the several
    /// simulations that make up one figure.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(mine) => {
                    if mine.bounds == h.bounds {
                        for (b, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                            *b += o;
                        }
                    }
                    if h.count > 0 {
                        mine.min = if mine.count == 0 {
                            h.min
                        } else {
                            mine.min.min(h.min)
                        };
                        mine.max = mine.max.max(h.max);
                    }
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Render as an indented, human-readable text block, grouped by the
    /// `"<category>."` prefix of each metric name. Used by the `mgrid`
    /// CLI and appended to report tables.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        let mut last_prefix = String::new();
        let prefix_of = |name: &str| name.split('.').next().unwrap_or("").to_string();
        for (name, v) in &self.counters {
            let p = prefix_of(name);
            if p != last_prefix {
                let _ = writeln!(out, "  [{p}]");
                last_prefix = p;
            }
            let _ = writeln!(out, "    {name:<32} {v}");
        }
        for h in &self.histograms {
            let p = prefix_of(&h.name);
            if p != last_prefix {
                let _ = writeln!(out, "  [{p}]");
                last_prefix = p.clone();
            }
            let _ = writeln!(
                out,
                "    {:<32} count={} mean={:.1} min={} max={}",
                h.name,
                h.count,
                h.mean(),
                h.min,
                h.max
            );
            let mut cumulative = String::from("      buckets:");
            for (i, c) in h.buckets.iter().enumerate() {
                let label = if i < h.bounds.len() {
                    format!("<={}", h.bounds[i])
                } else {
                    "inf".to_string()
                };
                let _ = write!(cumulative, " {label}:{c}");
            }
            let _ = writeln!(out, "{cumulative}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.count("net.drops", 1);
        m.count("net.drops", 2);
        assert_eq!(m.counter("net.drops"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        for v in [500, 5_000, 5_000_000, u64::MAX / 2] {
            m.observe("sched.quantum_ns", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.name, "sched.quantum_ns");
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 500);
        assert_eq!(h.buckets[0], 1); // 500 <= 1_000
        assert_eq!(h.buckets[1], 1); // 5_000 <= 10_000
        assert_eq!(h.buckets[4], 1); // 5_000_000 <= 10_000_000
        assert_eq!(*h.buckets.last().unwrap(), 1); // overflow bucket
    }

    /// `count`/`observe` and the handles are one registration path: a
    /// name written through both is one counter, and a histogram keeps
    /// the bounds it was first registered with.
    #[test]
    fn named_writes_and_handles_share_one_entry() {
        let m = Metrics::new();
        m.count("net.drops", 2);
        m.counter_handle("net.drops").add(3);
        m.count("net.drops", 4);
        m.observe("net.queue_ns", 500);
        m.histogram_handle("net.queue_ns", &[64, 256]).observe(100);
        let snap = m.snapshot();
        assert_eq!(snap.counters, vec![("net.drops".to_string(), 9)]);
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!(h.bounds, TIME_BOUNDS_NS);
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max, h.sum), (100, 500, 600));

        // Registered first through a handle, the handle's bounds stick.
        let m = Metrics::new();
        let early = m.histogram_handle("h", &[100]);
        m.observe("h", 1_000);
        early.observe(10);
        let snap = m.snapshot();
        assert_eq!(snap.histograms[0].bounds, vec![100]);
        assert_eq!(snap.histograms[0].buckets, vec![1, 1]);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let a = Metrics::new();
        a.count("z.last", 1);
        a.count("a.first", 1);
        a.observe("m.mid", 5);
        let b = Metrics::new();
        b.observe("m.mid", 5);
        b.count("a.first", 1);
        b.count("z.last", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().counters[0].0, "a.first");
    }

    #[test]
    fn merge_adds_counters_and_folds_histograms() {
        let a = Metrics::new();
        a.count("net.drops", 2);
        a.histogram_handle("h", &[100]).observe(10);
        let b = Metrics::new();
        b.count("net.drops", 3);
        b.count("sched.quanta", 7);
        b.histogram_handle("h", &[100]).observe(1_000);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("net.drops"), 5);
        assert_eq!(merged.counter("sched.quanta"), 7);
        let h = &merged.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![1, 1]);
        assert_eq!((h.min, h.max), (10, 1_000));
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::new();
        m.count("mem.denials", 1);
        m.histogram_handle("net.queue", &[64, 256]).observe(42);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn table_groups_by_prefix() {
        let m = Metrics::new();
        m.count("net.drops", 1);
        m.count("sched.quanta", 2);
        let t = m.snapshot().to_table();
        assert!(t.contains("[net]"));
        assert!(t.contains("[sched]"));
        assert!(t.contains("net.drops"));
    }
}
