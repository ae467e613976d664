//! Autopilot-style application sensors (paper §3.6, Fig 17).
//!
//! The paper's internal validation instruments the NPB codes with the
//! Autopilot toolkit [Ribler et al., HPDC'98]: sensors track the values of
//! program variables over execution, sampled at a fixed period, "with one
//! sample of the variables being made every 1 second for the Alpha cluster,
//! and every 25 seconds for the MicroGrid to take into account the
//! simulation rate" — i.e. every second of *virtual* time. The skew between
//! a physical trace and a MicroGrid trace is the root-mean-square
//! percentage difference at each sample index.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use mgrid_desim::spawn_daemon;
use mgrid_desim::time::SimDuration;
use mgrid_desim::vclock::VirtualClock;

/// A sensor: a shared numeric program variable.
#[derive(Clone)]
pub struct Sensor {
    value: Rc<Cell<f64>>,
}

impl Sensor {
    /// Set the instrumented variable.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Add to the instrumented variable.
    pub fn add(&self, dv: f64) {
        self.value.set(self.value.get() + dv);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value.get()
    }
}

struct ApInner {
    sensors: BTreeMap<String, Sensor>,
    traces: BTreeMap<String, Vec<(f64, f64)>>,
    running: bool,
}

/// A sensor registry plus periodic sampler.
#[derive(Clone)]
pub struct Autopilot {
    inner: Rc<RefCell<ApInner>>,
}

impl Default for Autopilot {
    fn default() -> Self {
        Self::new()
    }
}

impl Autopilot {
    /// An empty registry.
    pub fn new() -> Self {
        Autopilot {
            inner: Rc::new(RefCell::new(ApInner {
                sensors: BTreeMap::new(),
                traces: BTreeMap::new(),
                running: false,
            })),
        }
    }

    /// Register (or fetch) a sensor by name.
    pub fn sensor(&self, name: impl Into<String>) -> Sensor {
        let name = name.into();
        let mut inner = self.inner.borrow_mut();
        inner
            .sensors
            .entry(name.clone())
            .or_insert_with(|| Sensor {
                value: Rc::new(Cell::new(0.0)),
            })
            .clone()
    }

    /// Start sampling every `period` of **virtual** time (on `clock`).
    /// Each sample appends `(virtual_seconds, value)` to every sensor's
    /// trace. Sampling runs until `until` virtual seconds have elapsed.
    pub fn start_sampling(&self, clock: &VirtualClock, period: SimDuration, until: SimDuration) {
        {
            let mut inner = self.inner.borrow_mut();
            assert!(!inner.running, "sampler already running");
            inner.running = true;
        }
        let me = self.clone();
        let clock = *clock;
        spawn_daemon(async move {
            let mut elapsed = SimDuration::ZERO;
            let t0 = clock.virtual_at(mgrid_desim::now());
            while elapsed < until {
                mgrid_desim::vclock::sleep_virtual(&clock, period).await;
                elapsed += period;
                let vt = clock.virtual_at(mgrid_desim::now());
                let secs = (vt.saturating_since(t0)).as_secs_f64();
                let mut inner = me.inner.borrow_mut();
                let samples: Vec<(String, f64)> = inner
                    .sensors
                    .iter()
                    .map(|(n, s)| (n.clone(), s.get()))
                    .collect();
                for (n, v) in samples {
                    inner.traces.entry(n).or_default().push((secs, v));
                }
            }
        });
    }

    /// The recorded trace of a sensor: `(virtual_seconds, value)` samples.
    pub fn trace(&self, name: &str) -> Vec<(f64, f64)> {
        self.inner
            .borrow()
            .traces
            .get(name)
            .cloned()
            .unwrap_or_default()
    }
}

/// Root-mean-square percentage difference between two traces, compared
/// sample-by-sample (index-aligned, over the common prefix), as the paper
/// computes skew for Fig 17. Sample pairs where the reference value is
/// (near) zero are skipped.
pub fn rms_skew_percent(reference: &[(f64, f64)], other: &[(f64, f64)]) -> f64 {
    let n = reference.len().min(other.len());
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        let r = reference[i].1;
        let o = other[i].1;
        if r.abs() < 1e-12 {
            continue;
        }
        let pct = (o - r) / r * 100.0;
        sum += pct * pct;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

/// Linearly resample a trace at `n` evenly spaced times across its span
/// (used to compare traces recorded at different effective rates).
pub fn resample(trace: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if trace.is_empty() || n == 0 {
        return Vec::new();
    }
    let t0 = trace[0].0;
    let t1 = trace[trace.len() - 1].0;
    if trace.len() == 1 || t1 <= t0 {
        return vec![trace[0]; n];
    }
    let mut out = Vec::with_capacity(n);
    let mut j = 0usize;
    for i in 0..n {
        let t = t0 + (t1 - t0) * i as f64 / (n - 1).max(1) as f64;
        while j + 1 < trace.len() - 1 && trace[j + 1].0 < t {
            j += 1;
        }
        let (ta, va) = trace[j];
        let (tb, vb) = trace[j + 1];
        let f = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
        out.push((t, va + f.clamp(0.0, 1.0) * (vb - va)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::Simulation;

    #[test]
    fn sampler_records_periodically() {
        let mut sim = Simulation::new(1);
        let ap_out: Autopilot = sim.block_on(async {
            let ap = Autopilot::new();
            let s = ap.sensor("counter");
            let clock = VirtualClock::identity();
            ap.start_sampling(&clock, SimDuration::from_secs(1), SimDuration::from_secs(5));
            for i in 0..50u32 {
                s.set(i as f64);
                mgrid_desim::sleep(SimDuration::from_millis(100)).await;
            }
            mgrid_desim::sleep(SimDuration::from_secs(1)).await;
            ap
        });
        let trace = ap_out.trace("counter");
        assert_eq!(trace.len(), 5);
        // At virtual t=1s the counter is ~9 (set every 100ms).
        assert!((trace[0].1 - 9.0).abs() <= 1.0, "got {:?}", trace[0]);
        assert!(trace[4].1 > trace[0].1);
    }

    #[test]
    fn sampling_follows_virtual_rate() {
        // At rate 0.04 (the paper's Fig 17 setting) a 1-virtual-second
        // period is 25 physical seconds.
        let mut sim = Simulation::new(2);
        let ap = sim.block_on(async {
            let ap = Autopilot::new();
            let _ = ap.sensor("x");
            let clock = VirtualClock::new(0.04);
            ap.start_sampling(&clock, SimDuration::from_secs(1), SimDuration::from_secs(3));
            mgrid_desim::sleep(SimDuration::from_secs(80)).await; // 3.2 virtual s
            ap
        });
        let trace = ap.trace("x");
        assert_eq!(trace.len(), 3);
        assert!((trace[0].0 - 1.0).abs() < 1e-6);
        assert!((trace[2].0 - 3.0).abs() < 1e-6);
    }

    #[test]
    fn identical_traces_have_zero_skew() {
        let t = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        assert_eq!(rms_skew_percent(&t, &t), 0.0);
    }

    #[test]
    fn skew_magnitude_is_rms_of_percent_errors() {
        let a = vec![(1.0, 100.0), (2.0, 100.0)];
        let b = vec![(1.0, 103.0), (2.0, 97.0)];
        let skew = rms_skew_percent(&a, &b);
        assert!((skew - 3.0).abs() < 1e-9, "skew {skew}");
    }

    #[test]
    fn skew_skips_zero_reference() {
        let a = vec![(1.0, 0.0), (2.0, 50.0)];
        let b = vec![(1.0, 42.0), (2.0, 55.0)];
        assert!((rms_skew_percent(&a, &b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn resample_preserves_endpoints_and_monotonicity() {
        let t: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (i * i) as f64)).collect();
        let r = resample(&t, 5);
        assert_eq!(r.len(), 5);
        assert!((r[0].1 - 0.0).abs() < 1e-9);
        assert!((r[4].1 - 81.0).abs() < 1e-9);
        for w in r.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn sensor_add_accumulates() {
        let ap = Autopilot::new();
        let s = ap.sensor("acc");
        s.add(2.0);
        s.add(3.0);
        assert_eq!(s.get(), 5.0);
        // Same name returns the same sensor.
        assert_eq!(ap.sensor("acc").get(), 5.0);
    }
}
