//! Execution-driven models of the NAS Parallel Benchmarks 2.3 (paper §3.3).
//!
//! The paper validates the MicroGrid on EP, BT, LU, MG, and IS. We cannot
//! run the Fortran originals, so each benchmark is modeled by a program
//! with the *same communication structure* (message sizes, partners,
//! synchronization frequency — the properties the MicroGrid's fidelity
//! depends on) and a calibrated compute cost per phase, plus a miniature
//! real kernel whose output verifies end-to-end correctness of the
//! messaging path:
//!
//! | code | structure | sync granularity |
//! |------|-----------|------------------|
//! | EP   | embarrassingly parallel blocks + final allreduces | coarse |
//! | MG   | V-cycles over grid levels, per-level halo exchange | fine   |
//! | LU   | SSOR wavefront, per-plane pipelined small messages | finest |
//! | BT   | ADI sweeps along 3 dimensions, medium messages     | medium |
//! | IS   | bucket counts allreduce + key all-to-all           | coarse, bulky |
//!
//! Per-rank compute budgets are calibrated so Class A totals on the
//! paper's 4-node 533 MHz Alpha cluster land near the Fig 10 bars, and
//! Class S totals near the Fig 11 bars. Only those shapes/ratios are
//! claimed, not the original absolute seconds (see DESIGN.md).

pub mod bt;
pub mod ep;
pub mod is;
pub mod lu;
pub mod mg;

use serde::{Deserialize, Serialize};

use crate::autopilot::Sensor;

/// NPB problem classes used by the paper (S = small, A = class A).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NpbClass {
    /// The small validation class (Fig 11).
    S,
    /// Class A (Fig 10, 12, 14, 15, 17).
    A,
}

impl NpbClass {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NpbClass::S => "S",
            NpbClass::A => "A",
        }
    }
}

/// The modeled benchmarks: the five the paper validates with (§3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NpbBenchmark {
    /// Embarrassingly Parallel.
    EP,
    /// Block Tridiagonal solver.
    BT,
    /// Lower-Upper symmetric Gauss-Seidel.
    LU,
    /// MultiGrid.
    MG,
    /// Integer Sort.
    IS,
}

impl NpbBenchmark {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NpbBenchmark::EP => "EP",
            NpbBenchmark::BT => "BT",
            NpbBenchmark::LU => "LU",
            NpbBenchmark::MG => "MG",
            NpbBenchmark::IS => "IS",
        }
    }

    /// The paper's five benchmarks, in the Fig 10 order.
    pub fn all() -> [NpbBenchmark; 5] {
        [
            NpbBenchmark::EP,
            NpbBenchmark::BT,
            NpbBenchmark::LU,
            NpbBenchmark::MG,
            NpbBenchmark::IS,
        ]
    }
}

/// Result of one benchmark run, reported by rank 0.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NpbResult {
    /// Which benchmark.
    pub benchmark: String,
    /// Problem class.
    pub class: NpbClass,
    /// Number of ranks.
    pub ranks: usize,
    /// Wall time in **virtual** seconds (what the application's
    /// `gettimeofday` reports).
    pub virtual_seconds: f64,
    /// Whether the miniature real kernel verified.
    pub verified: bool,
    /// Deterministic checksum of the run (same inputs => same value).
    pub checksum: f64,
}

/// Sensors a benchmark updates for the Autopilot validation (Fig 17).
#[derive(Clone)]
pub struct NpbSensors {
    /// A periodic function of the iteration counter, as in the paper's
    /// Fig 17 traces.
    pub counter: Sensor,
}

/// Run the selected benchmark.
pub async fn run(
    benchmark: NpbBenchmark,
    comm: mgrid_mpi::Comm,
    class: NpbClass,
    sensors: Option<NpbSensors>,
) -> NpbResult {
    match benchmark {
        NpbBenchmark::EP => ep::run(comm, class, sensors).await,
        NpbBenchmark::BT => bt::run(comm, class, sensors).await,
        NpbBenchmark::LU => lu::run(comm, class, sensors).await,
        NpbBenchmark::MG => mg::run(comm, class, sensors).await,
        NpbBenchmark::IS => is::run(comm, class, sensors).await,
    }
}

/// The Fig 17 sensor value: the benchmark's iteration counter. The paper
/// instruments "counter variables" and compares their traces sample by
/// sample; a monotone counter makes the RMS-percentage skew measure the
/// progress-timing error rather than aliasing artifacts of a sawtooth.
pub(crate) fn progress_value(iteration: u64) -> f64 {
    iteration as f64
}

/// Measure a body's elapsed virtual time on rank 0's clock, with barriers
/// framing the timed region like NPB's `timer_start`/`timer_stop`.
pub(crate) async fn timed<F, Fut>(comm: &mgrid_mpi::Comm, body: F) -> (f64, Fut::Output)
where
    F: FnOnce() -> Fut,
    Fut: std::future::Future,
{
    comm.barrier().await.expect("barrier");
    let t0 = comm.ctx().gettimeofday();
    let out = body().await;
    comm.barrier().await.expect("barrier");
    let t1 = comm.ctx().gettimeofday();
    (t1.saturating_since(t0).as_secs_f64(), out)
}

/// Convert a virtual-seconds target on a reference machine into per-rank
/// Mops: `target_secs * ref_speed_mops`.
pub(crate) const REF_SPEED_MOPS: f64 = 533.0;

pub(crate) fn mops_for(target_secs_on_ref: f64) -> f64 {
    target_secs_on_ref * REF_SPEED_MOPS
}

/// A no-allocation helper to keep compute chunk submission terse.
pub(crate) async fn compute(comm: &mgrid_mpi::Comm, mops: f64) {
    comm.ctx().compute_mops(mops).await;
}
