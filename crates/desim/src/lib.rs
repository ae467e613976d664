//! # mgrid-desim — deterministic discrete-event simulation engine
//!
//! The substrate under every MicroGrid-rs component: a single-threaded
//! async executor whose clock is a simulated **physical** timeline, plus the
//! channels, synchronization primitives, deterministic RNG, virtual-clock
//! machinery, and tracing the resource models are built from.
//!
//! ## Model
//!
//! * Tasks are ordinary Rust futures spawned onto a [`Simulation`].
//! * Time advances only between polls, jumping to the earliest registered
//!   timer; ties break by registration order. Runs are therefore
//!   deterministic: one program + one seed = one trace.
//! * [`vclock::VirtualClock`] maps physical time to virtual Grid time at a
//!   configurable simulation rate — the paper's `gettimeofday`
//!   virtualization (§2.3).
//! * Every simulation carries an observability surface ([`obs::Obs`]):
//!   a typed-[`event::Event`] tracer and a [`metrics::Metrics`] registry
//!   that instrumented components write to through the free functions in
//!   [`obs`].
//!
//! ## Example
//!
//! ```
//! use mgrid_desim::{Simulation, sleep, now, time::SimDuration};
//!
//! let mut sim = Simulation::new(7);
//! let answer = sim.block_on(async {
//!     sleep(SimDuration::from_millis(3)).await;
//!     now().as_millis()
//! });
//! assert_eq!(answer, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod event;
pub mod executor;
pub mod fasthash;
mod jsonw;
pub mod metrics;
pub mod obs;
pub mod perfetto;
pub mod profile;
pub mod rng;
pub mod span;
pub mod sync;
pub mod time;
pub mod timeout;
pub mod trace;
pub mod vclock;

pub use event::{Category, Event};
pub use executor::{
    fork_rng, now, sleep, sleep_until, spawn, spawn_daemon, with_rng, JoinHandle, Simulation,
    TaskId,
};
pub use fasthash::{FxHashMap, FxHashSet};
pub use metrics::{Counter, HistogramHandle, Metrics, MetricsSnapshot};
pub use obs::Obs;
pub use rng::SimRng;
pub use span::{
    FlowClass, FlowEdge, SpanId, SpanKind, SpanRecord, SpanRow, SpanSnapshot, SpanStore, SpanStr,
    SpanTable,
};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, Tracer};
