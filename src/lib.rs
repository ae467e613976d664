//! Umbrella crate re-exporting the MicroGrid-rs workspace for examples and
//! integration tests.
//!
//! # Examples
//!
//! Everything lives under [`microgrid`]; the quickstart in miniature:
//!
//! ```
//! use microgrid_suite::microgrid::desim::Simulation;
//! use microgrid_suite::microgrid::{presets, VirtualGrid};
//!
//! let mut sim = Simulation::new(42);
//! let t = sim.block_on(async {
//!     let grid = VirtualGrid::build(presets::alpha_cluster()).unwrap();
//!     let ctx = grid.spawn_process("alpha0", "app").unwrap();
//!     ctx.compute_mops(533.0).await; // one virtual CPU-second
//!     ctx.gettimeofday()
//! });
//! assert!(t.as_secs_f64() >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub use microgrid;
