//! # mgrid-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (Figs 5-17) from the MicroGrid-rs models. Use the `repro` binary:
//!
//! ```text
//! cargo run --release -p mgrid-bench --bin repro -- all
//! cargo run --release -p mgrid-bench --bin repro -- fig10
//! MGRID_FAST=1 cargo run -p mgrid-bench --bin repro -- fig11
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod claims;
pub mod experiments;
pub mod runner;
