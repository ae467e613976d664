//! Capacity planning with the MicroGrid: extrapolate to hardware you do
//! not own (paper §3.4.2, Fig 12) — how much would faster CPUs help each
//! benchmark if the network stays a slow 1 Mb/s / 50 ms WAN? Each cell is
//! the scenario `MGRID_FAST=1 repro fig12` runs for it.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::{presets, App, Mode, Scenario};

/// Rank 0's virtual seconds of `bench` class S at `cpu_mult` times the CPU.
fn run(bench: NpbBenchmark, cpu_mult: f64) -> f64 {
    let config = presets::cpu_scaled_cluster(cpu_mult);
    let scenario = Scenario::new(config, Mode::MicroGrid, App::Npb(bench, NpbClass::S));
    scenario.run().expect("valid config").output[0].virtual_seconds()
}

fn main() {
    println!("What-if: virtual CPUs 1x..8x, network pinned at 1 Mb/s + 50 ms");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}   (normalized virtual time)",
        "bench", "1x", "2x", "4x", "8x"
    );
    for bench in [
        NpbBenchmark::MG,
        NpbBenchmark::BT,
        NpbBenchmark::LU,
        NpbBenchmark::EP,
    ] {
        let mut cells = Vec::new();
        let mut base = None;
        for mult in [1.0, 2.0, 4.0, 8.0] {
            let secs = run(bench, mult);
            let b = *base.get_or_insert(secs);
            cells.push(format!("{:.3}", secs / b));
        }
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}",
            bench.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    println!();
    println!("EP approaches the ideal 0.125 at 8x; the others flatten where");
    println!("the fixed network share takes over — buy bandwidth, not just CPUs.");
}
