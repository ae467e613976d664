//! CACTUS WaveToy across the fictional vBNS coupled-cluster testbed
//! (paper Fig 13): two virtual hosts at UCSD, two at UIUC, joined over a
//! wide-area path whose bottleneck we sweep — the kind of what-if study
//! the MicroGrid was built for.
//!
//! ```text
//! cargo run --release --example wan_cactus
//! ```

use microgrid::apps::WaveToyConfig;
use microgrid::{presets, App, AppResult, Mode, Scenario};

fn run(bottleneck_bps: f64) -> AppResult {
    let app = App::WaveToy(WaveToyConfig::small());
    let scenario = Scenario::new(presets::vbns_grid(bottleneck_bps), Mode::MicroGrid, app);
    scenario.run().expect("valid config").output.swap_remove(0)
}

fn main() {
    println!("WaveToy 50^3 over the vBNS: UCSD (2 ranks) <-> UIUC (2 ranks)");
    println!(
        "{:<16} {:>14} {:>10}",
        "bottleneck", "virtual time", "verified"
    );
    let mut baseline = None;
    for bw in [622e6, 155e6, 10e6, 1e6] {
        let r = run(bw);
        let secs = r.virtual_seconds();
        let base = *baseline.get_or_insert(secs);
        println!(
            "{:<16} {:>12.3}s {:>10}   ({:+.1}% vs OC12)",
            format!("{:.0} Mb/s", bw / 1e6),
            secs,
            r.verified(),
            (secs / base - 1.0) * 100.0
        );
    }
    println!();
    println!("The 25 ms one-way WAN latency dominates each halo exchange, so");
    println!("bandwidth barely matters until the link is very thin — the");
    println!("paper's conclusion that Grid applications must be latency tolerant.");
}
