//! Run a NAS Parallel Benchmark on the virtual Alpha cluster and compare
//! against the "physical grid" baseline — one row of the paper's Fig 10,
//! the same scenario (seed included) `repro fig10` runs for that cell.
//!
//! ```text
//! cargo run --release --example npb_cluster            # MG class S
//! cargo run --release --example npb_cluster -- LU A    # pick bench+class
//! ```

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::{presets, App, AppResult, Mode, Scenario};

fn run(mode: Mode, bench: NpbBenchmark, class: NpbClass) -> AppResult {
    let scenario = Scenario::new(presets::alpha_cluster(), mode, App::Npb(bench, class));
    let mut ranks = scenario.run().expect("valid config").output;
    ranks.swap_remove(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match args.first().map(String::as_str) {
        Some("EP") => NpbBenchmark::EP,
        Some("BT") => NpbBenchmark::BT,
        Some("LU") => NpbBenchmark::LU,
        Some("IS") => NpbBenchmark::IS,
        Some("MG") | None => NpbBenchmark::MG,
        Some(other) => {
            eprintln!("unknown benchmark {other:?} (EP|BT|LU|MG|IS)");
            std::process::exit(2);
        }
    };
    let class = match args.get(1).map(String::as_str) {
        Some("A") => NpbClass::A,
        Some("S") | None => NpbClass::S,
        Some(other) => {
            eprintln!("unknown class {other:?} (S|A)");
            std::process::exit(2);
        }
    };
    println!(
        "NPB {} class {} on 4 virtual Alpha hosts",
        bench.name(),
        class.name()
    );

    let phys = run(Mode::Physical, bench, class);
    println!(
        "  physical grid : {:8.3} virtual s  (verified: {})",
        phys.virtual_seconds(),
        phys.verified()
    );
    let mgrid = run(Mode::MicroGrid, bench, class);
    println!(
        "  MicroGrid     : {:8.3} virtual s  (verified: {})",
        mgrid.virtual_seconds(),
        mgrid.verified()
    );
    let (phys, mgrid) = (phys.virtual_seconds(), mgrid.virtual_seconds());
    let err = (mgrid - phys) / phys * 100.0;
    println!("  modeling error: {err:+.2}%  (paper's Fig 10: within 2-4%)");
}
