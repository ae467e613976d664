//! End-to-end integration: configuration -> virtual Grid -> middleware ->
//! MPI workload, across all the crates at once.

use microgrid::apps::npb::{NpbBenchmark, NpbClass, NpbResult};
use microgrid::desim::Simulation;
use microgrid::gis::virtualization::{virtual_hosts_filter, MAPPED_PHYSICAL};
use microgrid::{presets, App, AppResult, GridConfig, Mode, Scenario, VirtualGrid};

#[test]
fn config_json_roundtrips_and_builds() {
    let config = presets::alpha_cluster();
    let json = config.to_json();
    let parsed = GridConfig::from_json(&json).expect("parse");
    let mut sim = Simulation::new(1);
    sim.block_on(async move {
        let grid = VirtualGrid::build(parsed).expect("build from parsed JSON");
        assert_eq!(grid.host_names().len(), 4);
    });
}

#[test]
fn wide_config_json_is_a_fixed_point() {
    // 768 hosts, 324 KB of text: what the reader is sized for.
    let json = presets::alpha_cluster_n(768).to_json();
    let parsed = GridConfig::from_json(&json).expect("parse");
    assert_eq!(parsed.validate(), Ok(()));
    assert_eq!(parsed.to_json(), json);

    // `shards` is inert: whatever it holds — or if the key is absent —
    // the config loads, validates, plans the same rate and runs IS S to
    // the same virtual seconds. Its `null` stays in the wire format,
    // which the benchmark's `core.config_bytes` pins.
    let json = presets::alpha_cluster().to_json();
    let tail = ",\n  \"faults\": null,\n  \"shards\": null\n}";
    let body = json
        .strip_suffix(tail)
        .expect("preset JSON ends faults, shards");
    let outcomes: Vec<(String, f64)> = ["\"shards\": 4", "\"shards\": null", ""]
        .into_iter()
        .map(|shards| {
            let sep = if shards.is_empty() { "" } else { ",\n  " };
            let text = format!("{body},\n  \"faults\": null{sep}{shards}\n}}");
            let config = GridConfig::from_json(&text).expect("parse");
            assert_eq!(config.validate(), Ok(()), "{shards:?}");
            let plan = format!("{:?}", microgrid::plan_rate(&config).expect("feasible"));
            let app = App::Npb(NpbBenchmark::IS, NpbClass::S);
            let outcome = Scenario::new(config, Mode::MicroGrid, app).run();
            (plan, outcome.expect("build").output[0].virtual_seconds())
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
}

#[test]
fn gis_records_point_to_real_mappings() {
    let mut sim = Simulation::new(2);
    sim.block_on(async {
        let config = presets::hpvm_cluster();
        let grid = VirtualGrid::build(config.clone()).expect("build");
        let gis = grid.gis();
        let gis = gis.borrow();
        let records = gis.search_all(&virtual_hosts_filter(&config.name));
        assert_eq!(records.len(), config.virtual_hosts.len());
        for rec in records {
            // Every Mapped_Physical_Resource names the physical host that
            // actually carries the record's virtual host.
            let hn = rec.get("hn").expect("host name attribute");
            let phys = rec.get(MAPPED_PHYSICAL).expect("mapping attribute");
            let entry = grid.table().lookup(hn).expect("GIS host is in the table");
            assert_eq!(phys, entry.vhost.physical().spec().name, "{hn}");
        }
    });
}

/// Rank 0's result of `bench` class S on the Alpha cluster seeded with
/// `seed`, in a simulation of the same seed.
fn run_full(bench: NpbBenchmark, mode: Mode, seed: u64) -> NpbResult {
    let config = GridConfig {
        seed,
        ..presets::alpha_cluster()
    };
    let scenario = Scenario::new(config, mode, App::Npb(bench, NpbClass::S));
    let mut ranks = Scenario { seed, ..scenario }.run().expect("build").output;
    match ranks.swap_remove(0) {
        AppResult::Npb(r) => r,
        other => panic!("not an NPB result: {other:?}"),
    }
}

#[test]
fn every_benchmark_verifies_on_the_microgrid() {
    for bench in NpbBenchmark::all() {
        let r = run_full(bench, Mode::MicroGrid, 11);
        assert!(r.verified, "{} failed verification: {r:?}", r.benchmark);
        assert!(r.virtual_seconds > 0.0);
    }
}

#[test]
fn microgrid_tracks_baseline_for_all_benchmarks() {
    for bench in NpbBenchmark::all() {
        let phys = run_full(bench, Mode::Physical, 12);
        let mgrid = run_full(bench, Mode::MicroGrid, 12);
        let err = (mgrid.virtual_seconds - phys.virtual_seconds).abs() / phys.virtual_seconds;
        assert!(
            err < 0.12,
            "{}: physical {:.3}s vs MicroGrid {:.3}s ({:.1}% off)",
            bench.name(),
            phys.virtual_seconds,
            mgrid.virtual_seconds,
            err * 100.0
        );
    }
}

#[test]
fn same_seed_is_bit_deterministic_end_to_end() {
    let a = run_full(NpbBenchmark::MG, Mode::MicroGrid, 99);
    let b = run_full(NpbBenchmark::MG, Mode::MicroGrid, 99);
    assert_eq!(a.virtual_seconds, b.virtual_seconds);
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn different_seeds_perturb_timing_but_not_results() {
    let a = run_full(NpbBenchmark::MG, Mode::MicroGrid, 100);
    let b = run_full(NpbBenchmark::MG, Mode::MicroGrid, 101);
    // Same numerical outcome...
    assert_eq!(a.checksum, b.checksum);
    assert!(a.verified && b.verified);
    // ...but OS noise and daemon phases differ, so timing differs a bit
    // (and only a bit).
    assert_ne!(a.virtual_seconds, b.virtual_seconds);
    let drift = (a.virtual_seconds - b.virtual_seconds).abs() / a.virtual_seconds;
    assert!(drift < 0.05, "seed drift {drift}");
}

#[test]
fn memory_capacity_gates_processes_end_to_end() {
    let mut sim = Simulation::new(4);
    sim.block_on(async {
        let mut config = presets::alpha_cluster();
        // Tiny memory on alpha3: 3.5 KB fits three processes' overhead
        // (1 KB each) but not a fourth.
        config.virtual_hosts[3].spec.memory_bytes = 3 * 1024 + 512;
        let grid = VirtualGrid::build(config).expect("build");
        let _a = grid.spawn_process("alpha3", "p1").expect("first fits");
        let _b = grid.spawn_process("alpha3", "p2").expect("second fits");
        let _c = grid.spawn_process("alpha3", "p3").expect("third fits");
        assert!(
            grid.spawn_process("alpha3", "p4").is_err(),
            "fourth process must exceed the 3.5 KB cap"
        );
    });
}
