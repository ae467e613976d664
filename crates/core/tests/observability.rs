//! End-to-end observability: a small grid run must leave footprints in
//! every layer — scheduler quanta, network packets, memory registrations —
//! both as metrics counters and as typed trace events, and the trace must
//! encode to valid JSON lines. The causal span layer gets the same
//! treatment: spans and flows from every instrumented subsystem, plus
//! byte-identical profiler and critical-path reports across same-seed
//! runs.

use std::future::Future;
use std::pin::Pin;

use microgrid::apps::npb::{self, NpbBenchmark, NpbClass, NpbResult};
use microgrid::desim::{profile, Category, Simulation};
use microgrid::mpi::MpiParams;
use microgrid::{presets, VirtualGrid};

fn run_small_grid(sim: &mut Simulation) {
    let config = presets::alpha_cluster();
    let results = sim.block_on(async move {
        let grid = VirtualGrid::build(config).expect("valid preset");
        grid.mpirun_all(MpiParams::default(), move |comm| {
            Box::pin(npb::run(NpbBenchmark::IS, comm, NpbClass::S, None))
                as Pin<Box<dyn Future<Output = NpbResult>>>
        })
        .await
    });
    assert!(results.iter().all(|r| r.verified));
}

#[test]
fn small_grid_run_populates_metrics() {
    let mut sim = Simulation::new(11);
    run_small_grid(&mut sim);
    let snap = sim.obs().metrics().snapshot();

    assert!(snap.counter("sched.quanta") > 0, "no scheduler quanta");
    assert!(snap.counter("net.packets_tx") > 0, "no packets transmitted");
    assert!(snap.counter("net.bytes_tx") > 0, "no bytes transmitted");
    assert!(snap.counter("mem.allocs") > 0, "no memory registrations");
    assert!(snap.counter("vsock.sends") > 0, "no vsocket sends");
    assert!(snap.counter("mpi.collectives") > 0, "no MPI collectives");

    // Histograms observed on the hot paths.
    let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
    assert!(names.contains(&"sched.quantum_wall_ns"), "{names:?}");
    assert!(names.contains(&"net.queue_depth_bytes"), "{names:?}");
    assert!(names.contains(&"mpi.collective_ns"), "{names:?}");

    // The rendered summary groups by category prefix.
    let table = snap.to_table();
    assert!(table.contains("[sched]"), "{table}");
    assert!(table.contains("[net]"), "{table}");
}

#[test]
fn small_grid_run_traces_all_layers_as_valid_json_lines() {
    let mut sim = Simulation::new(11);
    sim.obs().enable_tracing(1 << 20);
    run_small_grid(&mut sim);
    let tracer = sim.obs().tracer();

    assert!(!tracer.events_in(Category::Sched).is_empty());
    assert!(!tracer.events_in(Category::Net).is_empty());
    assert!(!tracer.events_in(Category::Mem).is_empty());
    assert!(!tracer.events_in(Category::Vsock).is_empty());
    assert!(!tracer.events_in(Category::Mpi).is_empty());

    // Every line is a standalone JSON object with the envelope fields.
    #[derive(serde::Deserialize)]
    struct Envelope {
        t_ns: u64,
        cat: String,
        event: String,
    }
    let mut last_t = 0;
    for ev in tracer.events() {
        let line = ev.to_json_line();
        let v: Envelope =
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert!(v.t_ns >= last_t, "timestamps must be nondecreasing");
        last_t = v.t_ns;
        assert!(!v.cat.is_empty(), "{line}");
        assert!(!v.event.is_empty(), "{line}");
    }

    // Determinism: the same seed yields the same event stream.
    let mut sim2 = Simulation::new(11);
    sim2.obs().enable_tracing(1 << 20);
    run_small_grid(&mut sim2);
    let lines: Vec<String> = tracer.events().iter().map(|e| e.to_json_line()).collect();
    let lines2: Vec<String> = sim2
        .obs()
        .tracer()
        .events()
        .iter()
        .map(|e| e.to_json_line())
        .collect();
    assert_eq!(lines, lines2);
}

#[test]
fn span_layer_records_flows_and_renders_deterministic_tables() {
    let run = || {
        let mut sim = Simulation::new(11);
        sim.obs().enable_spans();
        run_small_grid(&mut sim);
        sim.obs().spans().snapshot()
    };
    let snap = run();
    assert!(!snap.spans.is_empty(), "no spans recorded");

    // Every instrumented layer leaves spans: scheduler quanta, vsocket
    // send/recv, transport sends, and MPI collectives.
    let names: std::collections::BTreeSet<&str> = snap.spans.records().map(|s| s.name).collect();
    for want in ["quantum", "vsock_send", "vsock_recv", "net_send"] {
        assert!(names.contains(want), "missing span {want}: {names:?}");
    }
    assert!(
        snap.spans.records().any(|s| matches!(s.cat, Category::Mpi)),
        "no MPI collective spans"
    );

    // Both cross-process flow classes resolve: vsock message edges and
    // collective rendezvous edges into rank 0.
    let classes: std::collections::BTreeSet<&str> = snap.flows.iter().map(|f| f.class).collect();
    assert!(classes.contains("msg"), "no vsock flows: {classes:?}");
    assert!(classes.contains("coll"), "no collective flows: {classes:?}");

    // The rendered reports are byte-identical across same-seed runs.
    let snap2 = run();
    let prof = profile::Profile::from_snapshot(&snap).to_table();
    assert_eq!(
        prof,
        profile::Profile::from_snapshot(&snap2).to_table(),
        "profiler attribution table must be byte-identical across same-seed runs"
    );
    let cp = profile::critical_path(&snap);
    assert_eq!(
        cp.to_table(),
        profile::critical_path(&snap2).to_table(),
        "critical-path report must be byte-identical across same-seed runs"
    );
    assert!(prof.contains("vsock_send"), "{prof}");
    assert!(!cp.hops.is_empty(), "critical path should have hops");
}
