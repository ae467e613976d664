//! End-to-end observability: a small grid run must leave footprints in
//! every layer — scheduler quanta, network packets, memory registrations —
//! both as metrics counters and as typed trace events, and the trace must
//! encode to valid JSON lines. The causal span layer gets the same
//! treatment: spans and flows from every instrumented subsystem, plus
//! byte-identical profiler and critical-path reports across same-seed
//! runs. One observed run is pinned whole in
//! `tests/golden/observed_is_s_seed11.txt`.

use microgrid::apps::npb::{NpbBenchmark, NpbClass};
use microgrid::desim::{profile, Category, TraceEvent};
use microgrid::{presets, App, AppResult, Mode, Observe, Outcome, Scenario};

/// NPB IS class S on the Alpha cluster's MicroGrid, seeded 11, recording
/// what `observe` asks for.
fn run_small_grid(observe: Observe) -> Outcome<Vec<AppResult>> {
    let app = App::Npb(NpbBenchmark::IS, NpbClass::S);
    let scenario = Scenario::new(presets::alpha_cluster(), Mode::MicroGrid, app);
    let outcome = Scenario {
        seed: 11,
        observe,
        ..scenario
    }
    .run()
    .expect("valid preset");
    assert!(outcome.output.iter().all(AppResult::verified));
    outcome
}

#[test]
fn small_grid_run_populates_metrics() {
    let snap = run_small_grid(Observe::default()).metrics;

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
    let events = || -> Vec<TraceEvent> {
        let observe = Observe {
            trace: Some((1 << 20, Box::new(std::io::sink()))),
            spans: false,
        };
        run_small_grid(observe).capture.events
    };
    let events1 = events();
    for cat in [
        Category::Sched,
        Category::Net,
        Category::Mem,
        Category::Vsock,
        Category::Mpi,
    ] {
        assert!(events1.iter().any(|e| e.category() == cat), "no {cat:?}");
    }

    // Every line is a standalone JSON object with the envelope fields.
    #[derive(serde::Deserialize)]
    struct Envelope {
        t_ns: u64,
        cat: String,
        event: String,
    }
    let mut last_t = 0;
    for ev in &events1 {
        let line = ev.to_json_line();
        let v: Envelope =
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert!(v.t_ns >= last_t, "timestamps must be nondecreasing");
        last_t = v.t_ns;
        assert!(!v.cat.is_empty(), "{line}");
        assert!(!v.event.is_empty(), "{line}");
    }

    // Determinism: the same seed yields the same event stream.
    let lines = |events: &[TraceEvent]| -> Vec<String> {
        events.iter().map(TraceEvent::to_json_line).collect()
    };
    assert_eq!(lines(&events1), lines(&events()));
}

#[test]
fn span_layer_records_flows_and_renders_deterministic_tables() {
    let run = || {
        let observe = Observe {
            trace: None,
            spans: true,
        };
        run_small_grid(observe).capture.spans
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

/// A `Write` that keeps what it is given, shared with the test that reads
/// it after the run.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The seed-11 run with spans and tracing on, pinned whole: the exact
/// profile and critical-path tables, and the length and FNV-1a digest of
/// its Perfetto document and of its JSON-lines trace. Regenerate with
/// `MGRID_BLESS=1 cargo test -p microgrid --test observability` after an
/// intended change to what a run records.
#[test]
fn observed_run_matches_the_golden_file() {
    let trace = SharedBuf::default();
    let outcome = run_small_grid(Observe {
        trace: Some((65536, Box::new(trace.clone()))),
        spans: true,
    });
    let capture = &outcome.capture;
    let mut doc = Vec::new();
    microgrid::desim::perfetto::export_to(&capture.spans, &capture.events, &mut doc)
        .expect("writes to memory");
    let trace = trace.0.lock().unwrap();
    let got = format!(
        "-- profile --\n{}-- critical path --\n{}-- perfetto --\n{} bytes, fnv1a64 {:016x}\n\
         -- trace --\n{} bytes, fnv1a64 {:016x}\n",
        profile::Profile::from_snapshot(&capture.spans).to_table(),
        profile::critical_path(&capture.spans).to_table(),
        doc.len(),
        fnv1a64(&doc),
        trace.len(),
        fnv1a64(&trace),
    );

    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/observed_is_s_seed11.txt"
    );
    if std::env::var("MGRID_BLESS").as_deref() == Ok("1") {
        std::fs::write(golden, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(golden).expect(
        "golden file missing; regenerate with MGRID_BLESS=1 cargo test -p microgrid --test observability",
    );
    assert_eq!(got, want, "the observed run drifted from the golden file");
}
