//! Every metric the benchmark emits, by name: the Rust-side twin of
//! `BENCHMARK.json` (a self-test keeps the two in step).

/// How a per-layer metric is obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Exact counter read at a layer boundary, summed over the
    /// workload's scenarios (or a ratio of such sums). Repeats exactly.
    Count,
    /// Host time, or a ratio of host times. Subject to noise.
    Timing,
    /// Isolated timing of one layer's public API; the same measurement
    /// whatever the workload.
    Probe,
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Def {
    Def {
        name,
        unit,
        better,
        kind,
    }
}

/// The end-to-end metrics (`--trace 0`): host measurements, all three.
pub const END_TO_END: [Def; 3] = [
    def("wall_s", "s", "lower", Kind::Timing),
    def("setup_s", "s", "lower", Kind::Timing),
    def("peak_rss_mb", "MB", "lower", Kind::Timing),
];

use Kind::{Count, Probe, Timing};

/// The per-layer metrics (`--trace 1`), grouped by layer.
pub const PER_LAYER: &[Def] = &[
    // desim: executor, timers, channels
    def("desim.polls", "count", "lower", Count),
    def("desim.polls_per_virtual_s", "1/s", "lower", Count),
    def("desim.timers_purged", "count", "lower", Count),
    def("desim.ns_per_poll", "ns", "lower", Timing),
    def("desim.timer_probe_ns", "ns", "lower", Probe),
    def("desim.channel_probe_ns", "ns", "lower", Probe),
    def("desim.spawn_probe_ns", "ns", "lower", Probe),
    // hostsim: scheduler quanta, kernel, memory
    def("hostsim.quanta", "count", "lower", Count),
    def("hostsim.quanta_per_virtual_s", "1/s", "lower", Count),
    def("hostsim.mem_allocs", "count", "lower", Count),
    def("hostsim.quantum_probe_ns", "ns", "lower", Probe),
    def("hostsim.polls_per_quantum", "count", "lower", Count),
    // netsim: route cache, link engine, go-back-N transport
    def("netsim.packets_tx", "count", "lower", Count),
    def("netsim.bytes_tx", "bytes", "lower", Count),
    def("netsim.drops", "count", "lower", Count),
    def("netsim.retransmit_rounds", "count", "lower", Count),
    def("netsim.stalls", "count", "lower", Count),
    def("netsim.goodput_ratio", "ratio", "higher", Count),
    def("netsim.packets_per_quantum", "ratio", "higher", Count),
    def("netsim.route_src_computed", "count", "lower", Count),
    def("netsim.route_cache_hit_ratio", "ratio", "higher", Count),
    def("netsim.bulk_probe_ns_per_packet", "ns", "lower", Probe),
    def("netsim.small_probe_ns_per_msg", "ns", "lower", Probe),
    def("netsim.lossy_probe_ns_per_packet", "ns", "lower", Probe),
    def("netsim.route_probe_ns_per_query", "ns", "lower", Probe),
    def("netsim.topology_build_ms", "ms", "lower", Probe),
    // middleware: vsockets, host table, process contexts
    def("middleware.vsock_sends", "count", "lower", Count),
    def("middleware.vsock_bytes_sent", "bytes", "lower", Count),
    def("middleware.vsock_retries", "count", "lower", Count),
    def("middleware.vsock_send_failures", "count", "lower", Count),
    def("middleware.vsock_probe_ns_per_msg", "ns", "lower", Probe),
    // mpi
    def("mpi.collectives", "count", "lower", Count),
    def("mpi.collective_sim_ms_mean", "ms", "lower", Count),
    def("mpi.allreduce_probe_ns", "ns", "lower", Probe),
    def("mpi.p2p_probe_ns_per_msg", "ns", "lower", Probe),
    def("mpi.launch_probe_us_per_rank", "us", "lower", Probe),
    // gis
    def("gis.records", "count", "lower", Count),
    def("gis.publish_probe_us_per_record", "us", "lower", Probe),
    def("gis.search_probe_us", "us", "lower", Probe),
    // core: config, coordinator, grid assembly
    def("core.config_bytes", "bytes", "lower", Count),
    def("core.config_load_ms", "ms", "lower", Timing),
    def("core.validate_ms", "ms", "lower", Timing),
    def("core.plan_rate_ms", "ms", "lower", Timing),
    def("core.build_ms", "ms", "lower", Timing),
    // apps
    def("apps.scenarios", "count", "higher", Count),
    def("apps.verified", "count", "higher", Count),
    def("apps.virtual_s_total", "s", "lower", Count),
    def("apps.fidelity_err_pct", "%", "lower", Count),
    // faults
    def("faults.injected", "count", "higher", Count),
    def("faults.link_down", "count", "higher", Count),
    // obs: desim::{obs,span,trace,profile,perfetto}
    def("obs.spans_recorded", "count", "lower", Count),
    def("obs.spans_dropped", "count", "lower", Count),
    def("obs.flows", "count", "lower", Count),
    def("obs.trace_events", "count", "lower", Count),
    def("obs.trace_ring_dropped", "count", "lower", Count),
    def("obs.trace_bytes", "bytes", "lower", Count),
    def("obs.perfetto_bytes", "bytes", "lower", Count),
    def("obs.record_overhead_ratio", "ratio", "lower", Timing),
    def("obs.capture_ms", "ms", "lower", Timing),
    def("obs.profile_ms", "ms", "lower", Timing),
    def("obs.critical_path_ms", "ms", "lower", Timing),
    def("obs.perfetto_export_ms", "ms", "lower", Timing),
    // the harness itself
    def("trace_overhead_ratio", "ratio", "lower", Timing),
];

/// Look a metric up by name in either list.
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// `BENCHMARK.json`, as far as the harness reads it: the self-tests check
/// the rest of the file against the lists above.
pub mod manifest {
    use serde::Deserialize;

    #[derive(Clone, Debug, Deserialize)]
    pub struct EndToEnd {
        pub name: String,
        /// Share of the parent's median by which the metric may worsen.
        pub bound: f64,
    }

    #[derive(Clone, Debug, Deserialize)]
    pub struct Manifest {
        /// How long one run measures, in seconds.
        pub run_seconds: u64,
        pub end_to_end: Vec<EndToEnd>,
    }

    pub fn path() -> std::path::PathBuf {
        crate::expected::repo_root().join("BENCHMARK.json")
    }

    pub fn load() -> Result<Manifest, String> {
        let path = path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}
