//! Independent models beside the simulated CPU and network, driven
//! through the same measurements the figures plot
//! (`experiments::micro::delivered_fraction` for Fig 6,
//! `experiments::network::ping_pong` for Fig 8). Each bound is computed
//! here from the models' named constants with arithmetic that shares no
//! code with the scheduler, kernel, transport or MPI layer.

use mgrid_bench::experiments::micro::{delivered_fraction, Competition};
use mgrid_bench::experiments::network::ping_pong;
use microgrid::desim::time::SimDuration;
use microgrid::desim::SimRng;
use microgrid::hostsim::scheduler::{GRANT_OVERHEAD, WAKEUP_JITTER_BASE};
use microgrid::hostsim::{OsParams, SchedulerParams};
use microgrid::mpi::comm::{
    CONTROL_BYTES, COPY_MOPS_PER_MB, EAGER_THRESHOLD, RECV_OVERHEAD_MOPS, SEND_OVERHEAD_MOPS,
};
use microgrid::netsim::engine::ACK_WIRE_BYTES;
use microgrid::netsim::transport::{HEADER_BYTES, MTU, WINDOW_BYTES};
use microgrid::{presets, Mode, Report};

/// The CPU model's closed forms (GridSim's time-shared model, PAPERS.md),
/// for a job paced at `f` with quantum `q` measured over `horizon`.
struct CpuBounds {
    /// Alone: every grant of `Q` costs the job `Q` plus two grant
    /// overheads `g`, two context switches `cs` and the daemon's wakeup
    /// jitter (at most `J`), so it gets at least `f·Q / (Q + 2g + J + 2cs)`
    /// of the run; the run starts up to one quantum late (the daemon's
    /// phase) and ends with up to one grant, `Q + J`, not yet accounted:
    /// less `(2Q + J) / horizon`.
    alone_floor: f64,
    /// Alone or beside a hog, the job is at most one quantum ahead of its
    /// entitlement: `f + Q/horizon`.
    ceiling: f64,
    /// Beside a CPU hog: GridSim's fair share, `min(f, ½) + Q/horizon`.
    hog_ceiling: f64,
}

fn cpu_bounds(f: f64, q: SimDuration, horizon: SimDuration) -> CpuBounds {
    let secs = |d: SimDuration| d.as_nanos() as f64 * 1e-9;
    let (q, g, horizon) = (secs(q), secs(GRANT_OVERHEAD), secs(horizon));
    let cs = secs(OsParams::default().context_switch);
    // The wakeup delay is |N(0, σ)| with σ = WAKEUP_JITTER_BASE when no
    // competitor is runnable: four σ covers any draw a run makes.
    let jitter = 4.0 * secs(WAKEUP_JITTER_BASE);
    let head_start = q / horizon;
    CpuBounds {
        alone_floor: f * q / (q + 2.0 * g + jitter + 2.0 * cs) - (2.0 * q + jitter) / horizon,
        ceiling: f + head_start,
        hog_ceiling: f.min(0.5) + head_start,
    }
}

/// Seeded random (fraction, quantum) pairs, alone and beside a CPU hog,
/// at a short horizon.
#[test]
fn delivered_cpu_fraction_lies_within_the_time_shared_model() {
    let horizon = SimDuration::from_secs(2);
    let mut rng = SimRng::new(9);
    for _ in 0..8 {
        let f = (5 + rng.below(96)) as f64 / 100.0;
        let q = SimDuration::from_micros(2_500 + rng.below(27_501));
        let b = cpu_bounds(f, q, horizon);
        let alone = delivered_fraction(f, q, Competition::None, horizon);
        assert!(
            (b.alone_floor..=b.ceiling).contains(&alone),
            "alone, f {f}, quantum {q:?}: delivered {alone}, bounds [{}, {}]",
            b.alone_floor,
            b.ceiling
        );
        let hog = delivered_fraction(f, q, Competition::Cpu, horizon);
        assert!(
            hog <= b.hog_ceiling,
            "beside a hog, f {f}, quantum {q:?}: delivered {hog} > {}",
            b.hog_ceiling
        );
    }
}

/// Full-scale Fig 6 (10 s at the default quantum): the 20 No-Competition
/// and CPU-Competition points of the tracked file obey the same forms
/// (`repro --check fig6` ties the file to a fresh run).
#[test]
fn tracked_fig6_lies_within_the_time_shared_model() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig6.json");
    let text = std::fs::read_to_string(path).expect("tracked fig6");
    let report: Report = serde_json::from_str(&text).expect("fig6 is a report");
    let horizon = SimDuration::from_secs(10);
    let q = SchedulerParams::default().quantum;
    let mut checked = 0;
    for series in &report.series {
        let hog = match series.label.as_str() {
            "No Competition" => false,
            "CPU Competition" => true,
            _ => continue,
        };
        for (label, pct) in &series.points {
            let f: f64 = label
                .strip_suffix('%')
                .and_then(|p| p.parse().ok())
                .expect("a percentage label");
            let f = f / 100.0;
            let b = cpu_bounds(f, q, horizon);
            let (lo, hi) = if hog {
                (0.0, b.hog_ceiling)
            } else {
                (b.alone_floor, b.ceiling)
            };
            let got = pct / 100.0;
            assert!(
                (lo..=hi).contains(&got),
                "{} at {label}: {got} outside [{lo}, {hi}]",
                series.label
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 20);
}

/// Fig 8's floor and plateau. The Ethernet pair is two
/// hops (host, switch, host) of 100 Mb/s and 50 µs each, and both hosts
/// run at `ALPHA_MOPS`.
#[test]
fn ethernet_one_way_latency_lies_between_the_serialisation_bounds() {
    const BPS: f64 = 100e6;
    const DELAY: f64 = 50e-6;
    let tx = |wire_bytes: u64| wire_bytes as f64 * 8.0 / BPS;
    let cs = OsParams::default().context_switch.as_nanos() as f64 * 1e-9;
    let noise = OsParams::default().timer_noise;
    for size in [4u64, 16 * 1024, 256 * 1024] {
        // MPI: send and receive overhead plus a copy on each side.
        let mops =
            SEND_OVERHEAD_MOPS + RECV_OVERHEAD_MOPS + 2.0 * size as f64 / 1e6 * COPY_MOPS_PER_MB;
        let cpu = mops / presets::ALPHA_MOPS;
        let wire = size + CONTROL_BYTES;
        let segments = wire.div_ceil(MTU);
        let last = wire - (segments - 1) * MTU + HEADER_BYTES;
        // Floor: every wire byte once through the first hop, the last
        // segment through the second, two propagation delays.
        let lower = cpu + tx(wire + segments * HEADER_BYTES) + tx(last) + 2.0 * DELAY;
        // Plateau: ceil(segments / window) turns, each serialising its
        // segments (at most a window, none larger than a full one)
        // through the first hop, then one segment through the second, an
        // ack back over both and two round trips of propagation; a
        // rendezvous message first sends an RTS and waits for the CTS,
        // one segment each way.
        let full = tx(MTU + HEADER_BYTES);
        let turns = segments.div_ceil(WINDOW_BYTES / MTU) as f64;
        let network =
            segments as f64 * full + turns * (full + 2.0 * tx(ACK_WIRE_BYTES) + 4.0 * DELAY);
        let control = 2.0 * (2.0 * tx(CONTROL_BYTES + HEADER_BYTES) + 2.0 * DELAY);
        let handshake = if size > EAGER_THRESHOLD { control } else { 0.0 };
        // The kernel stretches a slice by its timer noise (five standard
        // deviations) and may switch to each rank once.
        let upper = cpu * (1.0 + 5.0 * noise) + 2.0 * cs + network + handshake;
        let got = ping_pong(Mode::Physical, size, 4);
        assert!(
            (lower..=upper).contains(&got),
            "{size} B one way in {got} s, bounds [{lower}, {upper}]"
        );
    }
}
