//! Fig 8 regenerator: NSE network modeling — MPI latency and bandwidth vs
//! message size on the 100 Mb Ethernet pair, real system ("Ethernet")
//! vs MicroGrid ("Mgrid").

use microgrid::mpi::{Comm, MpiData, MpiParams};
use microgrid::{presets, Report, Series};

use crate::runner::{rank0, with_grid, Mode, Plan};

/// One ping-pong measurement: (message size, one-way latency in seconds).
pub fn ping_pong(mode: Mode, size: u64, iters: u32) -> f64 {
    let mut config = presets::alpha_cluster();
    config.virtual_hosts.truncate(2);
    config.network.links.truncate(2);
    with_grid(config, mode, 800 ^ size, move |grid| async move {
        let body = move |comm: Comm| async move {
            if comm.rank() == 0 {
                // Warm-up exchange.
                comm.send(1, 1, MpiData::bytes_only(size)).await.unwrap();
                comm.recv(1, 2).await.unwrap();
                let t0 = comm.ctx().gettimeofday();
                for _ in 0..iters {
                    comm.send(1, 1, MpiData::bytes_only(size)).await.unwrap();
                    comm.recv(1, 2).await.unwrap();
                }
                let t1 = comm.ctx().gettimeofday();
                // One-way latency: half the mean round trip, in
                // VIRTUAL time (what the benchmark would report).
                Some(t1.saturating_since(t0).as_secs_f64() / iters as f64 / 2.0)
            } else {
                comm.recv(0, 1).await.unwrap();
                comm.send(0, 2, MpiData::bytes_only(size)).await.unwrap();
                for _ in 0..iters {
                    comm.recv(0, 1).await.unwrap();
                    comm.send(0, 2, MpiData::bytes_only(size)).await.unwrap();
                }
                None
            }
        };
        rank0(grid.mpirun_all(MpiParams::default(), body).await).expect("rank 0 measured")
    })
    .output
}

/// The Fig 8 size sweep.
const SIZES: [u64; 9] = [4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144];

/// Fig 8: latency (us) and bandwidth (MB/s) vs message size, for the
/// physical pair and the MicroGrid model of it.
pub fn fig8_network(iters: u32) -> Plan {
    const SIDES: [(Mode, &str); 2] = [(Mode::Physical, "Ethernet"), (Mode::MicroGrid, "Mgrid")];
    let mut jobs = Vec::new();
    for (mode, _) in SIDES {
        for size in SIZES {
            jobs.push(move || ping_pong(mode, size, iters));
        }
    }
    Plan::new(jobs, |latencies| {
        let mut rep = Report::new("fig8", "NSE network modeling: MPI latency and bandwidth");
        for ((_, label), latencies) in SIDES.iter().zip(latencies.chunks(SIZES.len())) {
            let sized = || SIZES.iter().zip(latencies);
            rep.series.push(Series {
                label: format!("latency us — {label}"),
                points: sized()
                    .map(|(size, lat)| (format!("{size}B"), lat * 1e6))
                    .collect(),
            });
            rep.series.push(Series {
                label: format!("bandwidth MB/s — {label}"),
                points: sized()
                    .map(|(size, lat)| (format!("{size}B"), *size as f64 / lat / 1e6))
                    .collect(),
            });
        }
        rep.notes.push(
            "both curves come from the simulator: the 'Ethernet' series plays the role of \
             the real system (direct hosts), 'Mgrid' is the paced/virtualized run"
                .into(),
        );
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_flat_small_then_linear_large() {
        let small = ping_pong(Mode::Physical, 4, 4);
        let mid = ping_pong(Mode::Physical, 1024, 4);
        let large = ping_pong(Mode::Physical, 262_144, 2);
        // Small-message latency is overhead-dominated: tens to a couple
        // hundred microseconds.
        assert!(small > 20e-6 && small < 400e-6, "small {small}");
        // 1 KB barely moves it.
        assert!(mid < small * 3.0, "mid {mid} vs small {small}");
        // 256 KB at ~100 Mb/s: >= 20 ms one way.
        assert!(large > 20e-3 && large < 80e-3, "large {large}");
    }

    #[test]
    fn bandwidth_saturates_near_line_rate() {
        let lat = ping_pong(Mode::Physical, 262_144, 2);
        let mbps = 262_144.0 / lat * 8.0 / 1e6;
        assert!(mbps > 60.0 && mbps < 100.0, "saturation at {mbps} Mb/s");
    }

    #[test]
    fn microgrid_tracks_physical() {
        // Small messages deviate more: within a CONT window the paced
        // process briefly runs at full physical speed, so per-message
        // software overheads shrink in virtual time (visible in the
        // paper's Fig 8 too). Bulk transfers must track closely.
        for (size, tol) in [(4u64, 0.30), (4096, 0.30), (65536, 0.12)] {
            let p = ping_pong(Mode::Physical, size, 4);
            let m = ping_pong(Mode::MicroGrid, size, 4);
            let err = (m - p).abs() / p;
            assert!(err < tol, "size {size}: phys {p} vs mgrid {m} ({err:.2})");
        }
    }
}
