//! What one more virtual host costs to hold: the paper's §5 goal of grids
//! of "hundreds to thousands of hosts" as a memory budget of 14 KB per
//! virtual host. Grows a switched cluster from 128 to 512 hosts and
//! charges the growth of the process's peak resident set (`VmHWM`) to the
//! 384 added hosts. Alone in its file, so no other test shares the
//! process.

#![cfg(target_os = "linux")]

use microgrid::desim::Simulation;
use microgrid::mpi::{Comm, MpiParams};
use microgrid::{presets, VirtualGrid};

/// The budget per added virtual host.
const BYTES_PER_HOST: u64 = 14 * 1024;

/// Peak resident set of this process so far, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line");
    kb * 1024
}

/// Three rounds of a small compute and an 8-byte allreduce.
async fn pulse(comm: Comm) {
    for _ in 0..3 {
        comm.ctx().compute_mops(5.0).await;
        let sum = comm.allreduce(1u64, 8, |a, b| a + b).await;
        assert_eq!(sum, Ok(comm.size() as u64));
    }
}

/// Build `alpha_cluster_n(hosts)` and run [`pulse`] on every host.
fn run(hosts: usize) {
    let config = presets::alpha_cluster_n(hosts);
    let mut sim = Simulation::new(config.seed);
    let ranks = sim.block_on(async move {
        let grid = VirtualGrid::build(config).expect("a preset builds");
        grid.mpirun_all(MpiParams::default(), pulse).await.len()
    });
    assert_eq!(ranks, hosts);
}

#[test]
fn an_added_virtual_host_costs_at_most_14_kb() {
    run(128);
    let small = peak_rss_bytes();
    run(512);
    let large = peak_rss_bytes();
    let per_host = large.saturating_sub(small) / (512 - 128);
    assert!(
        per_host <= BYTES_PER_HOST,
        "peak RSS {small} -> {large} bytes: {per_host} bytes per added virtual host"
    );
}
