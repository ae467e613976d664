//! Quickstart: bring up a virtual Grid, inspect its GIS records, launch a
//! 3-rank job with `mpirun` — the one way every figure starts its ranks —
//! and watch virtual time run at the simulation rate (paper §2.2–2.3).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use microgrid::desim::time::SimDuration;
use microgrid::desim::Simulation;
use microgrid::gis::virtualization::virtual_hosts_filter;
use microgrid::mpi::MpiParams;
use microgrid::{presets, VirtualGrid};

fn main() {
    // The whole virtual Grid lives inside one deterministic simulation.
    let mut sim = Simulation::new(42);
    sim.block_on(async {
        // 1. Build the paper's 4-node Alpha cluster as a virtual Grid.
        let grid = VirtualGrid::build(presets::alpha_cluster()).expect("valid config");
        println!(
            "virtual grid '{}' up: {} hosts, simulation rate {:.2}",
            grid.name(),
            grid.host_names().len(),
            grid.rate()
        );

        // 2. Resource discovery through the GIS (Fig 3 records).
        let gis = grid.gis();
        for rec in gis.borrow().search_all(&virtual_hosts_filter(grid.name())) {
            println!(
                "  GIS: {} -> mapped to {}, CpuSpeed={} Mops",
                rec.get("hn").unwrap_or("?"),
                rec.get("Mapped_Physical_Resource").unwrap_or("?"),
                rec.get("CpuSpeed").unwrap_or("?"),
            );
        }

        // 3. Launch a 3-rank job on the first three virtual hosts.
        let hosts = &grid.host_names()[..3];
        println!("mpirun: 3 ranks on {}", hosts.join(", "));
        let ranks = grid
            .mpirun(hosts, MpiParams::default(), |comm| async move {
                // The app sees only virtual identities and virtual time.
                let ctx = comm.ctx();
                let t0 = ctx.gettimeofday();
                ctx.compute_mops(533.0).await; // one virtual CPU-second
                let t1 = ctx.gettimeofday();
                comm.barrier().await.expect("barrier");
                (
                    ctx.gethostname().to_string(),
                    t1.saturating_since(t0).as_secs_f64(),
                )
            })
            .await;
        for (rank, (host, secs)) in ranks.iter().enumerate() {
            println!(
                "  [rank {rank}/{}] hello from {host} — {secs:.3} virtual s of compute",
                ranks.len()
            );
        }
        let now = microgrid::desim::now();
        println!(
            "job done at virtual t={:.3}s (physical sim time {:.3}s)",
            grid.network().clock().virtual_at(now).as_secs_f64(),
            now.as_secs_f64()
        );

        // 4. Virtual time really is scaled: sleep 1 virtual second.
        let ctx = grid
            .spawn_process("alpha3", "sleeper")
            .expect("sleeper process");
        let before = ctx.gettimeofday();
        ctx.sleep_virtual(SimDuration::from_secs(1)).await;
        let after = ctx.gettimeofday();
        println!(
            "slept {:.2} virtual s (rate {:.2})",
            after.saturating_since(before).as_secs_f64(),
            grid.rate()
        );
    });
}
