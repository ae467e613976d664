//! # mgrid-apps — workload models for MicroGrid-rs
//!
//! The applications the paper validates the MicroGrid with:
//!
//! * [`npb`] — execution-driven models of the NAS Parallel Benchmarks 2.3
//!   (EP, BT, LU, MG, IS; classes S and A) with the original codes'
//!   communication structure and calibrated compute costs.
//! * [`wavetoy`] — the CACTUS WaveToy 3-D wave-equation solver (Fig 16).
//! * [`autopilot`] — Autopilot-style sensors and the RMS-skew internal
//!   validation of Fig 17.

#![warn(missing_docs)]

pub mod autopilot;
pub mod npb;
pub mod wavetoy;

pub use autopilot::{rms_skew_percent, Autopilot, Sensor};
pub use npb::{NpbBenchmark, NpbClass, NpbResult, NpbSensors};
pub use wavetoy::{WaveToyConfig, WaveToyResult};

#[cfg(test)]
mod tests {
    use super::*;
    use mgrid_desim::vclock::VirtualClock;
    use mgrid_desim::{SimRng, Simulation};
    use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
    use mgrid_middleware::HostTable;
    use mgrid_mpi::{mpirun, MpiParams};
    use mgrid_netsim::{LinkSpec, NetParams, Network, NodeId, TopologyBuilder};

    /// 4 direct virtual hosts on a 100 Mb Ethernet switch (the "physical
    /// grid" baseline wiring).
    fn cluster4() -> (HostTable, Network, Vec<String>) {
        let mut b = TopologyBuilder::new();
        let sw = b.router("switch");
        let mut names = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for i in 0..4 {
            let name = format!("alpha{i}");
            let n = b.host(&name);
            b.link(n, sw, LinkSpec::fast_ethernet());
            names.push(name);
            nodes.push(n);
        }
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        let table = HostTable::new();
        for (i, name) in names.iter().enumerate() {
            let ph = PhysicalHost::new(
                PhysicalHostSpec::new(format!("phys-{name}"), 533.0, 1 << 30),
                OsParams::default(),
                SchedulerParams::default(),
                SimRng::new(900 + i as u64),
            );
            table.register(name, nodes[i], ph.as_direct_virtual());
        }
        (table, net, names)
    }

    fn run_npb(bench: NpbBenchmark, class: NpbClass) -> NpbResult {
        let mut sim = Simulation::new(42);
        let results = sim.block_on(async move {
            let (table, net, hosts) = cluster4();
            mpirun(&table, &net, &hosts, MpiParams::default(), move |comm| {
                Box::pin(npb::run(bench, comm, class, None))
                    as std::pin::Pin<Box<dyn std::future::Future<Output = NpbResult>>>
            })
            .await
        });
        results.into_iter().next().expect("rank 0 result")
    }

    #[test]
    fn ep_class_s_runs_and_verifies() {
        let r = run_npb(NpbBenchmark::EP, NpbClass::S);
        assert!(r.verified, "EP verification failed: {r:?}");
        // Calibrated to ~13 s on the 4x533 reference.
        assert!(
            (10.0..16.0).contains(&r.virtual_seconds),
            "EP-S time {}",
            r.virtual_seconds
        );
    }

    #[test]
    fn mg_class_s_runs_and_verifies() {
        let r = run_npb(NpbBenchmark::MG, NpbClass::S);
        assert!(r.verified, "MG verification failed: {r:?}");
        assert!(
            (3.0..7.0).contains(&r.virtual_seconds),
            "MG-S time {}",
            r.virtual_seconds
        );
    }

    #[test]
    fn lu_class_s_runs_and_verifies() {
        let r = run_npb(NpbBenchmark::LU, NpbClass::S);
        assert!(r.verified, "LU verification failed: {r:?}");
        assert!(
            (5.0..10.0).contains(&r.virtual_seconds),
            "LU-S time {}",
            r.virtual_seconds
        );
    }

    #[test]
    fn bt_class_s_runs_and_verifies() {
        let r = run_npb(NpbBenchmark::BT, NpbClass::S);
        assert!(r.verified, "BT verification failed: {r:?}");
        assert!(
            (7.0..12.0).contains(&r.virtual_seconds),
            "BT-S time {}",
            r.virtual_seconds
        );
    }

    #[test]
    fn is_class_s_runs_and_verifies() {
        let r = run_npb(NpbBenchmark::IS, NpbClass::S);
        assert!(r.verified, "IS verification failed: {r:?}");
        assert!(
            (0.5..4.0).contains(&r.virtual_seconds),
            "IS-S time {}",
            r.virtual_seconds
        );
    }

    #[test]
    fn npb_results_are_deterministic() {
        let a = run_npb(NpbBenchmark::MG, NpbClass::S);
        let b = run_npb(NpbBenchmark::MG, NpbClass::S);
        assert_eq!(a.virtual_seconds, b.virtual_seconds);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn wavetoy_small_conserves_energy() {
        let mut sim = Simulation::new(7);
        let results = sim.block_on(async move {
            let (table, net, hosts) = cluster4();
            mpirun(&table, &net, &hosts, MpiParams::default(), |comm| {
                Box::pin(wavetoy::run(comm, WaveToyConfig::small(), None))
                    as std::pin::Pin<Box<dyn std::future::Future<Output = WaveToyResult>>>
            })
            .await
        });
        let r = &results[0];
        assert!(r.verified, "WaveToy energy drift {}", r.energy_drift);
        // 50^3 at ~137 ops/cell over 100 steps on 4x533 Mops: ~0.8 s.
        assert!(
            (0.4..2.0).contains(&r.virtual_seconds),
            "WaveToy-50 time {}",
            r.virtual_seconds
        );
    }
}
