//! Independent models beside the simulated resources: each property
//! states a closed form from the paper (or from first principles) and
//! checks the simulator against it. The expected values are computed
//! from the configuration's numbers with arithmetic written here, never
//! with the simulator's own code. The CPU model (Fig 6) and Fig 8's
//! latency floor and plateau are checked the same way, through the
//! figures' own measurements, in `crates/bench/tests/oracles.rs`.

use proptest::prelude::*;

use microgrid::desim::time::SimDuration;
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{now, spawn, Simulation};
use microgrid::hostsim::{PhysicalHostSpec, VirtualHostSpec};
use microgrid::netsim::engine::ACK_WIRE_BYTES;
use microgrid::netsim::transport::{HEADER_BYTES, MTU, WINDOW_BYTES};
use microgrid::netsim::{LinkSpec, NetParams, Network, Payload, TopologyBuilder};
use microgrid::{
    plan_rate, presets, GridConfig, NetworkConfig, RatePolicy, VirtualGrid, VirtualHostConfig,
};

/// A grid of `phys` physical hosts (speeds in Mops) carrying virtual
/// hosts `(speed in Mops, index of the physical host it is mapped to)`.
fn grid_config(phys: &[f64], virt: &[(f64, usize)], rate: RatePolicy) -> GridConfig {
    GridConfig {
        name: "oracle".into(),
        physical_hosts: phys
            .iter()
            .enumerate()
            .map(|(i, &speed)| PhysicalHostSpec::new(format!("p{i}"), speed, 1 << 30))
            .collect(),
        virtual_hosts: virt
            .iter()
            .enumerate()
            .map(|(i, &(speed, p))| VirtualHostConfig {
                spec: VirtualHostSpec::new(format!("v{i}"), speed, 1 << 27),
                mapped_to: format!("p{}", p % phys.len()),
            })
            .collect(),
        network: NetworkConfig::default(),
        rate,
        quantum: SimDuration::from_millis(10),
        seed: 0,
        faults: None,
        shards: None,
    }
}

proptest! {
    /// Rate (paper §2.3): no physical CPU is asked to work faster than it
    /// can, `rate × Σ(virtual speeds mapped to p) ≤ speed_p` on every
    /// physical host, and `Auto { safety }` chooses
    /// `safety × min_p(speed_p / Σ)`. A `Fixed` rate below that bound is
    /// taken as given.
    #[test]
    fn chosen_rate_overloads_no_physical_cpu(
        phys in prop::collection::vec(50f64..5000.0, 1..5),
        virt in prop::collection::vec((1f64..2000.0, 0usize..5), 1..12),
        safety in 0.05f64..1.0,
        fixed_share in 0.01f64..1.0,
    ) {
        let mut demand = vec![0.0; phys.len()];
        for &(speed, p) in &virt {
            demand[p % phys.len()] += speed;
        }
        let bound = phys
            .iter()
            .zip(&demand)
            .filter(|(_, &d)| d > 0.0)
            .map(|(&speed, &d)| speed / d)
            .fold(f64::INFINITY, f64::min);

        let auto = plan_rate(&grid_config(&phys, &virt, RatePolicy::Auto { safety }))
            .expect("feasible");
        let want = safety * bound;
        prop_assert!(
            (auto.chosen - want).abs() <= want * 1e-12,
            "Auto chose {} for safety {safety} x bound {bound}",
            auto.chosen
        );
        let fixed = fixed_share * bound;
        let pinned = plan_rate(&grid_config(&phys, &virt, RatePolicy::Fixed(fixed)))
            .expect("feasible");
        prop_assert_eq!(pinned.chosen, fixed);

        for rate in [auto.chosen, pinned.chosen] {
            for (&speed, &d) in phys.iter().zip(&demand) {
                prop_assert!(
                    rate * d <= speed * (1.0 + 1e-12),
                    "rate {rate} x demand {d} Mops exceeds a {speed} Mops CPU"
                );
            }
        }
    }

    /// Memory (Fig 5): on a virtual host capped at `C` bytes, one process
    /// can allocate exactly `C - 1 KB` — its bookkeeping takes the rest —
    /// and not one byte more.
    #[test]
    fn one_process_allocates_the_cap_less_one_kb(
        cap in 1024u64..(1 << 34),
        host in 0usize..4,
    ) {
        const PROCESS_BOOKKEEPING: u64 = 1024;
        let mut config = presets::alpha_cluster();
        config.virtual_hosts[host].spec.memory_bytes = cap;
        let name = config.virtual_hosts[host].spec.name.clone();
        let mut sim = Simulation::new(1);
        sim.block_on(async move {
            let grid = VirtualGrid::build(config).expect("valid config");
            let ctx = grid.spawn_process(&name, "probe").expect("a process fits");
            let mem = ctx.process().memory();
            let room = cap - PROCESS_BOOKKEEPING;
            prop_assert!(mem.alloc(room + 1).is_err(), "cap {cap}: {} bytes fit", room + 1);
            prop_assert!(mem.alloc(room).is_ok(), "cap {cap}: {room} bytes do not fit");
            prop_assert!(mem.alloc(1).is_err(), "cap {cap}: a byte past the cap fits");
        });
    }

    /// Network: one loss-free flow over one link completes between two
    /// closed forms. It cannot beat every data segment serialised back to
    /// back plus one propagation delay. It needs at most
    /// `ceil(segments / window)` window turns, each one window's
    /// serialisation, one ack's and a round trip of propagation.
    #[test]
    fn one_flow_completes_between_the_serialisation_bounds(
        bandwidth_bps in 1e7f64..1e9,
        delay_ns in 0u64..50_000_001,
        size in 1u64..1_000_001,
    ) {
        let tx_secs = |wire_bytes: u64| wire_bytes as f64 * 8.0 / bandwidth_bps;
        let delay = delay_ns as f64 * 1e-9;
        let full_wire = MTU + HEADER_BYTES;
        let segments = size.div_ceil(MTU);
        let last_wire = size - (segments - 1) * MTU + HEADER_BYTES;
        let window = WINDOW_BYTES / MTU;

        let lower = (segments - 1) as f64 * tx_secs(full_wire) + tx_secs(last_wire) + delay;
        let turn = window as f64 * tx_secs(full_wire) + tx_secs(ACK_WIRE_BYTES) + 2.0 * delay;
        let upper = segments.div_ceil(window) as f64 * turn;
        // Each packet's time is rounded to whole nanoseconds.
        let slack = 2e-9 * (2 * segments + 1) as f64;

        let mut sim = Simulation::new(7);
        let (delivered, done) = sim.block_on(async move {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            b.link(a, c, LinkSpec::new(bandwidth_bps, SimDuration::from_nanos(delay_ns)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn(async move {
                tx.send(c, 7, 1, size, Payload::empty()).await.expect("routable");
                now()
            });
            let msg = rx.recv().await.expect("delivered");
            assert_eq!(msg.size_bytes, size);
            (now(), sender.await)
        });
        let (delivered, done) = (delivered.as_secs_f64(), done.as_secs_f64());
        prop_assert!(
            delivered >= lower - slack,
            "{size} B delivered at {delivered} s, before the {lower} s serialisation bound"
        );
        prop_assert!(delivered <= done);
        prop_assert!(
            done <= upper + slack,
            "{size} B acked at {done} s, after {} window turns of {turn} s",
            segments.div_ceil(window)
        );
    }
}
