//! Property-based tests of the network simulator's guarantees.

use proptest::prelude::*;

use mgrid_desim::time::SimDuration;
use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::{spawn, Simulation};
use mgrid_netsim::{LinkSpec, NetParams, Network, Payload, TopologyBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every reliably-sent message is delivered exactly once with its full
    /// byte count, regardless of sizes, and per-(sender, port) order holds.
    #[test]
    fn reliable_delivery_conserves_messages(
        sizes in prop::collection::vec(1u64..200_000, 1..12),
        queue_kb in 16u64..256,
    ) {
        let mut sim = Simulation::new(7);
        let n_msgs = sizes.len();
        let (total_sent, received) = sim.block_on(async move {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let r = b.router("r");
            let z = b.host("z");
            b.link(a, r, LinkSpec {
                bandwidth_bps: 50e6,
                delay: SimDuration::from_micros(100),
                queue_bytes: queue_kb * 1024,
            });
            b.link(r, z, LinkSpec {
                bandwidth_bps: 20e6,
                delay: SimDuration::from_micros(200),
                queue_bytes: queue_kb * 1024,
            });
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(z).bind(9);
            let total: u64 = sizes.iter().sum();
            {
                let ep = net.endpoint(a);
                let sizes = sizes.clone();
                spawn(async move {
                    for (i, s) in sizes.into_iter().enumerate() {
                        ep.send(z, 9, 1, s, Payload::new(i)).await.unwrap();
                    }
                });
            }
            let mut got = Vec::new();
            for _ in 0..n_msgs {
                let m = rx.recv().await.unwrap();
                got.push((*m.payload.downcast::<usize>().unwrap(), m.size_bytes));
            }
            (total, got)
        });
        // Exactly once, in order, byte-complete.
        prop_assert_eq!(received.len(), n_msgs);
        let sum: u64 = received.iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(sum, total_sent);
        for (i, (idx, _)) in received.iter().enumerate() {
            prop_assert_eq!(*idx, i, "out-of-order delivery");
        }
    }

    /// Goodput never exceeds the bottleneck link's raw bandwidth, at any
    /// emulation rate.
    #[test]
    fn goodput_bounded_by_bottleneck(
        bw_mbps in 5.0f64..200.0,
        size_kb in 64u64..1024,
        rate in 0.1f64..4.0,
    ) {
        let mut sim = Simulation::new(8);
        let (secs_virtual, bytes) = sim.block_on(async move {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let z = b.host("z");
            b.link(a, z, LinkSpec::new(bw_mbps * 1e6, SimDuration::from_micros(50)));
            let net = Network::new(b.build(), VirtualClock::new(rate), NetParams::default());
            let rx = net.endpoint(z).bind(2);
            let bytes = size_kb * 1024;
            let t0 = mgrid_desim::now();
            {
                let ep = net.endpoint(a);
                spawn(async move {
                    ep.send(z, 2, 1, bytes, Payload::empty()).await.unwrap();
                });
            }
            rx.recv().await.unwrap();
            let phys = (mgrid_desim::now() - t0).as_secs_f64();
            (phys * rate, bytes)
        });
        let goodput_bps = bytes as f64 * 8.0 / secs_virtual;
        prop_assert!(
            goodput_bps <= bw_mbps * 1e6 * 1.001,
            "goodput {goodput_bps} exceeds raw {bw_mbps} Mb/s"
        );
    }

    /// One-way delivery time is never below the path's propagation delay.
    #[test]
    fn latency_at_least_propagation(
        delay_us in 1u64..5_000,
        size in 1u64..10_000,
    ) {
        let mut sim = Simulation::new(9);
        let (elapsed, floor) = sim.block_on(async move {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let z = b.host("z");
            b.link(a, z, LinkSpec::new(100e6, SimDuration::from_micros(delay_us)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(z).bind(3);
            let t0 = mgrid_desim::now();
            {
                let ep = net.endpoint(a);
                spawn(async move {
                    ep.send(z, 3, 1, size, Payload::empty()).await.unwrap();
                });
            }
            rx.recv().await.unwrap();
            (
                (mgrid_desim::now() - t0).as_nanos(),
                SimDuration::from_micros(delay_us).as_nanos(),
            )
        });
        prop_assert!(elapsed >= floor, "delivered in {elapsed}ns < propagation {floor}ns");
    }
}
