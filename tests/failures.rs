//! Failure injection: the system must degrade predictably, not wedge.

use microgrid::desim::time::{SimDuration, SimTime};
use microgrid::desim::vclock::VirtualClock;
use microgrid::desim::{spawn, Simulation};
use microgrid::netsim::{LinkSpec, NetParams, Network, Payload, TopologyBuilder};
use microgrid::{presets, VirtualGrid};

/// A queue smaller than a single packet drops everything; the reliable
/// sender must keep retransmitting (never complete) rather than wedge the
/// simulation, and the drop counters must tell the story.
#[test]
fn black_hole_link_retransmits_forever_without_wedging() {
    let mut sim = Simulation::new(1);
    let obs = sim.obs().clone();
    sim.spawn(async move {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let z = b.host("z");
        b.link(
            a,
            z,
            LinkSpec {
                bandwidth_bps: 10e6,
                delay: SimDuration::from_millis(1),
                queue_bytes: 100, // smaller than one packet: total loss
            },
        );
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        let rx = net.endpoint(z).bind(1);
        let received = spawn(async move { rx.recv().await });
        let ep = net.endpoint(a);
        let h = spawn(async move { ep.send(z, 1, 1, 50_000, Payload::empty()).await });
        mgrid_desim::sleep(SimDuration::from_secs(30)).await;
        assert!(
            h.try_take().is_none(),
            "send cannot succeed over a black hole"
        );
        let drops = obs.metrics().counter("net.drops");
        assert!(drops > 10, "drops: {drops}");
        let stats = net.stats();
        assert!(
            stats.retransmit_rounds > 3,
            "retransmit rounds: {}",
            stats.retransmit_rounds
        );
        assert!(received.try_take().is_none(), "nothing is delivered");
    });
    // The run must terminate (bounded), not spin at one instant.
    sim.run_until(SimTime::from_secs_f64(31.0));
}

/// Disconnected topologies fail sends fast (unreachable), and the rest of
/// the grid keeps working.
#[test]
fn partitioned_network_fails_fast() {
    let mut sim = Simulation::new(4);
    sim.block_on(async {
        let mut config = presets::alpha_cluster();
        // Cut alpha3's only link.
        config
            .network
            .links
            .retain(|l| l.a != "alpha3" && l.b != "alpha3");
        let grid = VirtualGrid::build(config).expect("build");
        let a0 = grid.spawn_process("alpha0", "p0").unwrap();
        let a1 = grid.spawn_process("alpha1", "p1").unwrap();
        let s0 = a0.bind(9);
        let s1 = a1.bind(9);
        // Reachable pair still works.
        let send = spawn(async move { s0.send_to("alpha1", 9, 1_000, Payload::new(7u32)).await });
        let msg = s1.recv().await.unwrap();
        assert_eq!(*msg.payload.downcast::<u32>().unwrap(), 7);
        send.await.unwrap();
        // The island is unreachable, and the error is immediate.
        let s0b = a0.bind(10);
        let err = s0b
            .send_to("alpha3", 9, 1_000, Payload::empty())
            .await
            .unwrap_err();
        assert!(matches!(
            err,
            microgrid::middleware::SockError::Net(microgrid::netsim::NetError::Unreachable)
        ));
    });
}

/// Killing a process mid-compute releases its CPU request without
/// wedging the kernel or the other processes.
#[test]
fn process_exit_mid_compute_is_clean() {
    let mut sim = Simulation::new(5);
    sim.block_on(async {
        let grid = VirtualGrid::build_baseline(presets::alpha_cluster()).unwrap();
        let victim = grid.spawn_process("alpha0", "victim").unwrap();
        let survivor = grid.spawn_process("alpha0", "survivor").unwrap();
        let v = victim.clone();
        let h = spawn(async move {
            v.compute_mops(533.0 * 100.0).await; // 100 s of CPU
        });
        mgrid_desim::sleep(SimDuration::from_millis(50)).await;
        victim.exit();
        // The survivor now owns the whole CPU.
        let t0 = mgrid_desim::now();
        survivor.compute_mops(533.0).await;
        let wall = (mgrid_desim::now() - t0).as_secs_f64();
        assert!((wall - 1.0).abs() < 0.05, "survivor wall {wall}");
        // The victim's in-flight compute halts permanently (crash
        // semantics: a dead process's CPU request never completes) —
        // parked, not completed, and not wedging the simulation.
        mgrid_desim::sleep(SimDuration::from_millis(1)).await;
        assert!(
            h.try_take().is_none(),
            "dead process's compute must not return"
        );
    });
}
