//! Reliable message transport: a go-back-N sliding-window protocol over
//! the packet network, standing in for the TCP streams that carry Globus
//! and MPI traffic through NSE in the original system.
//!
//! A message is split into MTU-sized segments; up to one window of
//! segments is in flight; the receiver acknowledges cumulatively and
//! discards out-of-order segments; on timeout the sender rewinds to the
//! first unacknowledged segment. Acks travel as real packets and consume
//! reverse-path bandwidth. The fixed window bounds throughput to
//! `window / RTT` on long fat paths — the behavior behind the paper's
//! observation (Fig 14) that wide-area NPB performance is latency-bound
//! and "only mildly sensitive to network bandwidth".

use mgrid_desim::time::SimDuration;
use mgrid_desim::timeout::with_timeout;
use mgrid_desim::{obs, Category};

use crate::engine::{Endpoint, NetError};
use crate::packet::{Packet, PacketKind, Payload, TransferId};
use crate::topology::NodeId;

/// Application bytes per data segment (TCP MSS-like).
pub const MTU: u64 = 1460;

/// Header overhead added to each data segment on the wire.
pub const HEADER_BYTES: u64 = 58;

/// Wire size of a full data segment, the largest packet the transport
/// sends: what a link queue must hold and a link must serialise in one
/// step.
pub const SEGMENT_WIRE_BYTES: u64 = MTU + HEADER_BYTES;

/// Flow-control window in bytes (in-flight unacknowledged data).
pub const WINDOW_BYTES: u64 = 64 * 1024;

/// Lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(10);

impl Endpoint {
    /// Reliably send a message of `size_bytes` to `(dst, port)`.
    ///
    /// Completes when every segment has been acknowledged (the message is
    /// fully delivered, or queued at an unbound port). Fails fast with
    /// [`NetError::Unreachable`] if no route exists; otherwise go-back-N
    /// retransmits for as long as it takes, and a dead peer is bounded
    /// above this layer (MPI `recv_timeout`, `mpirun_resilient`).
    ///
    /// The whole sliding-window transfer — segments, acks, and any
    /// retransmission rounds — is covered by one `Net` `net_send` span on
    /// the sending node's timeline.
    pub async fn send(
        &self,
        dst: NodeId,
        port: u16,
        src_port: u16,
        size_bytes: u64,
        payload: Payload,
    ) -> Result<(), NetError> {
        let span = obs::span_begin(Category::Net, "net_send", || {
            let inner = &self.network().inner;
            let (track, lane) = inner.send_attrs[self.node().0]
                .get_or_init(|| (inner.topo.node_name(self.node()).into(), "transport".into()));
            let detail = inner
                .send_details
                .borrow_mut()
                .entry((dst, size_bytes))
                .or_insert_with(|| {
                    format!("{}B to {}", size_bytes, inner.topo.node_name(dst)).into()
                })
                .clone();
            (track.clone(), lane.clone(), detail)
        });
        let res = self
            .send_inner(dst, port, src_port, size_bytes, payload)
            .await;
        obs::span_end(span);
        res
    }

    async fn send_inner(
        &self,
        dst: NodeId,
        port: u16,
        src_port: u16,
        size_bytes: u64,
        payload: Payload,
    ) -> Result<(), NetError> {
        let net = self.network().clone();
        let inner = &net.inner;
        if self.node() != dst && inner.topo.next_hop(self.node(), dst).is_none() {
            return Err(NetError::Unreachable);
        }
        let total = size_bytes.div_ceil(MTU).max(1) as u32;
        let window = ((WINDOW_BYTES / MTU).max(1) as u32).min(total.max(1));
        let transfer = TransferId(inner.next_transfer.get());
        inner.next_transfer.set(transfer.0 + 1);

        // Register for acks before sending anything.
        let (ack_tx, ack_rx) = mgrid_desim::channel::channel();
        inner.ack_waiters.borrow_mut().insert(transfer, ack_tx);
        // Ensure cleanup on every exit path.
        struct Unregister<'a> {
            net: &'a crate::engine::Network,
            transfer: TransferId,
        }
        impl Drop for Unregister<'_> {
            fn drop(&mut self) {
                self.net
                    .inner
                    .ack_waiters
                    .borrow_mut()
                    .remove(&self.transfer);
            }
        }
        let _guard = Unregister {
            net: &net,
            transfer,
        };

        let mut base: u32 = 0;
        let mut next: u32 = 0;
        let max_rto = inner.params.max_rto.max(MIN_RTO);
        let max_rto_ns = u128::from(max_rto.as_nanos());
        let mut rto = inner.params.initial_rto.min(max_rto);
        let mut srtt: Option<SimDuration> = None;
        let mut timing: Option<(u32, mgrid_desim::SimTime)> = None;
        // When the current stall began (for the `net.recovery_latency_ns`
        // histogram).
        let mut stall_start: Option<mgrid_desim::SimTime> = None;

        while base < total {
            // Fill the window.
            while next < total && next < base + window {
                let last = next + 1 == total;
                let seg_bytes = if last {
                    size_bytes - u64::from(next) * MTU
                } else {
                    MTU
                };
                let pkt = Packet {
                    src: self.node(),
                    dst,
                    wire_bytes: seg_bytes.max(1) + HEADER_BYTES,
                    kind: PacketKind::Data {
                        transfer,
                        seq: next,
                        total,
                        message_bytes: size_bytes,
                        port,
                        src_port,
                        payload: if last { Some(payload.clone()) } else { None },
                    },
                };
                net.send_from(self.node(), pkt);
                if timing.is_none() {
                    timing = Some((next, mgrid_desim::now()));
                }
                next += 1;
            }
            // Wait for an ack or a timeout.
            match with_timeout(rto, ack_rx.recv()).await {
                Some(Ok(next_expected)) => {
                    if next_expected > base {
                        base = next_expected;
                        if let Some(t0) = stall_start.take() {
                            // Ack progress after one or more timeouts:
                            // the path recovered.
                            inner
                                .m
                                .recovery_latency_ns
                                .observe((mgrid_desim::now() - t0).as_nanos());
                        }
                        if let Some((seq, sent_at)) = timing {
                            if next_expected > seq {
                                let sample = mgrid_desim::now() - sent_at;
                                // Blend in u128 so the 7x multiply cannot
                                // overflow on very large simulated RTTs,
                                // then clamp into [MIN_RTO/4, max_rto]
                                // before narrowing back to nanoseconds.
                                let blended_ns = match srtt {
                                    None => u128::from(sample.as_nanos()),
                                    Some(s) => {
                                        (u128::from(s.as_nanos()) * 7
                                            + u128::from(sample.as_nanos()))
                                            / 8
                                    }
                                };
                                let blended =
                                    SimDuration::from_nanos(blended_ns.min(max_rto_ns) as u64);
                                srtt = Some(blended);
                                let rto_ns =
                                    (u128::from(blended.as_nanos()) * 4).min(max_rto_ns) as u64;
                                rto = SimDuration::from_nanos(rto_ns).max(MIN_RTO);
                                timing = None;
                            }
                        }
                    }
                }
                Some(Err(_)) => return Err(NetError::Closed),
                None => {
                    // Timeout: go-back-N from the first unacked segment.
                    next = base;
                    timing = None;
                    inner.stats.borrow_mut().retransmit_rounds += 1;
                    if stall_start.is_none() {
                        stall_start = Some(mgrid_desim::now());
                        inner.m.stalls.add(1);
                    }
                    // Exponential backoff, bounded by `max_rto`
                    // (overflow-safe: doubled in u128).
                    rto = SimDuration::from_nanos(
                        (u128::from(rto.as_nanos()) * 2).min(max_rto_ns) as u64
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NetParams, Network};
    use crate::topology::{LinkSpec, TopologyBuilder};
    use mgrid_desim::vclock::VirtualClock;
    use mgrid_desim::{now, spawn, SimTime, Simulation};

    fn lan() -> (Network, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a");
        let c = b.host("c");
        b.link(a, c, LinkSpec::new(100e6, SimDuration::from_micros(50)));
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        (net, a, c)
    }

    #[test]
    fn small_message_delivered_with_latency() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let (net, a, c) = lan();
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let t0 = now();
            tx.send(c, 7, 1, 100, Payload::new(42u32)).await.unwrap();
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, 100);
            assert_eq!(*msg.payload.downcast::<u32>().unwrap(), 42);
            assert_eq!(msg.src, a);
            // One-way: tx(158B at 100Mb/s ~ 12.6us) + 50us prop.
            let elapsed = (now() - t0).as_micros();
            assert!((60..200).contains(&elapsed), "latency {elapsed}us");
        });
        sim.run_to_completion();
    }

    /// `mpi` clones the sender into a task per message: every clone must
    /// hand the span store the node's one interned `(track, lane)` pair,
    /// not a pair of its own.
    #[test]
    fn traced_sends_through_endpoint_clones_share_the_nodes_span_strings() {
        let mut sim = Simulation::new(1);
        sim.obs().enable_spans();
        let obs = sim.obs().clone();
        let net = sim.block_on(async {
            let (net, a, c) = lan();
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            for i in 0..5u64 {
                // A clone taken before any send, as `protocol_send` does.
                let tx = tx.clone();
                spawn(async move {
                    tx.send(c, 7, 1, 100 + i, Payload::empty()).await.unwrap();
                });
            }
            for _ in 0..5 {
                rx.recv().await.unwrap();
            }
            (net, a)
        });
        let (net, a) = net;
        let table = obs.spans().snapshot().spans;
        assert_eq!(table.len(), 5);
        let (track, lane) = net.inner.send_attrs[a.0]
            .get()
            .expect("the first traced send fills the node's cell");
        // One kind for the node's transport lane, and it holds the
        // cell's own allocations: what the first send handed over is
        // what every later clone hands over.
        let [kind] = table.kinds() else {
            panic!("expected one kind, got {:?}", table.kinds())
        };
        assert!(std::sync::Arc::ptr_eq(&kind.track, track));
        assert!(std::sync::Arc::ptr_eq(&kind.lane, lane));
        assert_eq!((&*kind.track, &*kind.lane), ("a", "transport"));
        assert_eq!(table.details().len(), 5);
    }

    #[test]
    fn large_message_bandwidth_bound() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            let (net, a, c) = lan();
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let size = 4 * 1024 * 1024u64; // 4 MB
            let t0 = now();
            let sender = spawn(async move {
                tx.send(c, 7, 1, size, Payload::empty()).await.unwrap();
            });
            let msg = rx.recv().await.unwrap();
            sender.await;
            assert_eq!(msg.size_bytes, size);
            let secs = (now() - t0).as_secs_f64();
            let goodput = size as f64 * 8.0 / secs;
            // Must be below the raw 100 Mb/s and above half of it
            // (headers + acks + window stalls cost something).
            assert!(goodput < 100e6, "goodput {goodput}");
            assert!(goodput > 50e6, "goodput {goodput}");
        });
        sim.run_to_completion();
    }

    #[test]
    fn messages_to_same_port_preserve_order() {
        let mut sim = Simulation::new(3);
        sim.spawn(async {
            let (net, a, c) = lan();
            let rx = net.endpoint(c).bind(9);
            let tx = net.endpoint(a);
            spawn(async move {
                for i in 0..20u32 {
                    tx.send(c, 9, 1, 1000, Payload::new(i)).await.unwrap();
                }
            });
            for i in 0..20u32 {
                let msg = rx.recv().await.unwrap();
                assert_eq!(*msg.payload.downcast::<u32>().unwrap(), i);
            }
        });
        sim.run_to_completion();
    }

    #[test]
    fn unreachable_destination_errors() {
        let mut sim = Simulation::new(4);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let island = b.host("island");
            let _ = island;
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let r = net
                .endpoint(a)
                .send(island, 1, 1, 10, Payload::empty())
                .await;
            assert_eq!(r, Err(NetError::Unreachable));
        });
        sim.run_to_completion();
    }

    #[test]
    fn recovers_from_queue_drops() {
        let mut sim = Simulation::new(5);
        sim.spawn(async {
            // A tiny queue forces drops; go-back-N must still deliver.
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            b.link(
                a,
                c,
                LinkSpec {
                    bandwidth_bps: 10e6,
                    delay: SimDuration::from_millis(5),
                    queue_bytes: 8 * 1024,
                },
            );
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let size = 256 * 1024u64;
            let sender = spawn({
                let tx = tx.clone();
                async move { tx.send(c, 7, 1, size, Payload::empty()).await }
            });
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, size);
            sender.await.unwrap();
            let stats = net.stats();
            assert!(stats.packet_drops > 0, "expected drops");
            assert!(stats.retransmit_rounds > 0, "expected retransmits");
            assert_eq!(stats.messages_delivered, 1);
        });
        sim.run_to_completion();
    }

    #[test]
    fn recovers_from_seeded_forward_loss() {
        // Seeded fault injection: each packet offered to the forward link
        // is discarded with probability 143/1000, about one in seven.
        // Go-back-N must retransmit through the loss, deliver every
        // message exactly once, in order, and the run must terminate.
        let mut sim = Simulation::new(11);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            let (ab, _ba) = b.link(a, c, LinkSpec::new(10e6, SimDuration::from_millis(2)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            net.set_link_loss(ab, 143);
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move {
                    for i in 0..10u32 {
                        tx.send(c, 7, 1, 20_000, Payload::new(i)).await.unwrap();
                    }
                }
            });
            for i in 0..10u32 {
                let msg = rx.recv().await.unwrap();
                assert_eq!(
                    *msg.payload.downcast_ref::<u32>().unwrap(),
                    i,
                    "messages must arrive in send order despite drops"
                );
                assert_eq!(msg.size_bytes, 20_000);
            }
            sender.await;
            let stats = net.stats();
            assert!(stats.packet_drops > 0, "injector must have fired");
            assert!(stats.retransmit_rounds > 0, "loss must force go-back-N");
            assert_eq!(stats.messages_delivered, 10);
            assert_eq!(net.link_stats(ab).drops, stats.packet_drops);
        });
        sim.run_to_completion();
    }

    #[test]
    fn virtual_clock_scales_network_time() {
        // At rate 0.5, the same transfer takes 2x the physical time.
        fn run(rate: f64) -> f64 {
            let mut sim = Simulation::new(6);
            let out = sim.block_on(async move {
                let mut b = TopologyBuilder::new();
                let a = b.host("a");
                let c = b.host("c");
                b.link(a, c, LinkSpec::new(100e6, SimDuration::from_micros(50)));
                let clock = VirtualClock::new(rate);
                let net = Network::new(b.build(), clock, NetParams::default());
                let rx = net.endpoint(c).bind(7);
                let tx = net.endpoint(a);
                let t0 = now();
                spawn(async move {
                    tx.send(c, 7, 1, 1_000_000, Payload::empty()).await.unwrap();
                });
                rx.recv().await.unwrap();
                (now() - t0).as_secs_f64()
            });
            out
        }
        let full = run(1.0);
        let half = run(0.5);
        let ratio = half / full;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn concurrent_flows_share_bottleneck() {
        let mut sim = Simulation::new(7);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let s1 = b.host("s1");
            let s2 = b.host("s2");
            let r = b.router("r");
            let d = b.host("d");
            b.link(s1, r, LinkSpec::new(100e6, SimDuration::from_micros(10)));
            b.link(s2, r, LinkSpec::new(100e6, SimDuration::from_micros(10)));
            b.link(r, d, LinkSpec::new(100e6, SimDuration::from_micros(10)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(d).bind(7);
            let size = 1024 * 1024u64;
            for (src, port) in [(s1, 1u16), (s2, 2u16)] {
                let ep = net.endpoint(src);
                spawn(async move {
                    ep.send(d, 7, port, size, Payload::empty()).await.unwrap();
                });
            }
            let t0 = now();
            rx.recv().await.unwrap();
            rx.recv().await.unwrap();
            let secs = (now() - t0).as_secs_f64();
            let aggregate = (2 * size) as f64 * 8.0 / secs;
            // Two flows through one 100 Mb/s link: aggregate under the
            // link rate but well above a single-window trickle.
            assert!(aggregate < 100e6, "aggregate {aggregate}");
            assert!(aggregate > 40e6, "aggregate {aggregate}");
        });
        sim.run_to_completion();
    }

    #[test]
    fn link_down_mid_segment_recovers_when_restored() {
        // The link dies while a transfer is mid-flight and comes back
        // later. The sender must stall (not fail: go-back-N retries
        // forever), recover once the link is up, and report the stall
        // through the `net.stalls` counter and `net.recovery_latency_ns`
        // histogram — the graceful-degradation surface of the fault
        // engine. Exercises `apply_fault` name resolution on both
        // directions of the duplex link.
        use mgrid_faults::FaultKind;
        let mut sim = Simulation::new(21);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            b.link(a, c, LinkSpec::new(10e6, SimDuration::from_millis(2)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let size = 200_000u64;
            let sender = spawn({
                let tx = tx.clone();
                async move { tx.send(c, 7, 1, size, Payload::empty()).await }
            });
            // Let a few windows through, then cut the link mid-transfer.
            mgrid_desim::sleep(SimDuration::from_millis(20)).await;
            net.apply_fault(&FaultKind::LinkDown {
                a: "a".into(),
                b: "c".into(),
            });
            let outage = SimDuration::from_millis(300);
            mgrid_desim::sleep(outage).await;
            net.apply_fault(&FaultKind::LinkUp {
                a: "a".into(),
                b: "c".into(),
            });
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, size);
            sender.await.unwrap();
            let stats = net.stats();
            assert!(stats.retransmit_rounds > 0, "outage must force timeouts");
            assert_eq!(stats.messages_delivered, 1);
        });
        sim.run_to_completion();
        let m = sim.obs().metrics();
        assert!(m.counter("net.stalls") >= 1, "stall must be counted");
        let snap = m.snapshot();
        let rec = snap
            .histograms
            .iter()
            .find(|h| h.name == "net.recovery_latency_ns")
            .expect("recovery latency must be recorded in the registry");
        assert!(rec.count >= 1);
        // Recovery can't be observed faster than the outage remainder
        // after the first timeout, and the max must at least span one RTO.
        assert!(
            rec.max >= MIN_RTO.as_nanos(),
            "recovery latency {} too small",
            rec.max
        );
    }

    #[test]
    fn routed_wan_outage_delays_a_message_stream_but_keeps_its_order() {
        // Two sites joined by a 20 ms long-haul hop that is down (both
        // directions) during [60 ms, 200 ms). Three 40 KB reliable
        // transfers cross it: data one way, cumulative acks the other.
        // All arrive, in order, none before the WAN propagation delay,
        // and at least one only after the hop is back.
        const WAN_DELAY: SimDuration = SimDuration::from_millis(20);
        const DOWN_NS: u64 = 60_000_000;
        const UP_NS: u64 = 200_000_000;
        let mut sim = Simulation::new(42);
        let log = sim.block_on(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let ra = b.router("ra");
            let rb = b.router("rb");
            let bb = b.host("b");
            b.link(a, ra, LinkSpec::new(100e6, SimDuration::from_micros(50)));
            b.link(ra, rb, LinkSpec::new(45e6, WAN_DELAY));
            b.link(rb, bb, LinkSpec::new(100e6, SimDuration::from_micros(50)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            spawn({
                let net = net.clone();
                async move {
                    let wan = net.topology().links_between(ra, rb);
                    mgrid_desim::sleep_until(SimTime::from_nanos(DOWN_NS)).await;
                    for l in &wan {
                        net.set_link_down(*l, true);
                    }
                    mgrid_desim::sleep_until(SimTime::from_nanos(UP_NS)).await;
                    for l in &wan {
                        net.set_link_down(*l, false);
                    }
                }
            });
            let rx = net.endpoint(bb).bind(7);
            let tx = net.endpoint(a);
            spawn(async move {
                for i in 0..3u32 {
                    tx.send(bb, 7, 1, 40_000, Payload::new(i)).await.unwrap();
                }
            });
            let mut log = Vec::new();
            for _ in 0..3 {
                let m = rx.recv().await.unwrap();
                let value = *m.payload.downcast_ref::<u32>().unwrap();
                log.push((now().as_nanos(), value, m.size_bytes));
            }
            log
        });
        assert!(log[0].0 > WAN_DELAY.as_nanos(), "{log:?}");
        for (i, entry) in log.iter().enumerate() {
            assert_eq!((entry.1, entry.2), (i as u32, 40_000), "{log:?}");
        }
        assert!(
            log.iter().any(|e| e.0 > UP_NS),
            "the outage must actually delay traffic: {log:?}"
        );
    }

    #[test]
    fn probabilistic_loss_recovers_and_counts_consistently() {
        // Seeded random loss on the forward link: go-back-N must deliver
        // everything, and the per-link drop counters must sum exactly to
        // the global `packet_drops`, with `unbound_drops` tracking only
        // the port-level discards (LinkStats/NetworkStats consistency
        // under injected faults).
        let mut sim = Simulation::new(23);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            let (ab, ba) = b.link(a, c, LinkSpec::new(10e6, SimDuration::from_millis(2)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            net.set_link_loss(ab, 150); // 15% forward loss
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move {
                    for i in 0..5u32 {
                        tx.send(c, 7, 1, 30_000, Payload::new(i)).await.unwrap();
                    }
                }
            });
            for i in 0..5u32 {
                let msg = rx.recv().await.unwrap();
                assert_eq!(*msg.payload.downcast_ref::<u32>().unwrap(), i);
            }
            sender.await;
            // One message to an unbound port: the sender completes (every
            // segment is acked), and it is the only unbound drop.
            net.endpoint(a)
                .send(c, 99, 1, 64, Payload::empty())
                .await
                .unwrap();
            let stats = net.stats();
            assert!(stats.packet_drops > 0, "loss must have fired");
            assert_eq!(stats.messages_delivered, 5);
            assert_eq!(
                net.link_stats(ab).drops + net.link_stats(ba).drops,
                stats.packet_drops,
                "per-link drops must sum to the global packet_drops"
            );
            assert_eq!(stats.unbound_drops, 1, "only the unbound message");
        });
        sim.run_to_completion();
    }

    #[test]
    fn corruption_burns_bandwidth_then_drops() {
        // Corrupted packets serialize (occupying the link) but are
        // discarded at arrival, counted as drops on the same link.
        let mut sim = Simulation::new(24);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            let (ab, ba) = b.link(a, c, LinkSpec::new(10e6, SimDuration::from_millis(2)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            net.set_link_corruption(ab, 200);
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move { tx.send(c, 7, 1, 50_000, Payload::empty()).await }
            });
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, 50_000);
            sender.await.unwrap();
            let ab_stats = net.link_stats(ab);
            assert!(ab_stats.drops > 0, "corruption must discard packets");
            // Every corrupted packet was transmitted before being
            // dropped, so tx_packets strictly exceeds what arrived.
            assert!(ab_stats.tx_packets > 0);
            let stats = net.stats();
            assert_eq!(
                ab_stats.drops + net.link_stats(ba).drops,
                stats.packet_drops
            );
            assert_eq!(stats.messages_delivered, 1);
        });
        sim.run_to_completion();
    }

    #[test]
    fn reordering_is_survived_by_go_back_n() {
        // Out-of-order arrivals make the receiver discard and re-ack;
        // the cumulative-ack protocol must still deliver in order.
        let mut sim = Simulation::new(25);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            let (ab, _ba) = b.link(a, c, LinkSpec::new(10e6, SimDuration::from_millis(2)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            net.set_link_reordering(ab, 300);
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move {
                    for i in 0..5u32 {
                        tx.send(c, 7, 1, 25_000, Payload::new(i)).await.unwrap();
                    }
                }
            });
            for i in 0..5u32 {
                let msg = rx.recv().await.unwrap();
                assert_eq!(*msg.payload.downcast_ref::<u32>().unwrap(), i);
            }
            sender.await;
            assert_eq!(net.stats().messages_delivered, 5);
        });
        sim.run_to_completion();
    }

    #[test]
    fn partition_isolates_and_heals() {
        // A partition cuts the router path between two sides; sends from
        // the cut-off host stall until the partition heals.
        use mgrid_faults::FaultKind;
        let mut sim = Simulation::new(26);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let r = b.router("r");
            let c = b.host("c");
            b.link(a, r, LinkSpec::new(100e6, SimDuration::from_micros(50)));
            b.link(r, c, LinkSpec::new(100e6, SimDuration::from_micros(50)));
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            net.apply_fault(&FaultKind::Partition {
                side_a: vec!["a".into(), "r".into()],
                side_b: vec!["c".into()],
            });
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move { tx.send(c, 7, 1, 1000, Payload::empty()).await }
            });
            mgrid_desim::sleep(SimDuration::from_millis(500)).await;
            assert_eq!(
                net.stats().messages_delivered,
                0,
                "nothing may cross the partition"
            );
            net.apply_fault(&FaultKind::HealPartition {
                side_a: vec!["a".into(), "r".into()],
                side_b: vec!["c".into()],
            });
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, 1000);
            sender.await.unwrap();
        });
        sim.run_to_completion();
    }

    #[test]
    fn rtt_blend_is_overflow_safe_on_huge_delays() {
        // A day of one-way delay: the old u64 7x blend multiply would be
        // fine, but the 4x RTO derivation overflowed SimDuration math for
        // pathological virtual WANs. The clamped u128 path must neither
        // panic nor wedge, and the RTO cap keeps retransmission alive.
        let mut sim = Simulation::new(27);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            b.link(a, c, LinkSpec::new(1e9, SimDuration::from_secs(86_400)));
            let params = NetParams {
                max_rto: SimDuration::from_secs(200_000),
                ..NetParams::default()
            };
            let net = Network::new(b.build(), VirtualClock::identity(), params);
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            let sender = spawn({
                let tx = tx.clone();
                async move { tx.send(c, 7, 1, 500, Payload::empty()).await }
            });
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, 500);
            sender.await.unwrap();
        });
        sim.run_to_completion();
    }

    #[test]
    fn loopback_send_works() {
        let mut sim = Simulation::new(9);
        sim.spawn(async {
            let (net, a, _) = lan();
            let rx = net.endpoint(a).bind(3);
            net.endpoint(a)
                .send(a, 3, 1, 5000, Payload::new("self"))
                .await
                .unwrap();
            let msg = rx.recv().await.unwrap();
            assert_eq!(msg.size_bytes, 5000);
            assert_eq!(msg.src, a);
        });
        sim.run_to_completion();
    }
}
