//! The online network simulator: links with FIFO queues, store-and-forward
//! routing, and live delivery of application traffic.
//!
//! Mirrors the role VINT/NSE plays in the MicroGrid (§2.4.2): the
//! simulator is attached to the virtual communication infrastructure and
//! "mediates all communication … delivering the communications to each
//! destination according to the network topology at the expected time."
//!
//! Every directed link has a bounded drop-tail byte queue and a pump task:
//! serialization occupies the link for `wire_bytes * 8 / bandwidth`, then
//! propagation is pipelined. All durations are *virtual network time*,
//! converted to engine (physical) time through the network's
//! [`VirtualClock`] — this is what lets the same network run under any
//! emulation rate (Fig 15).

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use mgrid_desim::channel::{channel, Receiver, Sender};
use mgrid_desim::sync::Notify;
use mgrid_desim::time::{SimDuration, SimTime};
use mgrid_desim::vclock::VirtualClock;
use mgrid_desim::{
    fork_rng, now, obs, sleep_until, spawn_daemon, Counter, Event, FxHashMap, HistogramHandle,
    SimRng,
};
use mgrid_faults::FaultKind;

use crate::packet::{Packet, PacketKind, Payload, TransferId};
use crate::topology::{LinkId, LinkSpec, NodeId, NodeKind, Topology};

/// Wire size of an acknowledgment packet.
pub const ACK_WIRE_BYTES: u64 = 64;

/// Latency of a loopback delivery (same-host messaging).
pub const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(15);

/// The settable part of the transport: its retransmission-timeout range.
/// Segment sizes, window and RTO floor are constants of
/// [`crate::transport`]; ack size and loopback latency are
/// [`ACK_WIRE_BYTES`] and [`LOOPBACK_DELAY`].
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Retransmission timeout before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Upper bound on the retransmission timeout: exponential backoff
    /// doubles the RTO no further than this, and RTT-blend updates are
    /// clamped to it (so one pathological sample can't park a transfer).
    pub max_rto: SimDuration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            initial_rto: SimDuration::from_millis(300),
            max_rto: SimDuration::from_secs(5),
        }
    }
}

/// Counters of one directed link. Drops are counted once, network-wide,
/// in the `net.drops` metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets transmitted.
    pub tx_packets: u64,
}

/// Global counters of the network.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Go-back-N retransmission rounds across all transfers.
    pub retransmit_rounds: u64,
}

/// A message delivered to a host inbox.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending host.
    pub src: NodeId,
    /// Sender's port.
    pub src_port: u16,
    /// Application bytes.
    pub size_bytes: u64,
    /// Application payload.
    pub payload: Payload,
}

/// Errors surfaced by the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// No route exists from source to destination.
    Unreachable,
    /// The network was torn down mid-operation.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Unreachable => write!(f, "destination unreachable"),
            NetError::Closed => write!(f, "network closed"),
        }
    }
}

impl std::error::Error for NetError {}

/// Injected impairments of one directed link, driven by a [`FaultPlan`]
/// through [`Network::apply_fault`] (or set directly in tests): outage
/// and seeded probabilistic loss.
///
/// [`FaultPlan`]: mgrid_faults::FaultPlan
#[derive(Default)]
struct LinkFault {
    /// Link outage: every offered packet is dropped.
    down: bool,
    /// Probability (thousandths) of dropping each offered packet.
    loss_per_mille: u32,
    /// Per-link stream forked from the simulation RNG the first time loss
    /// is configured, so loss rolls on one link never perturb another
    /// link's stream.
    rng: Option<SimRng>,
}

impl LinkFault {
    /// Decide whether the next offered packet is discarded before
    /// queueing: the link is down, or the loss roll (true with
    /// probability `loss_per_mille / 1000`; no draw at 0) comes up.
    fn drops_offered(&mut self) -> bool {
        if self.down {
            return true;
        }
        if self.loss_per_mille == 0 {
            return false;
        }
        let rng = self.rng.as_mut().expect("set_link_loss forks the stream");
        rng.below(1000) < u64::from(self.loss_per_mille)
    }
}

struct LinkState {
    queue: RefCell<VecDeque<Packet>>,
    queued_bytes: Cell<u64>,
    notify: Notify,
    /// Serialized packets in propagation, with their arrival deadlines.
    ///
    /// A link's propagation delay is constant, so arrivals are FIFO: one
    /// delivery daemon per link drains this queue in order instead of
    /// spawning a task per in-flight packet.
    inflight: RefCell<VecDeque<(SimTime, Packet)>>,
    arrived: Notify,
    stats: RefCell<LinkStats>,
    fault: RefCell<LinkFault>,
}

/// Pre-resolved metric handles: the engine touches these once per packet,
/// so the per-call name lookup in the registry's `BTreeMap` is hoisted to
/// network construction.
pub(crate) struct NetMetrics {
    packets_tx: Counter,
    bytes_tx: Counter,
    drops: Counter,
    queue_depth: HistogramHandle,
    /// Transfers that entered a retransmission stall (first timeout with
    /// no ack progress).
    pub(crate) stalls: Counter,
    /// Time from a stall's first timeout until ack progress resumed.
    pub(crate) recovery_latency_ns: HistogramHandle,
}

/// One link's physical serialization times, memoised.
///
/// The time is a pure function of the packet's wire size (the link and the
/// clock rate are fixed for the run). A directed link carries runs of
/// MTU-sized segments and ack-sized packets, so the two most recent sizes
/// answer nearly every packet without the float divisions of
/// `to_physical(tx_time(..))`: 95–99 % of lookups on the six benchmark
/// workloads. Two entries, not one, because one-packet messages share a
/// link with the acks of the reverse flow: there the older entry answers
/// about half of all lookups (8 % under bulk traffic).
struct LinkTimes {
    spec: LinkSpec,
    /// `(wire_bytes, physical tx time)`, most recent first.
    tx: [Option<(u64, SimDuration)>; 2],
}

impl LinkTimes {
    fn new(spec: LinkSpec) -> Self {
        LinkTimes {
            spec,
            tx: [None; 2],
        }
    }

    /// `clock.to_physical(spec.tx_time(wire_bytes))`; `clock` is the
    /// network's, the same on every call.
    fn tx(&mut self, clock: &VirtualClock, wire_bytes: u64) -> SimDuration {
        match self.tx {
            [Some((b, d)), _] if b == wire_bytes => d,
            [_, Some((b, d))] if b == wire_bytes => {
                self.tx.swap(0, 1);
                d
            }
            _ => {
                let d = clock.to_physical(self.spec.tx_time(wire_bytes));
                self.tx = [Some((wire_bytes, d)), self.tx[0]];
                d
            }
        }
    }
}

/// The set of delivered transfers, as a bitmap: `TransferId`s are handed
/// out densely by `NetInner::next_transfer`, so a bit per id stays small
/// (329 k messages fit in 40 KB) and the per-data-packet test is a shift,
/// not a hash.
#[derive(Default)]
struct CompletedSet {
    words: Vec<u64>,
}

impl CompletedSet {
    fn contains(&self, id: TransferId) -> bool {
        self.words
            .get((id.0 / 64) as usize)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    }

    fn insert(&mut self, id: TransferId) {
        let word = (id.0 / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id.0 % 64);
    }
}

struct RxTransfer {
    expected: u32,
    total: u32,
    message_bytes: u64,
    src: NodeId,
    src_port: u16,
    port: u16,
    payload: Option<Payload>,
}

pub(crate) struct NetInner {
    pub(crate) topo: Topology,
    pub(crate) params: NetParams,
    clock: VirtualClock,
    links: Vec<LinkState>,
    /// Port bindings per node (indexed by `NodeId`). Ports per host are
    /// few, so a linear scan beats hashing a `(NodeId, u16)` key on every
    /// delivered packet.
    inboxes: RefCell<PortMap>,
    rx_transfers: RefCell<FxHashMap<TransferId, RxTransfer>>,
    completed: RefCell<CompletedSet>,
    pub(crate) ack_waiters: RefCell<FxHashMap<TransferId, Sender<u32>>>,
    pub(crate) next_transfer: Cell<u64>,
    pub(crate) stats: RefCell<NetworkStats>,
    /// Same-host messages awaiting their loopback latency, network-wide
    /// (the delay is one constant, so arrivals are FIFO).
    loopback: RefCell<VecDeque<(SimTime, Packet)>>,
    loopback_arrived: Notify,
    pub(crate) m: NetMetrics,
    /// Interned `"<size>B to <node>"` details of `net_send` spans, by
    /// destination and size — filled by traced sends only. Transfers
    /// repeat few sizes per peer, so a span shares its detail instead
    /// of formatting a fresh one.
    pub(crate) send_details: RefCell<FxHashMap<(NodeId, u64), mgrid_desim::SpanStr>>,
    /// Interned `(track, lane)` attributes of `net_send` spans per
    /// sending node, filled by its first traced send. Kept here and not
    /// on [`Endpoint`]: endpoints are cloned into a task per message, and
    /// a cell that travels with the clone is empty every time.
    pub(crate) send_attrs: Vec<OnceCell<(mgrid_desim::SpanStr, mgrid_desim::SpanStr)>>,
}

/// The simulated network. Must be created inside a running simulation (its
/// link pump daemons are spawned at construction).
#[derive(Clone)]
pub struct Network {
    pub(crate) inner: Rc<NetInner>,
}

impl Network {
    /// Bring up a network over `topo`, with all time conversions going
    /// through `clock` (use [`VirtualClock::identity`] for a physical-time
    /// network).
    pub fn new(topo: Topology, clock: VirtualClock, params: NetParams) -> Self {
        // Link buffers start empty and grow with the traffic a link
        // actually carries: most links of a wide grid see a handful of
        // packets, and a busy one reaches its steady size within a window.
        let links = topo
            .links
            .iter()
            .map(|_| LinkState {
                queue: RefCell::new(VecDeque::new()),
                queued_bytes: Cell::new(0),
                notify: Notify::new(),
                inflight: RefCell::new(VecDeque::new()),
                arrived: Notify::new(),
                stats: RefCell::new(LinkStats::default()),
                fault: RefCell::new(LinkFault::default()),
            })
            .collect();
        let node_count = topo.node_count();
        let net = Network {
            inner: Rc::new(NetInner {
                topo,
                params,
                clock,
                links,
                inboxes: RefCell::new((0..node_count).map(|_| Vec::new()).collect()),
                rx_transfers: RefCell::new(FxHashMap::default()),
                completed: RefCell::new(CompletedSet::default()),
                ack_waiters: RefCell::new(FxHashMap::default()),
                next_transfer: Cell::new(0),
                stats: RefCell::new(NetworkStats::default()),
                loopback: RefCell::new(VecDeque::new()),
                loopback_arrived: Notify::new(),
                send_details: RefCell::new(FxHashMap::default()),
                send_attrs: (0..node_count).map(|_| OnceCell::new()).collect(),
                m: NetMetrics {
                    packets_tx: obs::counter_handle("net.packets_tx"),
                    bytes_tx: obs::counter_handle("net.bytes_tx"),
                    drops: obs::counter_handle("net.drops"),
                    queue_depth: obs::histogram_handle(
                        "net.queue_depth_bytes",
                        mgrid_desim::metrics::SIZE_BOUNDS_BYTES,
                    ),
                    stalls: obs::counter_handle("net.stalls"),
                    recovery_latency_ns: obs::histogram_handle(
                        "net.recovery_latency_ns",
                        mgrid_desim::metrics::TIME_BOUNDS_NS,
                    ),
                },
            }),
        };
        for lid in 0..net.inner.topo.links.len() {
            spawn_daemon(net.clone().pump(LinkId(lid)));
            spawn_daemon(net.clone().delivery_pump(LinkId(lid)));
        }
        spawn_daemon(net.clone().loopback_pump());
        net
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topo
    }

    /// The network's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Counters of one directed link.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.inner.links[id.0].stats.borrow().clone()
    }

    /// Global counters.
    pub fn stats(&self) -> NetworkStats {
        self.inner.stats.borrow().clone()
    }

    /// Obtain the NIC endpoint of a host node.
    ///
    /// # Panics
    /// Panics if `node` is a router.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        assert_eq!(
            self.inner.topo.node_kind(node),
            NodeKind::Host,
            "endpoint on non-host {:?}",
            node
        );
        Endpoint {
            net: self.clone(),
            node,
        }
    }

    /// Take a directed link down (`true`) or bring it back up (`false`).
    /// While down, every offered packet is dropped (and accounted like a
    /// queue drop); packets already in flight still arrive.
    pub fn set_link_down(&self, lid: LinkId, down: bool) {
        self.inner.links[lid.0].fault.borrow_mut().down = down;
    }

    /// Drop each packet offered to `lid` with probability
    /// `per_mille / 1000` (`0` disables). Rolls draw from a per-link RNG
    /// stream forked from the simulation seed.
    pub fn set_link_loss(&self, lid: LinkId, per_mille: u32) {
        assert!(per_mille <= 1000, "loss per_mille {per_mille} > 1000");
        let mut f = self.inner.links[lid.0].fault.borrow_mut();
        if per_mille > 0 && f.rng.is_none() {
            f.rng = Some(fork_rng());
        }
        f.loss_per_mille = per_mille;
    }

    /// Apply one scripted fault to this network. Link faults resolve
    /// their endpoint names against the topology and configure both
    /// directions of the duplex link; a host crash is not the network's
    /// business and is ignored (the grid applies it to its host models).
    /// Names that don't resolve are ignored — plans are validated against
    /// the grid configuration upstream.
    pub fn apply_fault(&self, kind: &FaultKind) {
        match kind {
            FaultKind::LinkDown { a, b } => self.set_named_link(a, b, |n, l| {
                n.set_link_down(l, true);
            }),
            FaultKind::LinkUp { a, b } => self.set_named_link(a, b, |n, l| {
                n.set_link_down(l, false);
            }),
            FaultKind::LinkLoss { a, b, per_mille } => self.set_named_link(a, b, |n, l| {
                n.set_link_loss(l, *per_mille);
            }),
            FaultKind::HostCrash { .. } => {}
        }
    }

    fn set_named_link(&self, a: &str, b: &str, f: impl Fn(&Network, LinkId)) {
        let topo = &self.inner.topo;
        if let (Some(na), Some(nb)) = (topo.node_by_name(a), topo.node_by_name(b)) {
            for lid in topo.links_between(na, nb) {
                f(self, lid);
            }
        }
    }

    /// Enqueue a packet on a directed link, dropping it if the queue is
    /// full.
    fn enqueue(&self, lid: LinkId, pkt: Packet) {
        let link = &self.inner.links[lid.0];
        let faulted = link.fault.borrow_mut().drops_offered();
        let cap = self.inner.topo.links[lid.0].spec.queue_bytes;
        let queued = link.queued_bytes.get();
        if faulted || queued + pkt.wire_bytes > cap {
            self.inner.m.drops.add(1);
            obs::emit(|| Event::PacketDrop {
                link: lid.0,
                bytes: pkt.wire_bytes,
            });
            return;
        }
        let depth = queued + pkt.wire_bytes;
        link.queued_bytes.set(depth);
        self.inner.m.queue_depth.observe(depth);
        obs::emit(|| Event::PacketEnqueue {
            link: lid.0,
            bytes: pkt.wire_bytes,
            queued_bytes: depth,
        });
        link.queue.borrow_mut().push_back(pkt);
        link.notify.notify_one();
    }

    /// Inject a packet at `node`, routing it toward its destination.
    pub(crate) fn send_from(&self, node: NodeId, pkt: Packet) {
        if node == pkt.dst {
            // Loopback: skip the wire, keep a small stack latency. The
            // delay is one constant, so the network-wide FIFO drained by
            // `loopback_pump` preserves arrival order without a task per
            // message.
            let d = self.inner.clock.to_physical(LOOPBACK_DELAY);
            self.inner.loopback.borrow_mut().push_back((now() + d, pkt));
            self.inner.loopback_arrived.notify_one();
            return;
        }
        match self.inner.topo.next_hop(node, pkt.dst) {
            Some(lid) => self.enqueue(lid, pkt),
            None => {
                // Unroutable mid-flight (should be prevented at send time).
                self.inner.m.drops.add(1);
            }
        }
    }

    /// One link's transmit loop: serialize, then hand the packet to the
    /// link's delivery daemon with its propagation deadline.
    async fn pump(self, lid: LinkId) {
        let spec = &self.inner.topo.links[lid.0].spec;
        let prop = self.inner.clock.to_physical(spec.delay);
        let mut times = LinkTimes::new(spec.clone());
        loop {
            let pkt = {
                let link = &self.inner.links[lid.0];
                let pkt = link.queue.borrow_mut().pop_front();
                match pkt {
                    Some(p) => {
                        link.queued_bytes
                            .set(link.queued_bytes.get() - p.wire_bytes);
                        p
                    }
                    None => {
                        link.notify.notified().await;
                        continue;
                    }
                }
            };
            mgrid_desim::sleep(times.tx(&self.inner.clock, pkt.wire_bytes)).await;
            let link = &self.inner.links[lid.0];
            link.stats.borrow_mut().tx_packets += 1;
            self.inner.m.packets_tx.add(1);
            self.inner.m.bytes_tx.add(pkt.wire_bytes);
            obs::emit(|| Event::PacketDequeue {
                link: lid.0,
                bytes: pkt.wire_bytes,
            });
            link.inflight.borrow_mut().push_back((now() + prop, pkt));
            link.arrived.notify_one();
        }
    }

    /// One link's receive loop: packets arrive in serialization order
    /// because the propagation delay is constant, so a single daemon
    /// sleeping until each deadline replaces a spawned task per packet.
    async fn delivery_pump(self, lid: LinkId) {
        let to_node = self.inner.topo.links[lid.0].to;
        loop {
            let next = self.inner.links[lid.0].inflight.borrow_mut().pop_front();
            match next {
                Some((at, pkt)) => {
                    sleep_until(at).await;
                    self.deliver(to_node, pkt);
                }
                None => self.inner.links[lid.0].arrived.notified().await,
            }
        }
    }

    /// Same-host deliveries, in send order after the loopback latency.
    async fn loopback_pump(self) {
        loop {
            let next = self.inner.loopback.borrow_mut().pop_front();
            match next {
                Some((at, pkt)) => {
                    sleep_until(at).await;
                    self.handle_rx(pkt);
                }
                None => self.inner.loopback_arrived.notified().await,
            }
        }
    }

    /// A packet arrives at `node`: deliver locally or forward.
    fn deliver(&self, node: NodeId, pkt: Packet) {
        if node == pkt.dst {
            self.handle_rx(pkt);
        } else {
            self.send_from(node, pkt);
        }
    }

    /// Terminal packet handling at the destination host.
    fn handle_rx(&self, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data {
                transfer,
                seq,
                total,
                message_bytes,
                port,
                src_port,
                payload,
            } => {
                let next_expected = if self.inner.completed.borrow().contains(transfer) {
                    // A retransmit after completion (its final ack was
                    // lost): re-ack without re-delivering.
                    total
                } else {
                    let mut transfers = self.inner.rx_transfers.borrow_mut();
                    let rx = transfers.entry(transfer).or_insert_with(|| RxTransfer {
                        expected: 0,
                        total,
                        message_bytes,
                        src: pkt.src,
                        src_port,
                        port,
                        payload: None,
                    });
                    if seq == rx.expected {
                        rx.expected += 1;
                        if let Some(p) = payload {
                            rx.payload = Some(p);
                        }
                        if rx.expected == rx.total {
                            let rx = transfers.remove(&transfer).expect("present");
                            drop(transfers);
                            self.inner.completed.borrow_mut().insert(transfer);
                            self.complete_message(pkt.dst, rx);
                            total
                        } else {
                            rx.expected
                        }
                    } else {
                        // Out-of-order segment: discard (go-back-N) and
                        // re-ack the unchanged expectation.
                        rx.expected
                    }
                };
                let ack = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    wire_bytes: ACK_WIRE_BYTES,
                    kind: PacketKind::Ack {
                        transfer,
                        next_expected,
                    },
                };
                self.send_from(ack.src, ack);
            }
            PacketKind::Ack {
                transfer,
                next_expected,
            } => {
                let waiters = self.inner.ack_waiters.borrow();
                if let Some(tx) = waiters.get(&transfer) {
                    let _ = tx.send_now(next_expected);
                }
            }
        }
    }

    /// Hand a completed message to its port's inbox; a message for an
    /// unbound port is discarded.
    fn complete_message(&self, dst: NodeId, rx: RxTransfer) {
        let inboxes = self.inner.inboxes.borrow();
        if let Some(tx) = lookup_inbox(&inboxes, dst, rx.port) {
            let _ = tx.send_now(Message {
                src: rx.src,
                src_port: rx.src_port,
                size_bytes: rx.message_bytes,
                payload: rx.payload.unwrap_or_else(Payload::empty),
            });
        }
    }

    pub(crate) fn bind(&self, node: NodeId, port: u16) -> Receiver<Message> {
        let (tx, rx) = channel();
        let mut inboxes = self.inner.inboxes.borrow_mut();
        let ports = &mut inboxes[node.0];
        assert!(
            !ports.iter().any(|(p, _)| *p == port),
            "port {port} already bound on {:?}",
            self.inner.topo.node_name(node)
        );
        ports.push((port, tx));
        rx
    }

    pub(crate) fn unbind(&self, node: NodeId, port: u16) {
        self.inner.inboxes.borrow_mut()[node.0].retain(|(p, _)| *p != port);
    }
}

/// Port bindings of every node: `inboxes[node.0]` lists the node's bound
/// `(port, sender)` pairs.
type PortMap = Vec<Vec<(u16, Sender<Message>)>>;

/// Find the inbox bound to `(node, port)`, if any.
fn lookup_inbox(inboxes: &PortMap, node: NodeId, port: u16) -> Option<&Sender<Message>> {
    inboxes[node.0]
        .iter()
        .find(|(p, _)| *p == port)
        .map(|(_, tx)| tx)
}

/// A host's NIC: bind ports and send traffic. Created by
/// [`Network::endpoint`].
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) net: Network,
    pub(crate) node: NodeId,
}

impl Endpoint {
    /// The host this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The network this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Bind a port, returning its inbox. The port is released when the
    /// inbox is dropped.
    ///
    /// # Panics
    /// Panics if the port is already bound on this host.
    pub fn bind(&self, port: u16) -> Inbox {
        let rx = self.net.bind(self.node, port);
        Inbox {
            net: self.net.clone(),
            node: self.node,
            port,
            rx,
        }
    }
}

/// A bound port's receive queue.
pub struct Inbox {
    net: Network,
    node: NodeId,
    port: u16,
    rx: Receiver<Message>,
}

impl Inbox {
    /// Receive the next message, parking until one arrives.
    pub async fn recv(&self) -> Result<Message, NetError> {
        self.rx.recv().await.map_err(|_| NetError::Closed)
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        self.net.unbind(self.node, self.port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::transport::HEADER_BYTES;
    use mgrid_desim::Simulation;
    use proptest::prelude::*;

    #[test]
    fn completed_set_tests_and_sets_single_bits() {
        let mut set = CompletedSet::default();
        assert!(!set.contains(TransferId(0)));
        assert!(!set.contains(TransferId(1 << 40)));
        for id in [0, 63, 64, 1000] {
            set.insert(TransferId(id));
        }
        for id in 0..1100 {
            assert_eq!(
                set.contains(TransferId(id)),
                [0, 63, 64, 1000].contains(&id),
                "id {id}"
            );
        }
        assert_eq!(set.words.len(), 1000 / 64 + 1);
    }

    #[test]
    fn completed_table_stays_a_bit_per_transfer() {
        const TRANSFERS: u64 = 10_000;
        let mut sim = Simulation::new(31);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let a = b.host("a");
            let c = b.host("c");
            b.link(a, c, LinkSpec::fast_ethernet());
            let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
            let rx = net.endpoint(c).bind(7);
            let tx = net.endpoint(a);
            for _ in 0..TRANSFERS {
                tx.send(c, 7, 1, 100, Payload::empty()).await.unwrap();
                rx.recv().await.unwrap();
            }
            let completed = net.inner.completed.borrow();
            assert!(completed.contains(TransferId(TRANSFERS - 1)));
            assert!(!completed.contains(TransferId(TRANSFERS)));
            let table_bytes = completed.words.len() * std::mem::size_of::<u64>();
            assert!(table_bytes < 2048, "{table_bytes} bytes");
            assert!(net.inner.rx_transfers.borrow().is_empty());
        });
        sim.run_to_completion();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every time the memo hands the pump equals the direct expression,
        /// over streams that repeat a few sizes (hits) and mix in fresh
        /// ones (misses, evictions).
        #[test]
        fn link_times_equal_the_direct_computation(
            bandwidth_bps in 1e5f64..2e9,
            rate in 0.01f64..8.0,
            stream in prop::collection::vec((0usize..6, 1u64..9000), 1..300),
        ) {
            let spec = LinkSpec::new(bandwidth_bps, SimDuration::ZERO);
            let clock = VirtualClock::new(rate);
            let mut times = LinkTimes::new(spec.clone());
            let palette = [1518, 64, 158, 1518, 64];
            for (pick, fresh) in stream {
                let wire_bytes = palette.get(pick).copied().unwrap_or(fresh);
                prop_assert_eq!(
                    times.tx(&clock, wire_bytes),
                    clock.to_physical(spec.tx_time(wire_bytes))
                );
            }
        }

        /// Single-segment transfers queued on one link arrive exactly when
        /// the unmemoised expressions say.
        #[test]
        fn memoised_pump_matches_unmemoised_arrival_times(
            bandwidth_bps in 1e6f64..1e9,
            delay_us in 1u64..5_000,
            rate in 0.05f64..4.0,
            sizes in prop::collection::vec((0usize..4, 1u64..1460), 40..80),
        ) {
            let spec = LinkSpec::new(bandwidth_bps, SimDuration::from_micros(delay_us));
            // An RTO longer than the run: no retransmit joins the queue,
            // so the data link carries exactly the first copies.
            let hour = SimDuration::from_secs(3600);
            let params = NetParams {
                initial_rto: hour,
                max_rto: hour,
            };
            let clock = VirtualClock::new(rate);
            let wires: Vec<u64> = sizes
                .iter()
                .map(|&(pick, fresh)| [1460, 6, 100].get(pick).copied().unwrap_or(fresh))
                .map(|size| size + HEADER_BYTES)
                .collect();

            // Oracle: the pump's loop with the direct expressions.
            let mut expected = Vec::new();
            let mut t = SimTime::ZERO;
            for &w in &wires {
                t += clock.to_physical(spec.tx_time(w));
                expected.push(t + clock.to_physical(spec.delay));
            }

            let mut sim = Simulation::new(5);
            let n = wires.len();
            let arrivals = sim.block_on(async move {
                let mut b = TopologyBuilder::new();
                let a = b.host("a");
                let c = b.host("c");
                b.link(a, c, spec);
                let net = Network::new(b.build(), clock, params.clone());
                let rx = net.endpoint(c).bind(9);
                for &w in &wires {
                    let tx = net.endpoint(a);
                    let size = w - HEADER_BYTES;
                    mgrid_desim::spawn(async move {
                        tx.send(c, 9, 1, size, Payload::empty()).await.unwrap();
                    });
                }
                let mut arrivals = Vec::new();
                for _ in 0..n {
                    rx.recv().await.unwrap();
                    arrivals.push(now());
                }
                arrivals
            });
            prop_assert_eq!(arrivals, expected);
        }
    }
}
