//! Virtual sockets: the intercepted socket library.
//!
//! "We can run any socket-based application on the virtual Grid as the
//! MicroGrid completely virtualizes the socket interface" (paper §2.2.1).
//! Every operation pays the interception overhead on the process's
//! (possibly paced) virtual CPU, resolves names through the mapping table,
//! and moves data only across the simulated virtual network.

use mgrid_desim::{obs, Category, Event, FlowClass};
use mgrid_netsim::{NetError, Payload};

use crate::hosttable::HostEntry;
use crate::process::ProcessCtx;
use crate::vip::VirtIp;

/// Record one outbound vsocket message in the observability layer.
fn note_send(ctx: &ProcessCtx, dst: &HostEntry, bytes: u64) {
    let m = &ctx.table().vsock;
    m.sends.add(1);
    m.bytes_sent.add(bytes);
    obs::emit(|| Event::VsockSend {
        src: ctx.span_attrs().0,
        dst: dst.name.clone(),
        bytes,
    });
}

/// Record one delivered vsocket message in the observability layer.
fn note_recv(ctx: &ProcessCtx, bytes: u64) {
    let m = &ctx.table().vsock;
    m.recvs.add(1);
    m.bytes_recvd.add(bytes);
    obs::emit(|| Event::VsockRecv {
        host: ctx.span_attrs().0,
        bytes,
    });
}

/// One reliable send: the shared body of [`VSender::send_to`] and
/// [`VSocket::send_to`]. Wrapped in a `vsock_send` causal span whose
/// producing flow half-point (`"msg"` class, keyed by the sender host
/// and `dst:port`) pairs with the receiver's [`VSocket::recv`]
/// half-point on the same key, FIFO per key.
async fn send_impl(
    ctx: &ProcessCtx,
    src_port: u16,
    dst: &HostEntry,
    port: u16,
    size_bytes: u64,
    payload: Payload,
) -> Result<(), SockError> {
    let span = obs::span_begin(Category::Vsock, "vsock_send", || {
        let (track, lane) = ctx.span_attrs();
        (track, lane, ctx.table().endpoint_label(dst, port))
    });
    if !span.is_none() {
        let label = ctx.table().endpoint_label(dst, port);
        obs::flow_out(FlowClass::Msg, ctx.gethostname(), &label, span);
    }
    ctx.process().intercept_overhead().await;
    note_send(ctx, dst, size_bytes);
    let res = ctx
        .endpoint()
        .send(dst.node, port, src_port, size_bytes, payload)
        .await
        .map_err(SockError::Net);
    obs::span_end(span);
    res
}

/// Errors of virtual socket operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SockError {
    /// Destination hostname is not a registered virtual host — the virtual
    /// Grid boundary: physical-world names do not resolve.
    UnknownHost(String),
    /// The network reported an error.
    Net(NetError),
    /// The socket (or network) was closed.
    Closed,
    /// A middleware-level deadline expired: an MPI wait on a peer outlived
    /// its configured receive timeout.
    TimedOut,
}

impl std::fmt::Display for SockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SockError::UnknownHost(h) => write!(f, "unknown virtual host: {h}"),
            SockError::Net(e) => write!(f, "network error: {e}"),
            SockError::Closed => write!(f, "socket closed"),
            SockError::TimedOut => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for SockError {}

/// A message received on a virtual socket.
#[derive(Clone)]
pub struct VMessage {
    /// The sending virtual host.
    pub src: HostEntry,
    /// Sender's port.
    pub src_port: u16,
    /// Application bytes.
    pub size_bytes: u64,
    /// Application payload.
    pub payload: Payload,
}

/// A bound virtual socket.
pub struct VSocket {
    ctx: ProcessCtx,
    inbox: mgrid_netsim::Inbox,
    port: u16,
    /// Interned `":port"` span detail and `"host:port"` flow-key
    /// destination, allocated on the first traced receive.
    span_labels: std::cell::OnceCell<(mgrid_desim::SpanStr, mgrid_desim::SpanStr)>,
}

impl ProcessCtx {
    /// The intercepted `bind()`: claim a port on this virtual host.
    ///
    /// # Panics
    /// Panics if the port is already bound on this virtual host.
    pub fn bind(&self, port: u16) -> VSocket {
        let inbox = self.endpoint().bind(port);
        VSocket {
            ctx: self.clone(),
            inbox,
            span_labels: std::cell::OnceCell::new(),
            port,
        }
    }

    /// The mapping-table entry of a *virtual* hostname.
    fn lookup(&self, host: &str) -> Result<HostEntry, SockError> {
        self.table()
            .lookup(host)
            .ok_or_else(|| SockError::UnknownHost(host.to_string()))
    }

    /// The intercepted `gethostbyname()`: resolve a *virtual* hostname.
    pub fn resolve(&self, host: &str) -> Result<VirtIp, SockError> {
        self.lookup(host).map(|e| e.vip())
    }
}

/// The cloneable sending half of a virtual socket (like `dup()` of the fd
/// for writer tasks). Sends carry the originating socket's port.
#[derive(Clone)]
pub struct VSender {
    ctx: ProcessCtx,
    src_port: u16,
}

impl VSender {
    /// Reliably send `size_bytes` (+payload) to `port` on the resolved
    /// host `dst`; otherwise identical to [`VSocket::send_to`].
    pub async fn send_to(
        &self,
        dst: &HostEntry,
        port: u16,
        size_bytes: u64,
        payload: Payload,
    ) -> Result<(), SockError> {
        send_impl(&self.ctx, self.src_port, dst, port, size_bytes, payload).await
    }
}

impl VSocket {
    /// A cloneable sending half bound to this socket's port.
    pub fn sender(&self) -> VSender {
        VSender {
            ctx: self.ctx.clone(),
            src_port: self.port,
        }
    }

    /// Reliably send `size_bytes` (+payload) to `host:port`.
    ///
    /// Resolves the virtual name, pays the interception overhead, and
    /// completes when the message is fully acknowledged.
    pub async fn send_to(
        &self,
        host: &str,
        port: u16,
        size_bytes: u64,
        payload: Payload,
    ) -> Result<(), SockError> {
        let dst = self.ctx.lookup(host)?;
        send_impl(&self.ctx, self.port, &dst, port, size_bytes, payload).await
    }

    /// This socket's `(":port", "host:port")` labels.
    fn span_labels(&self) -> &(mgrid_desim::SpanStr, mgrid_desim::SpanStr) {
        self.span_labels.get_or_init(|| {
            (
                format!(":{}", self.port).into(),
                format!("{}:{}", self.ctx.gethostname(), self.port).into(),
            )
        })
    }

    /// Receive the next message, parking until one arrives.
    ///
    /// The wait is covered by a `vsock_recv` causal span; on delivery
    /// the span consumes the `"msg"` flow half-point published by the
    /// matching send, drawing the cross-host arrow in the Perfetto
    /// export.
    pub async fn recv(&self) -> Result<VMessage, SockError> {
        let span = obs::span_begin(Category::Vsock, "vsock_recv", || {
            let (track, lane) = self.ctx.span_attrs();
            (track, lane, self.span_labels().0.clone())
        });
        let msg = match self.inbox.recv().await {
            Ok(msg) => msg,
            Err(_) => {
                obs::span_end(span);
                return Err(SockError::Closed);
            }
        };
        self.ctx.process().intercept_overhead().await;
        note_recv(&self.ctx, msg.size_bytes);
        let src = self
            .ctx
            .table()
            .lookup_node(msg.src)
            .expect("message from unmapped node");
        if !span.is_none() {
            obs::flow_in(FlowClass::Msg, &src.name, &self.span_labels().1, span);
        }
        obs::span_end(span);
        Ok(VMessage {
            src,
            src_port: msg.src_port,
            size_bytes: msg.size_bytes,
            payload: msg.payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosttable::HostTable;
    use mgrid_desim::vclock::VirtualClock;
    use mgrid_desim::{SimRng, Simulation};
    use mgrid_hostsim::{OsParams, PhysicalHost, PhysicalHostSpec, SchedulerParams};
    use mgrid_netsim::{LinkSpec, NetParams, Network, TopologyBuilder};

    /// Two virtual hosts on two physical hosts, a 100 Mb Ethernet switch
    /// between.
    fn grid() -> (HostTable, Network) {
        let mut b = TopologyBuilder::new();
        let n0 = b.host("vm0.ucsd.edu");
        let n1 = b.host("vm1.ucsd.edu");
        let sw = b.router("switch");
        b.link(n0, sw, LinkSpec::fast_ethernet());
        b.link(n1, sw, LinkSpec::fast_ethernet());
        let net = Network::new(b.build(), VirtualClock::identity(), NetParams::default());
        let table = HostTable::new();
        for (i, (name, node)) in [("vm0.ucsd.edu", n0), ("vm1.ucsd.edu", n1)]
            .into_iter()
            .enumerate()
        {
            let ph = PhysicalHost::new(
                PhysicalHostSpec::new(format!("phys{i}"), 500.0, 1 << 30),
                OsParams::default(),
                SchedulerParams::default(),
                SimRng::new(i as u64 + 1),
            );
            table.register(name, node, ph.as_direct_virtual());
        }
        (table, net)
    }

    #[test]
    fn send_recv_between_virtual_hosts() {
        let mut sim = Simulation::new(1);
        sim.spawn(async {
            let (table, net) = grid();
            let a = ProcessCtx::spawn(&table, &net, "vm0.ucsd.edu", "sender").unwrap();
            let b = ProcessCtx::spawn(&table, &net, "vm1.ucsd.edu", "receiver").unwrap();
            assert_eq!(a.gethostname(), "vm0.ucsd.edu");
            let sock_b = b.bind(7000);
            let sock_a = a.bind(7001);
            mgrid_desim::spawn(async move {
                sock_a
                    .send_to("vm1.ucsd.edu", 7000, 4096, Payload::new("hello"))
                    .await
                    .unwrap();
            });
            let msg = sock_b.recv().await.unwrap();
            assert_eq!(&*msg.src.name, "vm0.ucsd.edu");
            assert_eq!(msg.src_port, 7001);
            assert_eq!(msg.size_bytes, 4096);
            assert_eq!(*msg.payload.downcast::<&str>().unwrap(), "hello");
        });
        sim.run_until(mgrid_desim::SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn unknown_host_is_rejected() {
        let mut sim = Simulation::new(2);
        sim.spawn(async {
            let (table, net) = grid();
            let a = ProcessCtx::spawn(&table, &net, "vm0.ucsd.edu", "p").unwrap();
            let sock = a.bind(1);
            // A physical-world name must not resolve inside the virtual Grid.
            let err = sock
                .send_to("real-host.example.com", 1, 10, Payload::empty())
                .await
                .unwrap_err();
            assert!(matches!(err, SockError::UnknownHost(_)));
            // Nor does a router of the virtual network, or the physical
            // host a virtual host runs on.
            for name in ["real-host.example.com", "switch", "phys1"] {
                assert_eq!(a.resolve(name), Err(SockError::UnknownHost(name.into())));
            }
            assert_eq!(a.resolve("vm1.ucsd.edu").unwrap().to_string(), "1.0.0.2");
        });
        sim.run_until(mgrid_desim::SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn gettimeofday_returns_virtual_time() {
        let mut sim = Simulation::new(3);
        sim.spawn(async {
            let mut b = TopologyBuilder::new();
            let n0 = b.host("vm0");
            let _n1 = b.host("pad");
            let net = Network::new(b.build(), VirtualClock::new(0.25), NetParams::default());
            let table = HostTable::new();
            let ph = PhysicalHost::new(
                PhysicalHostSpec::new("p", 500.0, 1 << 30),
                OsParams::default(),
                SchedulerParams::default(),
                SimRng::new(7),
            );
            table.register("vm0", n0, ph.as_direct_virtual());
            let ctx = ProcessCtx::spawn(&table, &net, "vm0", "app").unwrap();
            mgrid_desim::sleep(mgrid_desim::SimDuration::from_secs(8)).await;
            // 8 physical seconds at rate 0.25 = 2 virtual seconds.
            assert_eq!(ctx.gettimeofday().as_secs_f64(), 2.0);
        });
        sim.run_until(mgrid_desim::SimTime::from_secs_f64(20.0));
    }
}
