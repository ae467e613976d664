//! # mgrid-netsim — NSE-like online network simulation for MicroGrid-rs
//!
//! The paper integrates the real-time VINT/NSE simulator to carry all
//! inter-virtual-host traffic over an arbitrary topology (§2.4.2). This
//! crate provides that role natively:
//!
//! * [`topology`] — hosts, routers, duplex links (bandwidth / propagation
//!   delay / bounded FIFO queue), static shortest-path routing.
//! * [`engine`] — the online simulator: per-link pump tasks serialize and
//!   propagate packets; hosts bind ports and receive assembled messages.
//! * [`transport`] — a reliable go-back-N sliding-window message protocol
//!   (the TCP stand-in), the one way a message crosses the network.
//!
//! All network timing is expressed in virtual network time and converted
//! through a [`mgrid_desim::vclock::VirtualClock`], so one topology
//! definition serves both "physical grid" baselines (identity clock) and
//! rate-scaled MicroGrid runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod packet;
pub mod topology;
pub mod transport;

pub use engine::{Endpoint, Inbox, Message, NetError, NetParams, Network, NetworkStats};
pub use packet::{Packet, PacketKind, Payload, TransferId};
pub use topology::{LinkId, LinkSpec, NodeId, NodeKind, Topology, TopologyBuilder};
