//! Packets: the unit of traffic in the online network simulator.

use std::any::Any;
use std::sync::Arc;

use crate::topology::NodeId;

/// Unique identifier of a reliable transfer (one message in flight).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// Opaque application payload carried by the final data packet of a
/// transfer (zero-copy: the simulator moves a reference, not bytes).
///
/// Payloads are `Arc`-backed, so a clone is just a refcount bump.
#[derive(Clone)]
pub struct Payload(pub Arc<dyn Any + Send + Sync>);

impl Payload {
    /// Wrap a value.
    pub fn new<T: Any + Send + Sync>(value: T) -> Self {
        Payload(Arc::new(value))
    }

    /// An empty payload (pure byte-count traffic).
    pub fn empty() -> Self {
        Payload(Arc::new(()))
    }

    /// Downcast to the concrete payload type, sharing ownership.
    ///
    /// The type check runs *before* the `Arc` is cloned, so a mismatch
    /// costs no refcount traffic. For read-only access prefer
    /// [`Payload::downcast_ref`], which never touches the refcount.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        if self.0.is::<T>() {
            Arc::clone(&self.0).downcast::<T>().ok()
        } else {
            None
        }
    }

    /// Borrow the concrete payload without cloning the `Arc`.
    ///
    /// This is the allocation- and refcount-free path for per-packet
    /// inspection on the hot receive path.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload(..)")
    }
}

/// What a packet is.
#[derive(Clone, Debug)]
pub enum PacketKind {
    /// A data segment of a reliable transfer.
    Data {
        /// Transfer this segment belongs to.
        transfer: TransferId,
        /// Segment index, 0-based.
        seq: u32,
        /// Total number of segments in the transfer.
        total: u32,
        /// Total message bytes (payload size at the application level).
        message_bytes: u64,
        /// Destination port of the message.
        port: u16,
        /// Source port of the message.
        src_port: u16,
        /// Application payload; present only on the last segment.
        payload: Option<Payload>,
    },
    /// Cumulative acknowledgment of a reliable transfer.
    Ack {
        /// Transfer being acknowledged.
        transfer: TransferId,
        /// Next segment the receiver expects (all below are received).
        next_expected: u32,
    },
}

/// A packet traversing the simulated network.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// On-wire size in bytes, including protocol headers.
    pub wire_bytes: u64,
    /// Semantic content.
    pub kind: PacketKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_downcast_roundtrip() {
        let p = Payload::new(vec![1u32, 2, 3]);
        let v = p.downcast::<Vec<u32>>().unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
        assert!(p.downcast::<String>().is_none());
    }

    #[test]
    fn payload_downcast_ref_is_refcount_free() {
        let p = Payload::new(String::from("zero-copy"));
        let before = Arc::strong_count(&p.0);
        assert_eq!(p.downcast_ref::<String>().unwrap(), "zero-copy");
        assert!(p.downcast_ref::<Vec<u8>>().is_none());
        assert_eq!(Arc::strong_count(&p.0), before);
    }

    #[test]
    fn payload_clone_shares() {
        let p = Payload::new(String::from("shared"));
        let q = p.clone();
        assert!(Arc::ptr_eq(
            &p.downcast::<String>().unwrap(),
            &q.downcast::<String>().unwrap()
        ));
    }

    #[test]
    fn packets_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Packet>();
        assert_send::<Payload>();
    }
}
