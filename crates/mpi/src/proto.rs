//! MPI wire protocol: envelopes, tags, and the eager/rendezvous split.

use std::sync::Arc;

use mgrid_netsim::Payload;

/// An application-level tag (like `MPI_TAG`).
pub type Tag = i32;

/// Matches any source rank (like `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Matches any tag (like `MPI_ANY_TAG`).
pub const ANY_TAG: Tag = -2;

/// Data carried by an MPI message. Typed payloads ride along unchanged;
/// the byte count drives the network and copy cost models.
#[derive(Clone, Debug)]
pub struct MpiData {
    /// Logical message size in bytes.
    pub bytes: u64,
    /// The typed payload (may be [`Payload::empty`] for pure-cost traffic).
    pub payload: Payload,
}

impl MpiData {
    /// A message of `bytes` with no payload (cost-only traffic).
    pub fn bytes_only(bytes: u64) -> Self {
        MpiData {
            bytes,
            payload: Payload::empty(),
        }
    }

    /// A typed message; `bytes` is the logical size of `value`.
    pub fn typed<T: Send + Sync + 'static>(bytes: u64, value: T) -> Self {
        MpiData {
            bytes,
            payload: Payload::new(value),
        }
    }

    /// Downcast the payload.
    pub fn downcast<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        self.payload.downcast()
    }
}

/// Protocol messages exchanged between ranks (the payload of virtual-socket
/// messages).
#[derive(Clone, Debug)]
pub enum MpiMsg {
    /// Small message sent eagerly (buffered at the receiver).
    Eager {
        /// Sending rank.
        src: usize,
        /// Per-(src→dst) sequence number enforcing MPI's non-overtaking
        /// order (transfers may complete out of order on the wire).
        seq: u64,
        /// Application tag.
        tag: Tag,
        /// The data.
        data: MpiData,
    },
    /// Rendezvous request-to-send for a large message.
    Rts {
        /// Sending rank.
        src: usize,
        /// Per-(src→dst) sequence number (the RTS is the ordering point).
        seq: u64,
        /// Application tag.
        tag: Tag,
        /// Unique id of this send on the source rank.
        send_id: u64,
        /// Size of the pending data.
        bytes: u64,
    },
    /// Clear-to-send: the receiver has posted a matching receive.
    Cts {
        /// The send being released.
        send_id: u64,
    },
    /// The rendezvous data itself.
    RendezvousData {
        /// Sending rank.
        src: usize,
        /// The send this data belongs to.
        send_id: u64,
        /// The data.
        data: MpiData,
    },
}

/// A matched, received message as seen by the application.
#[derive(Clone, Debug)]
pub struct RecvMsg {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: Tag,
    /// The data.
    pub data: MpiData,
}

/// A receive pattern: which (source, tag) pairs a posted receive accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Source rank, or [`ANY_SOURCE`].
    pub src: i32,
    /// Tag, or [`ANY_TAG`].
    pub tag: Tag,
}

impl Pattern {
    /// Match a specific source and tag.
    pub fn of(src: usize, tag: Tag) -> Self {
        Pattern {
            src: src as i32,
            tag,
        }
    }

    /// True if an envelope from `src` with `tag` satisfies this pattern.
    pub fn accepts(&self, src: usize, tag: Tag) -> bool {
        (self.src == ANY_SOURCE || self.src == src as i32)
            && (self.tag == ANY_TAG || self.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_matching() {
        let p = Pattern::of(2, 7);
        assert!(p.accepts(2, 7));
        assert!(!p.accepts(1, 7));
        assert!(!p.accepts(2, 8));
        let any = Pattern {
            src: ANY_SOURCE,
            tag: ANY_TAG,
        };
        assert!(any.accepts(0, 0));
        assert!(any.accepts(9, -100));
        let any_src = Pattern {
            src: ANY_SOURCE,
            tag: 7,
        };
        assert!(any_src.accepts(3, 7));
        assert!(!any_src.accepts(3, 8));
    }

    #[test]
    fn typed_data_roundtrip() {
        let d = MpiData::typed(24, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(d.bytes, 24);
        assert_eq!(*d.downcast::<Vec<f64>>().unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(d.downcast::<String>().is_none());
    }
}
