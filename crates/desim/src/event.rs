//! Typed simulator events.
//!
//! Every instrumented subsystem reports what happened through one closed
//! [`Event`] enum instead of free-form strings, so consumers (tests, the
//! `--trace-out` JSON-lines sink, the metrics summary) can match on
//! structure instead of parsing messages. Each event belongs to a
//! [`Category`], the unit at which traces are filtered and metrics are
//! summarized.

use std::fmt;

use crate::jsonw::{push_escaped, push_u64};
use crate::span::SpanStr;

/// The subsystem an [`Event`] originates from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Category {
    /// MicroGrid CPU scheduler daemon (Fig 4 quantum loop).
    Sched,
    /// Packet network simulator (links, queues, drops).
    Net,
    /// Virtual socket layer (application-visible traffic).
    Vsock,
    /// Virtual host memory manager (allocations and cap denials).
    Mem,
    /// MPI collective operations.
    Mpi,
    /// Scenario-scripted fault injection (link outages, host crashes).
    Fault,
}

impl Category {
    /// All categories, in summary display order.
    pub const ALL: [Category; 6] = [
        Category::Sched,
        Category::Net,
        Category::Vsock,
        Category::Mem,
        Category::Mpi,
        Category::Fault,
    ];

    /// Stable lowercase name used in trace output and metric keys.
    pub const fn name(self) -> &'static str {
        match self {
            Category::Sched => "sched",
            Category::Net => "net",
            Category::Vsock => "vsock",
            Category::Mem => "mem",
            Category::Mpi => "mpi",
            Category::Fault => "fault",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured simulator event.
///
/// Byte and duration fields are plain integers (`u64` nanoseconds for
/// spans) so events serialize compactly and compare exactly in tests.
/// Name fields are shared [`SpanStr`]s: an instrumentation site interns
/// its host and process names once and every event it emits — and every
/// copy the ring hands out — is a reference bump, not a heap string.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The scheduler daemon granted a quantum to a job (Fig 4: SIGCONT).
    QuantumGrant {
        /// Virtual host the scheduler runs on.
        host: SpanStr,
        /// Process name of the granted job.
        job: SpanStr,
    },
    /// The scheduler daemon preempted the running job (Fig 4: SIGSTOP),
    /// charging it the elapsed wall time.
    QuantumPreempt {
        /// Virtual host the scheduler runs on.
        host: SpanStr,
        /// Process name of the preempted job.
        job: SpanStr,
        /// Wall (simulated physical) nanoseconds charged for the quantum.
        wall_ns: u64,
    },
    /// A packet was accepted into a link's FIFO queue.
    PacketEnqueue {
        /// Directed link index.
        link: usize,
        /// Packet size in bytes.
        bytes: u64,
        /// Queue occupancy in bytes after the enqueue.
        queued_bytes: u64,
    },
    /// A packet left a link's queue and began transmission.
    PacketDequeue {
        /// Directed link index.
        link: usize,
        /// Packet size in bytes.
        bytes: u64,
    },
    /// A packet arrived at a full queue and was dropped.
    PacketDrop {
        /// Directed link index.
        link: usize,
        /// Packet size in bytes.
        bytes: u64,
    },
    /// An application sent a datagram through a virtual socket.
    VsockSend {
        /// Sending virtual host.
        src: SpanStr,
        /// Destination virtual host.
        dst: SpanStr,
        /// Payload bytes.
        bytes: u64,
    },
    /// An application received a datagram from a virtual socket.
    VsockRecv {
        /// Receiving virtual host.
        host: SpanStr,
        /// Payload bytes.
        bytes: u64,
    },
    /// A memory allocation succeeded against a host's cap.
    MemAlloc {
        /// Virtual host owning the memory cap.
        host: SpanStr,
        /// Bytes allocated.
        bytes: u64,
        /// Total bytes in use after the allocation.
        in_use: u64,
    },
    /// A memory request exceeded the host cap and was denied (the paper's
    /// Fig 5 boundary).
    MemDeny {
        /// Virtual host owning the memory cap.
        host: SpanStr,
        /// Bytes requested.
        requested: u64,
        /// Bytes already in use.
        in_use: u64,
        /// The configured cap.
        limit: u64,
    },
    /// An MPI collective started on the root/calling rank.
    CollectiveStart {
        /// Operation name (`"barrier"`, `"bcast"`, …).
        op: &'static str,
        /// Communicator size.
        ranks: usize,
    },
    /// An MPI collective completed on the root/calling rank.
    CollectiveEnd {
        /// Operation name (`"barrier"`, `"bcast"`, …).
        op: &'static str,
        /// Communicator size.
        ranks: usize,
        /// Virtual-time nanoseconds the collective took.
        elapsed_ns: u64,
    },
    /// The fault injector fired one scripted fault.
    FaultInjected {
        /// Stable fault-kind name (`"link_down"`, `"host_crash"`, …).
        fault: &'static str,
        /// Target description (link endpoints, host name, or cut).
        target: SpanStr,
    },
    /// An MPI receive or rendezvous wait exceeded its configured timeout,
    /// surfacing a suspected rank failure.
    RankTimeout {
        /// The rank waited on (`u64::MAX` when the receive accepted any
        /// source).
        rank: u64,
        /// Nanoseconds waited before giving up.
        waited_ns: u64,
    },
}

impl Event {
    /// The subsystem this event belongs to.
    pub const fn category(&self) -> Category {
        match self {
            Event::QuantumGrant { .. } | Event::QuantumPreempt { .. } => Category::Sched,
            Event::PacketEnqueue { .. }
            | Event::PacketDequeue { .. }
            | Event::PacketDrop { .. } => Category::Net,
            Event::VsockSend { .. } | Event::VsockRecv { .. } => Category::Vsock,
            Event::MemAlloc { .. } | Event::MemDeny { .. } => Category::Mem,
            Event::CollectiveStart { .. }
            | Event::CollectiveEnd { .. }
            | Event::RankTimeout { .. } => Category::Mpi,
            Event::FaultInjected { .. } => Category::Fault,
        }
    }

    /// Every event kind name, indexed by [`Event::kind_index`].
    pub(crate) const KINDS: [&'static str; 13] = [
        "quantum_grant",
        "quantum_preempt",
        "packet_enqueue",
        "packet_dequeue",
        "packet_drop",
        "vsock_send",
        "vsock_recv",
        "mem_alloc",
        "mem_deny",
        "collective_start",
        "collective_end",
        "fault_injected",
        "rank_timeout",
    ];

    /// Dense index of the event kind into [`Event::KINDS`].
    pub(crate) const fn kind_index(&self) -> usize {
        match self {
            Event::QuantumGrant { .. } => 0,
            Event::QuantumPreempt { .. } => 1,
            Event::PacketEnqueue { .. } => 2,
            Event::PacketDequeue { .. } => 3,
            Event::PacketDrop { .. } => 4,
            Event::VsockSend { .. } => 5,
            Event::VsockRecv { .. } => 6,
            Event::MemAlloc { .. } => 7,
            Event::MemDeny { .. } => 8,
            Event::CollectiveStart { .. } => 9,
            Event::CollectiveEnd { .. } => 10,
            Event::FaultInjected { .. } => 11,
            Event::RankTimeout { .. } => 12,
        }
    }

    /// Stable snake_case name of the event kind (the `"event"` field of
    /// the JSON-lines encoding).
    pub const fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// Encode as one JSON object (no trailing newline) with the shape
    /// `{"t_ns":…,"cat":"…","event":"…",…fields}`.
    ///
    /// Hand-rolled rather than serde-derived so the encoding is identical
    /// under any serde implementation and needs no derive support for
    /// `&'static str` fields.
    pub fn to_json_line(&self, t_ns: u64) -> String {
        let mut out = String::with_capacity(96);
        self.write_json_line(t_ns, &mut out);
        out
    }

    /// Append the [`Event::to_json_line`] encoding to `out` without
    /// allocating (beyond `out`'s own growth): string fields first, then
    /// numeric fields, in declaration order.
    pub(crate) fn write_json_line(&self, t_ns: u64, out: &mut String) {
        fn field_str(out: &mut String, key: &str, val: &str) {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":\"");
            push_escaped(out, val);
            out.push('"');
        }
        fn field_num(out: &mut String, key: &str, val: u64) {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_u64(out, val);
        }
        out.push_str("{\"t_ns\":");
        push_u64(out, t_ns);
        out.push_str(",\"cat\":\"");
        out.push_str(self.category().name());
        out.push_str("\",\"event\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            Event::QuantumGrant { host, job } => {
                field_str(out, "host", host);
                field_str(out, "job", job);
            }
            Event::QuantumPreempt { host, job, wall_ns } => {
                field_str(out, "host", host);
                field_str(out, "job", job);
                field_num(out, "wall_ns", *wall_ns);
            }
            Event::PacketEnqueue {
                link,
                bytes,
                queued_bytes,
            } => {
                field_num(out, "link", *link as u64);
                field_num(out, "bytes", *bytes);
                field_num(out, "queued_bytes", *queued_bytes);
            }
            Event::PacketDequeue { link, bytes } | Event::PacketDrop { link, bytes } => {
                field_num(out, "link", *link as u64);
                field_num(out, "bytes", *bytes);
            }
            Event::VsockSend { src, dst, bytes } => {
                field_str(out, "src", src);
                field_str(out, "dst", dst);
                field_num(out, "bytes", *bytes);
            }
            Event::VsockRecv { host, bytes } => {
                field_str(out, "host", host);
                field_num(out, "bytes", *bytes);
            }
            Event::MemAlloc {
                host,
                bytes,
                in_use,
            } => {
                field_str(out, "host", host);
                field_num(out, "bytes", *bytes);
                field_num(out, "in_use", *in_use);
            }
            Event::MemDeny {
                host,
                requested,
                in_use,
                limit,
            } => {
                field_str(out, "host", host);
                field_num(out, "requested", *requested);
                field_num(out, "in_use", *in_use);
                field_num(out, "limit", *limit);
            }
            Event::CollectiveStart { op, ranks } => {
                field_str(out, "op", op);
                field_num(out, "ranks", *ranks as u64);
            }
            Event::CollectiveEnd {
                op,
                ranks,
                elapsed_ns,
            } => {
                field_str(out, "op", op);
                field_num(out, "ranks", *ranks as u64);
                field_num(out, "elapsed_ns", *elapsed_ns);
            }
            Event::FaultInjected { fault, target } => {
                field_str(out, "fault", fault);
                field_str(out, "target", target);
            }
            Event::RankTimeout { rank, waited_ns } => {
                field_num(out, "rank", *rank);
                field_num(out, "waited_ns", *waited_ns);
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable() {
        assert_eq!(
            Event::QuantumGrant {
                host: "h".into(),
                job: "j".into()
            }
            .category(),
            Category::Sched
        );
        assert_eq!(
            Event::PacketDrop { link: 0, bytes: 1 }.category(),
            Category::Net
        );
        assert_eq!(
            Event::MemDeny {
                host: "h".into(),
                requested: 1,
                in_use: 0,
                limit: 1
            }
            .category(),
            Category::Mem
        );
        assert_eq!(Category::Mpi.name(), "mpi");
    }

    #[test]
    fn json_line_shape() {
        let line = Event::QuantumPreempt {
            host: "alpha0".into(),
            job: "mg.A".into(),
            wall_ns: 10_000_000,
        }
        .to_json_line(42);
        assert_eq!(
            line,
            "{\"t_ns\":42,\"cat\":\"sched\",\"event\":\"quantum_preempt\",\
             \"host\":\"alpha0\",\"job\":\"mg.A\",\"wall_ns\":10000000}"
        );
    }

    #[test]
    fn json_line_escapes_strings() {
        let line = Event::VsockRecv {
            host: "a\"b\\c".into(),
            bytes: 3,
        }
        .to_json_line(0);
        assert!(line.contains("a\\\"b\\\\c"));
    }
}
