//! # mgrid-hostsim — compute-resource simulation for MicroGrid-rs
//!
//! Models the paper's computing-resource layer (§2.4.1 and §3.2):
//!
//! * [`kernel`] — a Linux-2.2-style epoch-credit time-sharing OS scheduler
//!   on one physical CPU, the substrate whose policy produces the Fig 6/7
//!   competition effects.
//! * [`scheduler`] — the MicroGrid CPU scheduler daemon (Fig 4 algorithm):
//!   SIGCONT/SIGSTOP quanta, wall-time accounting, round-robin rotation.
//! * [`memory`] — per-virtual-host memory caps with the ~1 KB per-process
//!   overhead measured in Fig 5.
//! * [`competitors`] — the CPU-hog and IO-flush interference loads of the
//!   processor microbenchmarks.
//! * [`host`] — physical hosts, virtual hosts (managed or direct), and
//!   Grid processes with `compute`/memory APIs.
//! * [`spec`] — serde-serializable host specifications.

#![warn(missing_docs)]

pub mod competitors;
pub mod host;
pub mod kernel;
pub mod memory;
pub mod scheduler;
pub mod spec;

pub use host::{GridProcess, PhysicalHost, VirtualHost};
pub use kernel::{OsKernel, OsParams, Pid, ProcessHandle};
pub use memory::{MemoryHandle, MemoryManager, OutOfMemory};
pub use scheduler::{JobId, MGridScheduler, SchedulerParams};
pub use spec::{PhysicalHostSpec, VirtualHostSpec};
