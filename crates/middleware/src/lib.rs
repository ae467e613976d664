//! # mgrid-middleware — Globus-like middleware for MicroGrid-rs
//!
//! The virtualization layer of the paper's §2.2: the mapping table from
//! virtual identities to physical resources and the intercepted library
//! surface (hostname, time, sockets) that processes on virtual hosts see.
//!
//! * [`vip`] — virtual IP addresses.
//! * [`hosttable`] — the virtual→physical mapping table, the one registry
//!   of virtual hosts.
//! * [`process`] — [`ProcessCtx`], the mediated execution surface
//!   applications see (virtual `gethostname`/`gettimeofday`, compute,
//!   memory).
//! * [`vsocket`] — the fully virtualized socket interface.
//!
//! Processes enter the virtual Grid one way: `microgrid::VirtualGrid`
//! spawns them (`spawn_process`, and `mpirun` for every rank of a job).
//! The paper's gatekeeper → jobmanager submission path (§2.2.1) is not
//! modelled: a gatekeeper process would share its host's CPU with the
//! ranks and draw from the simulation RNG, so no figure could keep its
//! numbers with it.
//!
//! The information service is not served from here: `microgrid::VirtualGrid`
//! publishes the virtual-resource records straight into an in-process
//! `mgrid_gis::Directory`, and callers search that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hosttable;
pub mod process;
pub mod vip;
pub mod vsocket;

pub use hosttable::{HostEntry, HostTable};
pub use process::ProcessCtx;
pub use vip::VirtIp;
pub use vsocket::{SockError, VMessage, VSender, VSocket};
