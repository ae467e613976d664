//! # mgrid-middleware — Globus-like middleware for MicroGrid-rs
//!
//! The virtualization layer of the paper's §2.2: the mapping table from
//! virtual identities to physical resources, the intercepted library
//! surface (hostname, time, sockets), and the Globus-style job-submission
//! path (gatekeeper → jobmanager → processes) that crosses from the
//! physical domain into the virtual Grid.
//!
//! * [`vip`] — virtual IP addresses.
//! * [`hosttable`] — the virtual→physical mapping table, the one registry
//!   of virtual hosts.
//! * [`process`] — [`ProcessCtx`], the mediated execution surface
//!   applications see (virtual `gethostname`/`gettimeofday`, compute,
//!   memory).
//! * [`vsocket`] — the fully virtualized socket interface.
//! * [`gatekeeper`] — RSL job specs, gatekeeper and jobmanager daemons,
//!   client-side submission.
//!
//! The information service is not served from here: `microgrid::VirtualGrid`
//! publishes the virtual-resource records straight into an in-process
//! `mgrid_gis::Directory`, and callers search that.

#![warn(missing_docs)]

pub mod gatekeeper;
pub mod hosttable;
pub mod process;
pub mod vip;
pub mod vsocket;

pub use gatekeeper::{
    submit_job, AppFactory, AppFuture, AppInstance, ExecutableRegistry, Gatekeeper, JobSpec,
    JobStatus, GATEKEEPER_PORT,
};
pub use hosttable::{HostEntry, HostTable};
pub use process::ProcessCtx;
pub use vip::VirtIp;
pub use vsocket::{SockError, VMessage, VSender, VSocket};
