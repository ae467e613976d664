//! # mgrid-mpi — an MPI-like message-passing library over the virtual Grid
//!
//! The workload substrate of the paper's validation: the NAS Parallel
//! Benchmarks and CACTUS are MPI programs whose library traffic the
//! MicroGrid carries over virtualized sockets. This crate provides the
//! MPI surface those workload models are written against:
//!
//! * eager/rendezvous point-to-point with tag matching and MPI's
//!   non-overtaking delivery order,
//! * collectives (barrier, allreduce, gather, alltoall) built from
//!   binomial trees rooted at rank 0 and dissemination rounds,
//! * a LAM/MPICH-like cost model: per-message software overhead and
//!   per-byte copy cost paid on the (paced) virtual CPU,
//! * [`world::mpirun`] to launch one rank per virtual host.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod proto;
pub mod world;

pub use comm::{Comm, MpiParams};
pub use proto::{MpiData, RecvMsg, Tag};
pub use world::{mpirun, mpirun_resilient};
