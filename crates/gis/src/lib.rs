//! # mgrid-gis — a Grid Information Service for MicroGrid-rs
//!
//! A from-scratch stand-in for the Globus MDS/GIS that the MicroGrid
//! virtualizes (paper §2.2.2), holding what the grid publishes and the
//! quickstart reads: DN-addressed records carrying the paper's
//! virtual-resource extensions (Fig 3), and queries that AND equality
//! tests over every record (built with constructors: there is no string
//! syntax and no network server). The extensions are by addition, so
//! virtualized entries stay subtype-compatible with existing queries and
//! live in the same directory as physical records.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod directory;
pub mod dn;
pub mod filter;
pub mod record;
pub mod virtualization;

pub use directory::Directory;
pub use dn::{Dn, DnParseError, Rdn};
pub use filter::Filter;
pub use record::Record;
