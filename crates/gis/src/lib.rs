//! # mgrid-gis — a Grid Information Service for MicroGrid-rs
//!
//! A from-scratch stand-in for the Globus MDS/GIS (LDAP) that the
//! MicroGrid virtualizes (paper §2.2.2): DN-addressed records in a
//! directory information tree, LDAP-style search filters with scopes
//! (built with constructors: there is no string syntax and no network
//! server), and the paper's virtual-resource record extensions (Fig 3) —
//! extension by addition, so virtualized entries stay subtype-compatible
//! with existing queries and live in the same directory as physical
//! records.

#![warn(missing_docs)]

pub mod directory;
pub mod dn;
pub mod filter;
pub mod record;
pub mod virtualization;

pub use directory::{DirError, Directory, Scope};
pub use dn::{Dn, DnParseError, Rdn};
pub use filter::Filter;
pub use record::Record;
