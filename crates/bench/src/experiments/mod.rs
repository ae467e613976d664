//! One regenerator per paper table/figure. Each returns a
//! [`microgrid::Report`] whose rows/series mirror what the paper plots.

pub mod apps;
pub mod chaos;
pub mod micro;
pub mod network;
pub mod npb;
pub mod scale;
