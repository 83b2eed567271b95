//! # report — tables, CSV, and summary statistics
//!
//! Small presentation substrate used by the experiment binaries: an
//! ASCII [`Table`] renderer, CSV output, a [`sparkline`], and the two
//! aggregates ([`stats`]) the experiment tables report over energy
//! ratios: the geometric mean and the maximum.

pub mod spark;
pub mod stats;
pub mod table;

pub use spark::sparkline;
pub use stats::{geo_mean, max};
pub use table::Table;
