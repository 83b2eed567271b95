//! # report — tables, CSV, and summary statistics
//!
//! Small presentation substrate used by the experiment binaries: an
//! ASCII [`Table`] renderer, CSV output, and the summary statistics
//! ([`stats`]) the experiment tables report (mean, geometric mean,
//! max ratios).

pub mod spark;
pub mod stats;
pub mod table;

pub use spark::{sparkline, sparkline_scaled};
pub use stats::{geo_mean, max, mean, Summary};
pub use table::Table;
