//! # reclaim-cli — command-line front end
//!
//! Parses a plain-text instance format describing a task graph, an
//! optional fixed mapping, a deadline and an energy model, and drives
//! the `reclaim-core` solvers. See [`parse`] for the format and the
//! `reclaim` binary for the commands.

pub mod edits;
pub mod gen;
pub mod instance;

pub use edits::{parse_edits, EditParseError};
pub use gen::{generate, GenOptions};
pub use instance::{parse, write, Instance, ParseError};
