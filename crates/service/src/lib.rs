//! # reclaim-service — `reclaimd` and the sharded corpus front-end
//!
//! Every other entry point in this workspace pays process startup and
//! graph preparation per invocation. This crate turns the prepared-
//! instance [`reclaim_core::Engine`] into a **long-lived system**:
//!
//! * [`daemon`] — `reclaimd`, a socket daemon (Unix-domain by
//!   default, TCP optional) built on a single nonblocking epoll poll
//!   loop (the crate-private `net` module — raw FFI against the
//!   system C library; the workspace vendors no FFI crates) that
//!   owns every socket, applies `--max-inflight`
//!   admission backpressure per connection, and feeds a fixed worker
//!   pool of single-threaded engines over a **content-addressed
//!   cache** of [`taskgraph::PreparedInstance`]s keyed by
//!   [`reclaim_core::engine::content_key`], with LRU eviction under
//!   byte/entry budgets;
//! * [`proto`] — the versioned, length-prefixed JSON-line wire
//!   protocol (v1: `solve` / `solve_deadlines` / `energy_curve` /
//!   `batch` / `stats` / `shutdown`; v2 adds `patch`; v3 exact
//!   curves; v4 adds `corpus` and per-request `timeout_ms`; v5 adds
//!   the `lineage` query and `as_of` time travel over the store's
//!   patch lineage) with structured error mapping from
//!   [`reclaim_core::SolveError`] — the full wire specification lives
//!   in `docs/PROTOCOL.md`;
//! * [`store`] — the disk-backed, content-addressed instance store
//!   behind `--store DIR`: crash-safe checksummed records, a patch
//!   lineage log replayed in O(edits) for `as_of`, and the recovery
//!   scan that lets a restarted daemon answer its old traffic warm;
//! * [`cache`] — the cache itself, usable without the daemon: each
//!   instance is one [`cache::Entry`], the handle its solves, curve
//!   walks, patches and store writes go through, with
//!   **patch-in-place re-keying**: a cached instance can be mutated
//!   by a [`taskgraph::edit::GraphEdit`] batch under selective cache
//!   invalidation, keeping its Vdd warm-start flow across
//!   weight-only edits;
//! * [`client`] — a blocking client (used by `reclaim ask` and the
//!   integration tests), including the v2 [`Client::patch`] call and
//!   the pipelined [`Client::pipeline`] mode (a window of requests in
//!   flight, responses matched by `id` out of order);
//! * [`corpus`] — deterministic sharding of whole instance
//!   directories across engine shards, with byte-identical manifests
//!   and per-shard `BENCH_corpus_<k>.json` perf records;
//! * [`json`] — the in-tree JSON codec both layers ride on (the build
//!   environment is offline; there is no serde).
//!
//! Start a daemon and ask it something:
//!
//! ```no_run
//! use reclaim_service::daemon::{Daemon, DaemonConfig};
//! use reclaim_service::client::Client;
//! use reclaim_service::proto::{Request, Response};
//! use models::EnergyModel;
//! use taskgraph::TaskGraph;
//!
//! let daemon = Daemon::bind(DaemonConfig::default())?;
//! let endpoint = daemon.endpoint();
//! std::thread::spawn(move || daemon.run());
//!
//! let mut client = Client::connect(&endpoint)?;
//! let graph = TaskGraph::new(vec![2.0, 4.0], &[(0, 1)]).unwrap();
//! let reply = client.roundtrip(Request::Solve {
//!     graph,
//!     model: EnergyModel::continuous_unbounded(),
//!     deadline: 3.0,
//! }).unwrap();
//! if let Response::Solve(report) = reply.response {
//!     assert!(!report.cached, "first sight of this content");
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod client;
pub mod corpus;
pub mod daemon;
pub mod json;
pub(crate) mod net;
pub mod proto;
pub mod store;

pub use cache::{CacheConfig, InstanceCache, Prepared};
pub use client::{Client, ClientError, Pipeline};
pub use corpus::{run_corpus, CorpusJob, ShardOutcome};
pub use daemon::{config_from_args, Daemon, DaemonConfig, Endpoint};
pub use proto::{ErrorBody, ErrorKind, Request, RequestEnvelope, Response, ResponseEnvelope};
pub use store::{Store, StoredEntry};
