//! One module per experiment (the crate docs hold the index).
//!
//! Every experiment returns a [`report::Table`] of its measurements
//! plus a one-line verdict comparing the paper's claim with the
//! measurement.

pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod x1;
pub mod x10;
pub mod x11;
pub mod x12;
pub mod x13;
pub mod x2;
pub mod x3;
pub mod x4;
pub mod x5;
pub mod x6;
pub mod x7;
pub mod x8;
pub mod x9;

use models::{EnergyModel, PowerLaw};
use reclaim_core::continuous;
use reclaim_core::engine::content_key;
use reclaim_service::client::Client;
use reclaim_service::daemon::{Daemon, DaemonConfig};
use reclaim_service::proto::{Request, Response, StatsReport};
use reclaim_service::Endpoint;
use std::thread::JoinHandle;
use taskgraph::edit::GraphEdit;
use taskgraph::{PreparedGraph, TaskGraph};

/// The paper's power law, used by every experiment.
pub const P: PowerLaw = PowerLaw::CUBIC;

/// Outcome of one experiment: the data table plus a verdict line.
pub struct Outcome {
    /// Experiment id (`"T1"`, …).
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
    /// The measurements.
    pub table: report::Table,
    /// One-line pass/fail summary of claim vs measurement.
    pub verdict: String,
    /// Task count of the experiment's largest instance — recorded in
    /// the machine-readable `BENCH_<id>.json` perf trail.
    pub size: usize,
    /// Extra machine-readable metrics (`name → value`) for
    /// `BENCH_<id>.json`; most experiments have none.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Render the outcome for the terminal.
    pub fn render(&self) -> String {
        format!(
            "== {} ==\nclaim: {}\n\n{}\nverdict: {}\n",
            self.id,
            self.claim,
            self.table.render(),
            self.verdict
        )
    }
}

/// Continuous-model optimal energy (shape-dispatched solver).
pub fn cont_energy(g: &TaskGraph, d: f64, s_max: Option<f64>) -> f64 {
    let speeds = continuous::solve_dispatched(&PreparedGraph::new(g), d, s_max, P, None)
        .expect("feasible instance");
    continuous::energy_of_speeds(g, &speeds, P)
}

/// Continuous optimum restricted to the box `[s_min, s_max]` — the
/// provable lower bound on any Discrete/Incremental optimum over the
/// same speed range.
pub fn cont_energy_boxed(g: &TaskGraph, d: f64, s_min: f64, s_max: f64) -> f64 {
    let speeds = gp_speeds(g, d, Some(s_min), Some(s_max), P);
    continuous::energy_of_speeds(g, &speeds, P)
}

/// The §2.1 geometric program's speeds from a cold barrier solve on a
/// freshly prepared graph, boxed to `[s_min, s_max]` where given — the
/// numerical cross-check of the closed forms.
pub fn gp_speeds(
    g: &TaskGraph,
    d: f64,
    s_min: Option<f64>,
    s_max: Option<f64>,
    p: PowerLaw,
) -> Vec<f64> {
    let mut cold = continuous::SweepWarm::new();
    continuous::solve_general_warm(&PreparedGraph::new(g), d, s_min, s_max, p, None, &mut cold)
        .expect("feasible instance")
}

/// Wall-clock of a closure, in seconds.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// A deterministic xorshift64 stream from `seed`: each call steps the
/// state and returns it modulo `m`.
pub fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |m| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    }
}

/// The `pct`-th percentile of nanosecond samples, in microseconds (0
/// without samples).
pub fn percentile(samples_ns: &[u64], pct: usize) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let idx = (sorted.len() * pct / 100).min(sorted.len().saturating_sub(1));
    sorted.get(idx).map_or(0.0, |&ns| ns as f64 / 1e3)
}

/// Write an experiment's manifest to `path`, creating its directory
/// first.
pub fn write_manifest(path: &str, text: &str) {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create manifest directory");
    }
    std::fs::write(path, text).expect("write manifest");
}

/// An in-process `reclaimd` on an ephemeral TCP port, for the
/// experiments that drive a live daemon.
pub struct LiveDaemon {
    endpoint: Endpoint,
    thread: JoinHandle<std::io::Result<()>>,
}

impl LiveDaemon {
    /// Bind `cfg` on `127.0.0.1:0` (a store-backed daemon runs its
    /// recovery scan here) and serve it on a thread of its own.
    pub fn start(cfg: DaemonConfig) -> LiveDaemon {
        let daemon = Daemon::bind(DaemonConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..cfg
        })
        .expect("bind ephemeral daemon");
        LiveDaemon {
            endpoint: daemon.endpoint(),
            thread: std::thread::spawn(move || daemon.run()),
        }
    }

    /// A new connection.
    pub fn client(&self) -> Client {
        Client::connect(&self.endpoint).expect("connect to daemon")
    }

    /// The daemon's `stats` counters.
    pub fn stats(&self) -> StatsReport {
        match self
            .client()
            .roundtrip(Request::Stats)
            .expect("stats")
            .response
        {
            Response::Stats(s) => s,
            other => panic!("unexpected response: {other:?}"),
        }
    }

    /// Ask for `shutdown` and wait until the daemon has drained.
    pub fn shutdown(self) {
        match self
            .client()
            .roundtrip(Request::Shutdown)
            .expect("shutdown")
            .response
        {
            Response::Shutdown => {}
            other => panic!("unexpected response: {other:?}"),
        }
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon run");
    }
}

/// Deadline slack factor of the replayed traces' cached solves.
pub const SLACK: f64 = 1.35;
/// Deadline-factor range of the replayed traces' energy curves.
pub const CURVE_LO: f64 = 1.1;
/// See [`CURVE_LO`].
pub const CURVE_HI: f64 = 1.6;

/// What a response must be for the trace entry that asked for it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    Solve,
    Deadlines,
    CurveSampled,
    CurveExact,
    Patch,
    Corpus,
}

/// Whether `resp` is the answer a request of `kind` calls for.
pub fn kind_matches(kind: Kind, resp: &Response) -> bool {
    matches!(
        (kind, resp),
        (Kind::Solve, Response::Solve(_))
            | (Kind::Deadlines, Response::Deadlines(_))
            | (Kind::CurveSampled, Response::Curve(_))
            | (Kind::CurveExact, Response::CurveExact(_))
            | (Kind::Patch, Response::Patch(_))
            | (Kind::Corpus, Response::Corpus(_))
    )
}

/// A `solve` of `g` under `model` at `deadline`.
pub fn solve_request(g: &TaskGraph, model: &EnergyModel, deadline: f64) -> (Kind, Request) {
    let graph = g.clone();
    let model = model.clone();
    (
        Kind::Solve,
        Request::Solve {
            graph,
            model,
            deadline,
        },
    )
}

/// A four-point energy curve of `g` under `model` over
/// [`CURVE_LO`]`..`[`CURVE_HI`], exact or sampled.
pub fn curve_request(g: &TaskGraph, model: &EnergyModel, exact: bool) -> (Kind, Request) {
    let kind = if exact {
        Kind::CurveExact
    } else {
        Kind::CurveSampled
    };
    let request = Request::EnergyCurve {
        graph: g.clone(),
        model: model.clone(),
        points: 4,
        lo: CURVE_LO,
        hi: CURVE_HI,
        exact,
    };
    (kind, request)
}

/// An identity patch of the instance cached for `g` under `model`: set
/// `task`'s weight and set it back. The patched key equals the base
/// key, so the entry is re-inserted in place and the base stays
/// patchable for a whole trace — repeatable, and safe to run
/// concurrently inside a pipeline window — while the full patch path
/// still runs: edit application, instance clone, re-solve, rekey
/// accounting, lineage.
pub fn identity_patch(
    g: &TaskGraph,
    model: &EnergyModel,
    task: usize,
    deadline: f64,
) -> (Kind, Request) {
    let w0 = g.weights()[task];
    let edits = vec![
        GraphEdit::SetWeight {
            task,
            weight: w0 + 1.0,
        },
        GraphEdit::SetWeight { task, weight: w0 },
    ];
    let base = content_key(g, model);
    (
        Kind::Patch,
        Request::Patch {
            base,
            edits,
            deadline,
        },
    )
}

/// An experiment entry point.
type Runner = fn() -> Outcome;

/// The experiment registry: every id with its runner, in canonical
/// order — the single source of truth [`all_ids`] and [`run_one`]
/// derive from.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("t1", t1::run),
    ("t2", t2::run),
    ("t3", t3::run),
    ("t4", t4::run),
    ("t5", t5::run),
    ("t6", t6::run),
    ("t7", t7::run),
    ("f1", f1::run),
    ("f2", f2::run),
    ("f3", f3::run),
    ("f4", f4::run),
    ("x1", x1::run),
    ("x2", x2::run),
    ("x3", x3::run),
    ("x4", x4::run),
    ("x5", x5::run),
    ("x6", x6::run),
    ("x7", x7::run),
    ("x8", x8::run),
    ("x9", x9::run),
    ("x10", x10::run),
    ("x11", x11::run),
    ("x12", x12::run),
    ("x13", x13::run),
];

/// Every experiment id, in canonical order.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

/// Run one experiment by id (case-insensitive), if it exists.
pub fn run_one(id: &str) -> Option<Outcome> {
    let id = id.to_ascii_lowercase();
    EXPERIMENTS
        .iter()
        .find(|&&(known, _)| known == id)
        .map(|&(_, run)| run())
}
