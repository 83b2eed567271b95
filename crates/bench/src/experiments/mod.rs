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

use models::PowerLaw;
use reclaim_core::continuous;
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
