//! T3 — Theorem 3: Vdd-Hopping solves in polynomial time via LP; the
//! LP optimum is sandwiched between the Continuous lower bound and
//! every single-speed (Discrete) assignment, and LP solve time scales
//! polynomially with instance size.

use super::{cont_energy, time_it, Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{discrete, vdd};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "n",
        "m-modes",
        "tightness",
        "E-cont",
        "E-vdd-lp",
        "E-discrete",
        "t-lp(ms)",
        "sandwich",
    ]);
    let mut all_ok = true;
    let mut worst_gap = 0.0f64;

    for &(layers, width) in &[(3usize, 3usize), (4, 3), (5, 4)] {
        for &m in &[2usize, 4, 8] {
            for &tight in &[1.2, 2.0] {
                let g = random_execution_graph(layers, width, 2, 300 + m as u64);
                let modes = spread_modes(m, 0.5, 3.0);
                let d = tight * dmin(&g, modes.s_max());
                let e_cont = cont_energy(&g, d, Some(modes.s_max()));
                let (sched, t_lp) = time_it(|| {
                    vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P).unwrap()
                });
                let e_vdd = sched.energy(&g, P);
                // Discrete upper bound: exact when small, rounding
                // otherwise.
                let prep = PreparedGraph::new(&g);
                let e_disc = if g.n() <= 12 {
                    discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                        .unwrap()
                        .energy
                } else {
                    let sp = discrete::round_up_prepared(&prep, d, &modes, P, None).unwrap();
                    reclaim_core::continuous::energy_of_speeds(&g, &sp, P)
                };
                let ok = e_cont <= e_vdd * (1.0 + 1e-6) && e_vdd <= e_disc * (1.0 + 1e-6);
                all_ok &= ok;
                worst_gap = worst_gap.max(e_vdd / e_cont);
                table.row(&[
                    g.n().to_string(),
                    m.to_string(),
                    format!("{tight:.2}"),
                    format!("{e_cont:.4}"),
                    format!("{e_vdd:.4}"),
                    format!("{e_disc:.4}"),
                    format!("{:.2}", t_lp * 1e3),
                    if ok { "ok".into() } else { "VIOLATED".into() },
                ]);
            }
        }
    }
    Outcome {
        size: 20,
        metrics: vec![],
        id: "T3",
        claim: "Vdd-Hopping solvable in polynomial time via LP; E_cont ≤ E_vdd ≤ E_discrete",
        table,
        verdict: format!(
            "{}: sandwich E_cont ≤ E_vdd ≤ E_disc holds on all instances; worst E_vdd/E_cont = {worst_gap:.3} (→ 1 as m grows)",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
