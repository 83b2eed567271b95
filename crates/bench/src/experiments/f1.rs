//! F1 — the comparative study of energy models ("this paper has laid
//! the theoretical foundations for a comparative study of energy
//! models"): energy of each model normalized to the Continuous
//! optimum, as the deadline loosens.
//!
//! Expected shape: Vdd-Hopping tracks Continuous closely at every
//! tightness (mixing emulates any average speed in `[s_1, s_m]`);
//! Discrete/Incremental pay a discretization premium near
//! `D ≈ D_min`. At very loose deadlines a second effect appears: all
//! bounded-speed models saturate at the slowest mode `s_1` while the
//! Continuous model keeps slowing down, so the ratios rise again —
//! the premium is U-shaped in the deadline (floor effect).

use super::{cont_energy, Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use models::IncrementalModes;
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{discrete, vdd};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&["D/Dmin", "Vdd/Cont", "Disc/Cont", "Incr/Cont", "instances"]);
    let modes = spread_modes(5, 0.5, 3.0);
    let inc = IncrementalModes::new(0.5, 3.0, 0.625).unwrap();
    let seeds: Vec<u64> = (0..8).collect();
    let mut ordering_ok = true;
    let mut vdd_worst = 1.0f64;

    for &tight in &[1.05, 1.2, 1.5, 2.0, 3.0, 4.0] {
        let mut r_vdd = Vec::new();
        let mut r_disc = Vec::new();
        let mut r_inc = Vec::new();
        for &seed in &seeds {
            let g = random_execution_graph(4, 3, 2, 800 + seed); // 12 tasks
            let d = tight * dmin(&g, modes.s_max());
            let e_cont = cont_energy(&g, d, Some(modes.s_max()));
            let prep = PreparedGraph::new(&g);
            let bnb = BnbConfig::default();
            let e_vdd = vdd::solve_lp_prepared(&prep, d, &modes, P)
                .unwrap()
                .energy(&g, P);
            let e_disc = discrete::exact(&prep, d, &modes, P, &bnb).unwrap().energy;
            let e_inc = discrete::exact(&prep, d, &inc.to_discrete(), P, &bnb)
                .unwrap()
                .energy;
            ordering_ok &= e_cont <= e_vdd * (1.0 + 1e-6) && e_vdd <= e_disc * (1.0 + 1e-6);
            r_vdd.push(e_vdd / e_cont);
            r_disc.push(e_disc / e_cont);
            r_inc.push(e_inc / e_cont);
        }
        let gv = report::geo_mean(&r_vdd);
        let gd = report::geo_mean(&r_disc);
        let gi = report::geo_mean(&r_inc);
        vdd_worst = vdd_worst.max(gv);
        table.row(&[
            format!("{tight:.2}"),
            format!("{gv:.4}"),
            format!("{gd:.4}"),
            format!("{gi:.4}"),
            seeds.len().to_string(),
        ]);
    }
    let pass = ordering_ok;
    Outcome {
        size: 12,
        metrics: vec![],
        id: "F1",
        claim: "Cont ≤ Vdd ≤ Disc at every deadline; discretization premium near D_min; speed-floor premium at loose D (U-shape)",
        table,
        verdict: format!(
            "{}: ordering holds on every instance; worst geo-mean Vdd/Cont = {vdd_worst:.3} — Vdd smooths the modes as the conclusion claims",
            if pass { "PASS" } else { "FAIL" }
        ),
    }
}
