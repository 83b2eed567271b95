//! F3 — energy by graph family: the model ordering and the
//! discretization premium across chains, forks, trees, SP graphs and
//! general layered DAGs (each family exercising a different exact
//! algorithm from the paper).

use super::{cont_energy, Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{discrete, vdd};
use report::Table;
use taskgraph::{generators, PreparedGraph, TaskGraph};

fn family(name: &str, seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "chain" => generators::chain(&generators::random_weights(12, 1.0, 5.0, &mut rng)),
        "fork" => {
            let ws = generators::random_weights(11, 1.0, 5.0, &mut rng);
            generators::fork(2.0, &ws)
        }
        "tree" => generators::random_out_tree(12, 1.0, 5.0, &mut rng),
        "sp" => generators::random_sp(12, 0.55, 1.0, 5.0, &mut rng).0,
        "layered" => random_execution_graph(4, 3, 2, seed),
        other => panic!("unknown family {other}"),
    }
}

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&["family", "algorithm", "Vdd/Cont", "Disc/Cont", "ordering"]);
    let modes = spread_modes(5, 0.5, 3.0);
    let mut all_ok = true;

    for name in ["chain", "fork", "tree", "sp", "layered"] {
        let mut r_vdd = Vec::new();
        let mut r_disc = Vec::new();
        for seed in 0..6u64 {
            let g = family(name, 1000 + seed);
            let d = 1.5 * dmin(&g, modes.s_max());
            let e_cont = cont_energy(&g, d, Some(modes.s_max()));
            let prep = PreparedGraph::new(&g);
            let e_vdd = vdd::solve_lp_prepared(&prep, d, &modes, P)
                .unwrap()
                .energy(&g, P);
            let e_disc = discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                .unwrap()
                .energy;
            r_vdd.push(e_vdd / e_cont);
            r_disc.push(e_disc / e_cont);
        }
        let gv = report::geo_mean(&r_vdd);
        let gd = report::geo_mean(&r_disc);
        let ok = gv <= gd * (1.0 + 1e-6) && gv >= 1.0 - 1e-6;
        all_ok &= ok;
        let alg = match name {
            "chain" => "constant speed",
            "fork" => "Theorem 1 closed form",
            "tree" | "sp" => "Theorem 2 composition",
            _ => "geometric program",
        };
        table.row(&[
            name.into(),
            alg.into(),
            format!("{gv:.4}"),
            format!("{gd:.4}"),
            if ok { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "F3",
        claim: "the model ordering and premiums are structural, not an artifact of one graph family",
        table,
        verdict: format!(
            "{}: Cont ≤ Vdd ≤ Disc on every family; each family solved by its dedicated exact algorithm",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
