//! T4 — Theorem 4: Discrete (and hence Incremental) is NP-complete.
//!
//! Evidence: the exact branch-and-bound explores a search tree that
//! grows exponentially with `n` on PARTITION-style chains (the
//! hardness gadget of `taskgraph::generators::partition_chain`), both
//! with and without the approximation warm start. A polynomial
//! algorithm would show polynomial node counts here.

use super::{time_it, Outcome, P};
use models::DiscreteModes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim_core::discrete::{self, BnbConfig};
use report::Table;
use taskgraph::{generators, PreparedGraph};

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&["n", "nodes-cold", "nodes-warm", "t-cold(ms)", "growth-cold"]);
    let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
    let mut rng = StdRng::seed_from_u64(404);
    let budget = 30_000_000;
    let mut prev_nodes = None::<f64>;
    let mut growths = Vec::new();

    for &n in &[8usize, 10, 12, 14, 16, 18, 20] {
        // Balanced values with an odd-ish total so no perfect
        // partition exists: the search must prove optimality.
        let values: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(20..40) as f64) + 0.5)
            .collect();
        let (g, d) = generators::partition_chain(&values);
        let prep = PreparedGraph::new(&g);
        let cfg = |warm_start| BnbConfig {
            node_budget: budget,
            warm_start,
            ..Default::default()
        };
        let (cold, t_cold) = time_it(|| discrete::exact(&prep, d, &modes, P, &cfg(false)));
        let (warm, _) = time_it(|| discrete::exact(&prep, d, &modes, P, &cfg(true)));
        let (nodes_cold, nodes_warm) = match (&cold, &warm) {
            (Ok(c), Ok(w)) => (c.stats.nodes as f64, w.stats.nodes as f64),
            _ => (budget as f64, budget as f64),
        };
        let growth = prev_nodes.map(|p| nodes_cold / p);
        if let Some(gr) = growth {
            growths.push(gr);
        }
        prev_nodes = Some(nodes_cold);
        table.row(&[
            n.to_string(),
            format!("{nodes_cold:.0}"),
            format!("{nodes_warm:.0}"),
            format!("{:.2}", t_cold * 1e3),
            growth.map_or("-".into(), |g| format!("x{g:.2}")),
        ]);
    }
    // Exponential growth: node count multiplies by a roughly constant
    // factor per +2 tasks.
    let geo = report::geo_mean(&growths);
    let pass = geo > 1.5;
    Outcome {
        size: 20,
        metrics: vec![],
        id: "T4",
        claim: "Discrete/Incremental MinEnergy is NP-complete (exact search is exponential)",
        table,
        verdict: format!(
            "{}: B&B nodes grow geometrically, mean ×{geo:.2} per +2 tasks on PARTITION chains",
            if pass { "PASS" } else { "FAIL" }
        ),
    }
}
