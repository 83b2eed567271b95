//! T2 — Theorem 2: trees and series–parallel graphs solve exactly in
//! polynomial time (equivalent-weight composition), agreeing with the
//! numerical solver and scaling polynomially in `n`.

use super::{gp_speeds, time_it, Outcome, P};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::continuous;
use report::Table;
use taskgraph::{generators, SpTree};

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "family",
        "n",
        "t-exact(us)",
        "E-exact",
        "E-numerical",
        "rel-diff",
    ]);
    let mut rng = StdRng::seed_from_u64(202);
    let mut worst = 0.0f64;
    let mut times: Vec<(usize, f64)> = Vec::new();

    for &n in &[10usize, 30, 100, 300, 1000, 3000] {
        // Random out-tree.
        let tree = generators::random_out_tree(n, 1.0, 5.0, &mut rng);
        let d = taskgraph::analysis::critical_path_weight(&tree) * 0.8;
        let (speeds, t_exact) = time_it(|| continuous::solve_tree(&tree, d, P).unwrap());
        let e_exact = continuous::energy_of_speeds(&tree, &speeds, P);
        times.push((n, t_exact));
        // Cross-check with the barrier solver on small sizes only
        // (dense Newton is O(n³)).
        let (e_num_str, rel) = if n <= 100 {
            let numer = gp_speeds(&tree, d, None, None, P);
            let e_numer = continuous::energy_of_speeds(&tree, &numer, P);
            let rel = (e_exact - e_numer).abs() / e_exact;
            worst = worst.max(rel);
            (format!("{e_numer:.6}"), format!("{rel:.2e}"))
        } else {
            ("-".into(), "-".into())
        };
        table.row(&[
            "tree".into(),
            n.to_string(),
            format!("{:.0}", t_exact * 1e6),
            format!("{e_exact:.6}"),
            e_num_str,
            rel,
        ]);

        // Random series–parallel graph (decomposition known by
        // construction; recognition is also exercised for small n).
        let (sp, decomp) = generators::random_sp(n, 0.55, 1.0, 5.0, &mut rng);
        let d = taskgraph::analysis::critical_path_weight(&sp) * 0.8;
        let (speeds, t_exact) = time_it(|| continuous::solve_sp(&sp, &decomp, d, P).unwrap());
        let e_exact = continuous::energy_of_speeds(&sp, &speeds, P);
        if n <= 100 {
            // Recognition must rediscover a decomposition with the
            // same optimal energy.
            let rec = SpTree::from_graph(&sp).expect("generated SP graph");
            let speeds2 = continuous::solve_sp(&sp, &rec, d, P).unwrap();
            let e2 = continuous::energy_of_speeds(&sp, &speeds2, P);
            worst = worst.max((e_exact - e2).abs() / e_exact);
        }
        let (e_num_str, rel) = if n <= 100 {
            let numer = gp_speeds(&sp, d, None, None, P);
            let e_numer = continuous::energy_of_speeds(&sp, &numer, P);
            let rel = (e_exact - e_numer).abs() / e_exact;
            worst = worst.max(rel);
            (format!("{e_numer:.6}"), format!("{rel:.2e}"))
        } else {
            ("-".into(), "-".into())
        };
        table.row(&[
            "sp".into(),
            n.to_string(),
            format!("{:.0}", t_exact * 1e6),
            format!("{e_exact:.6}"),
            e_num_str,
            rel,
        ]);
    }

    // Polynomial-scaling check: time should grow ≲ n² (the
    // composition itself is O(n); recognition is not timed here).
    let (n0, t0) = times[0];
    let (n1, t1) = *times.last().unwrap();
    let growth = (t1.max(1e-9) / t0.max(1e-9)).log2() / ((n1 as f64 / n0 as f64).log2());
    let pass = worst < 1e-4 && growth < 3.0;
    Outcome {
        size: 3000,
        metrics: vec![],
        id: "T2",
        claim: "MinEnergy solvable in polynomial time on trees and SP graphs (s_max = ∞)",
        table,
        verdict: format!(
            "{}: worst rel-diff vs numerical = {worst:.2e}; tree-solver time growth exponent ≈ {growth:.2} (poly)",
            if pass { "PASS" } else { "FAIL" }
        ),
    }
}
