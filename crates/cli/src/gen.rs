//! Instance generation (`reclaim gen`): turn any workload family into
//! an instance file.

use crate::instance::write;
use mapping::{list_schedule, Priority};
use models::{DiscreteModes, EnergyModel, IncrementalModes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::{analysis, generators, workflows, TaskGraph};

/// Options for [`generate`].
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Processors for the list-scheduled mapping (0 = no mapping:
    /// the graph is used as the execution graph directly).
    pub procs: usize,
    /// Deadline as a multiple of the minimum feasible deadline at the
    /// model's top speed.
    pub tightness: f64,
    /// Energy-model spec: `continuous`, `discrete`, `vdd`, or
    /// `incremental`.
    pub model: String,
    /// RNG seed for the random families.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            procs: 2,
            tightness: 1.4,
            model: "continuous".into(),
            seed: 42,
        }
    }
}

/// Build the application graph for a family spec like
/// `fft 3`, `lu 4`, `stencil 5 5`, `chain 8`, `fork 6`, `sp 12`,
/// `layered 4 3`, `ge 8`, `dac 3 2`.
fn family_graph(family: &str, params: &[usize], seed: u64) -> Result<TaskGraph, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = |i: usize, d: usize| params.get(i).copied().unwrap_or(d);
    Ok(match family {
        "fft" => workflows::fft(p(0, 3) as u32),
        "lu" => workflows::lu(p(0, 4)),
        "stencil" => workflows::stencil(p(0, 4), p(1, 4)),
        "ge" => workflows::gaussian_elimination(p(0, 6)),
        "dac" => workflows::divide_and_conquer(p(0, 3) as u32, p(1, 2), 1.0, 4.0),
        "chain" => generators::chain(&generators::random_weights(p(0, 8), 1.0, 5.0, &mut rng)),
        "fork" => {
            let ws = generators::random_weights(p(0, 6), 1.0, 5.0, &mut rng);
            generators::fork(2.0, &ws)
        }
        "tree" => generators::random_out_tree(p(0, 12), 1.0, 5.0, &mut rng),
        "sp" => generators::random_sp(p(0, 12), 0.55, 1.0, 5.0, &mut rng).0,
        "layered" => generators::layered_dag(p(0, 4), p(1, 3), 0.35, 1.0, 5.0, &mut rng),
        other => return Err(format!("unknown family {other:?}")),
    })
}

/// The default mode ladder used for the generated discrete-ish models.
fn default_modes() -> DiscreteModes {
    DiscreteModes::new(&[0.5, 1.125, 1.75, 2.375, 3.0]).expect("static ladder")
}

/// Generate a complete instance file for the family.
pub fn generate(family: &str, params: &[usize], opts: &GenOptions) -> Result<String, String> {
    let app = family_graph(family, params, opts.seed)?;
    let (graph, mapping) = if opts.procs == 0 {
        (app, None)
    } else {
        let m = list_schedule(&app, opts.procs, Priority::BottomLevel);
        let exec = m.execution_graph(&app).map_err(|e| e.to_string())?;
        (exec, Some(m))
    };
    let model = match opts.model.as_str() {
        "continuous" => EnergyModel::continuous(default_modes().s_max()),
        "discrete" => EnergyModel::Discrete(default_modes()),
        "vdd" => EnergyModel::VddHopping(default_modes()),
        "incremental" => {
            EnergyModel::Incremental(IncrementalModes::new(0.5, 3.0, 0.25).expect("static grid"))
        }
        other => return Err(format!("unknown model {other:?}")),
    };
    let s_top = model.top_speed().expect("generated models are bounded");
    let deadline = opts.tightness * analysis::critical_path_weight(&graph) / s_top;
    Ok(write(&graph, mapping.as_ref(), deadline, &model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::parse;

    #[test]
    fn all_families_generate_parseable_instances() {
        for family in [
            "fft", "lu", "stencil", "ge", "dac", "chain", "fork", "tree", "sp", "layered",
        ] {
            for model in ["continuous", "discrete", "vdd", "incremental"] {
                let opts = GenOptions {
                    model: model.into(),
                    ..Default::default()
                };
                let text = generate(family, &[], &opts)
                    .unwrap_or_else(|e| panic!("{family}/{model}: {e}"));
                let inst =
                    parse(&text).unwrap_or_else(|e| panic!("{family}/{model}: reparse: {e}"));
                assert!(inst.graph.n() >= 2, "{family}");
            }
        }
    }

    #[test]
    fn generated_instances_solve() {
        let opts = GenOptions {
            model: "vdd".into(),
            ..Default::default()
        };
        let text = generate("lu", &[3], &opts).unwrap();
        let inst = parse(&text).unwrap();
        let sol = reclaim_core::solve(
            &inst.graph,
            inst.deadline,
            &inst.model,
            models::PowerLaw::CUBIC,
        )
        .unwrap();
        assert!(sol.energy > 0.0);
    }

    #[test]
    fn zero_procs_means_no_mapping() {
        let opts = GenOptions {
            procs: 0,
            ..Default::default()
        };
        let text = generate("stencil", &[3, 3], &opts).unwrap();
        let inst = parse(&text).unwrap();
        assert!(inst.mapping.is_none());
    }

    #[test]
    fn unknown_family_and_model_rejected() {
        assert!(generate("bogus", &[], &GenOptions::default()).is_err());
        let opts = GenOptions {
            model: "bogus".into(),
            ..Default::default()
        };
        assert!(generate("chain", &[], &opts).is_err());
    }
}
