//! The Bobpp-style determinism contract of the sharded corpus
//! front-end: two runs over the same job stream — even differently
//! ordered — produce byte-identical shard manifests.

use models::{DiscreteModes, EnergyModel, IncrementalModes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_service::corpus::{run_corpus, write_outputs, CorpusJob};
use std::path::PathBuf;
use taskgraph::generators;

fn corpus_jobs() -> Vec<CorpusJob> {
    let mut rng = StdRng::seed_from_u64(99);
    let models: Vec<EnergyModel> = vec![
        EnergyModel::continuous_unbounded(),
        EnergyModel::continuous(2.5),
        EnergyModel::Discrete(DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap()),
        EnergyModel::VddHopping(DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap()),
        EnergyModel::Incremental(IncrementalModes::new(0.5, 2.5, 0.25).unwrap()),
    ];
    (0..10)
        .map(|i| {
            let g = match i % 3 {
                0 => generators::random_sp(20 + i, 0.5, 1.0, 4.0, &mut rng).0,
                1 => generators::chain(&generators::random_weights(15, 1.0, 4.0, &mut rng)),
                _ => generators::fork_join(
                    1.0,
                    &generators::random_weights(12, 1.0, 4.0, &mut rng),
                    2.0,
                ),
            };
            let deadline = 1.6 * taskgraph::analysis::critical_path_weight(&g)
                / models[i % models.len()].top_speed().unwrap_or(1.0);
            CorpusJob {
                name: format!("job_{i:02}.inst"),
                graph: g,
                model: models[i % models.len()].clone(),
                deadline,
            }
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("reclaim-corpus-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn two_runs_produce_byte_identical_manifests() {
    const SHARDS: usize = 4;
    let p = models::PowerLaw::CUBIC;

    let first = run_corpus(corpus_jobs(), SHARDS, p).unwrap();
    // Second run: same jobs, reversed arrival order — assignment and
    // manifests must not care.
    let mut reversed = corpus_jobs();
    reversed.reverse();
    let second = run_corpus(reversed, SHARDS, p).unwrap();

    let dir_a = temp_dir("a");
    let dir_b = temp_dir("b");
    let written_a = write_outputs(&dir_a, &first).unwrap();
    let written_b = write_outputs(&dir_b, &second).unwrap();
    assert_eq!(written_a.len(), 2 * SHARDS, "manifest + BENCH per shard");
    assert_eq!(written_b.len(), 2 * SHARDS);

    for shard in 0..SHARDS {
        let name = format!("corpus_shard_{shard}.json");
        let a = std::fs::read(dir_a.join(&name)).unwrap();
        let b = std::fs::read(dir_b.join(&name)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "{name} must be byte-identical across runs");
        // BENCH records exist and carry the harness schema; their
        // timing field is allowed to differ run to run.
        let bench =
            std::fs::read_to_string(dir_a.join(format!("BENCH_corpus_{shard}.json"))).unwrap();
        for key in [
            "\"experiment\"",
            "\"mean_ns\"",
            "\"instance_size\"",
            "\"metrics\"",
        ] {
            assert!(bench.contains(key), "BENCH record missing {key}");
        }
    }

    // Every job landed in exactly one shard.
    let placed: usize = first.iter().map(|o| o.entries.len()).sum();
    assert_eq!(placed, 10);

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn shard_count_one_is_a_plain_sequential_run() {
    let outcomes = run_corpus(corpus_jobs(), 1, models::PowerLaw::CUBIC).unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].entries.len(), 10);
    assert!(outcomes[0]
        .entries
        .windows(2)
        .all(|w| w[0].name <= w[1].name));
}
