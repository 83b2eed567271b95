//! The sharded corpus front-end.
//!
//! `reclaim corpus <dir> --shards N` partitions every `.inst` file in
//! a directory across `N` engine shards and solves each shard on its
//! own thread. Following the deterministic-partitioning discipline of
//! parallel B&B frameworks (Bobpp: identical job streams must yield
//! identical work distribution and identical output), the shard of a
//! job is a **pure function of its content**:
//!
//! ```text
//! shard(job) = content_key(graph, model) mod N
//! ```
//!
//! — not of enumeration order, thread timing, or path. Two runs over
//! the same corpus therefore produce *byte-identical* shard manifests
//! (`corpus_shard_<k>.json`: the assignment plus every energy), while
//! wall-clock lands separately in `BENCH_corpus_<k>.json` so the perf
//! trail can track throughput without breaking determinism.
//!
//! This module is parser-agnostic: callers (the CLI) hand it parsed
//! [`CorpusJob`]s, so the crate does not depend on the instance
//! format.

use models::{EnergyModel, PowerLaw};
use reclaim_core::engine::content_key;
use reclaim_core::{Engine, Solution, SolveError};
use std::path::{Path, PathBuf};
use taskgraph::TaskGraph;

use crate::json::Json;
use crate::proto::ErrorBody;

/// One corpus entry: a named, parsed instance. Also the job unit of
/// the protocol-v4 `corpus` request ([`crate::proto::Request::Corpus`]),
/// where the daemon runs the same sharded loop through its
/// content-addressed cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusJob {
    /// Display name (file name relative to the corpus root).
    pub name: String,
    /// The execution graph.
    pub graph: taskgraph::TaskGraph,
    /// The energy model.
    pub model: EnergyModel,
    /// The deadline `D`.
    pub deadline: f64,
}

/// The solved result of one corpus entry, as it lands in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Display name.
    pub name: String,
    /// Content key (shard assignment derives from this).
    pub key: u128,
    /// Task count.
    pub tasks: usize,
    /// The deadline.
    pub deadline: f64,
    /// Model name (owned so entries can cross the wire in a v4
    /// `corpus` response).
    pub model: String,
    /// Energy + algorithm, or the structured error.
    pub result: Result<(f64, String), ErrorBody>,
}

/// One shard's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// This shard's index (`0..shards`).
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// Solved entries, sorted by name.
    pub entries: Vec<CorpusEntry>,
    /// Wall-clock of this shard's solve loop, in nanoseconds
    /// (non-deterministic; kept out of the manifest).
    pub elapsed_ns: u128,
}

impl ShardOutcome {
    /// Number of successfully solved entries.
    pub fn solved(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_ok()).count()
    }

    /// Task count of the shard's largest instance (0 when empty).
    pub fn max_tasks(&self) -> usize {
        self.entries.iter().map(|e| e.tasks).max().unwrap_or(0)
    }

    /// Sum of task counts across the shard.
    pub fn total_tasks(&self) -> usize {
        self.entries.iter().map(|e| e.tasks).sum()
    }

    /// The deterministic shard manifest (see the module docs).
    pub fn manifest_json(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut pairs = vec![
                    ("file".into(), Json::str(e.name.clone())),
                    ("key".into(), Json::str(format!("{:032x}", e.key))),
                    ("tasks".into(), Json::num(e.tasks as f64)),
                    ("deadline".into(), Json::num(e.deadline)),
                    ("model".into(), Json::str(e.model.clone())),
                ];
                match &e.result {
                    Ok((energy, algorithm)) => {
                        pairs.push(("energy".into(), Json::num(*energy)));
                        pairs.push(("algorithm".into(), Json::str(algorithm.clone())));
                    }
                    Err(err) => pairs.push((
                        "error".into(),
                        Json::Obj(vec![
                            ("kind".into(), Json::str(format!("{:?}", err.kind))),
                            ("message".into(), Json::str(err.message.clone())),
                        ]),
                    )),
                }
                Json::Obj(pairs)
            })
            .collect();
        let doc = Json::Obj(vec![
            ("shard".into(), Json::num(self.shard as f64)),
            ("shards".into(), Json::num(self.shards as f64)),
            ("files".into(), Json::num(self.entries.len() as f64)),
            ("entries".into(), Json::Arr(entries)),
        ]);
        let mut s = doc.encode();
        s.push('\n');
        s
    }

    /// The `BENCH_corpus_<k>.json` record, matching the experiment
    /// harness schema (`experiment` / `mean_ns` / `instance_size` /
    /// `metrics`).
    pub fn bench_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"corpus_{}\",\n  \"mean_ns\": {},\n  \"instance_size\": {},\n  \"metrics\": {{\"files\": {}, \"solved\": {}, \"errors\": {}, \"total_tasks\": {}}}\n}}\n",
            self.shard,
            self.elapsed_ns,
            self.max_tasks(),
            self.entries.len(),
            self.solved(),
            self.entries.len() - self.solved(),
            self.total_tasks(),
        )
    }
}

/// The most shards one corpus run may split into, locally or over the
/// wire: far above any real split, and small enough that the shard
/// buckets — and [`run_corpus`]'s one thread per shard — stay cheap.
/// A larger count is rejected before anything is allocated or
/// spawned.
pub const MAX_SHARDS: usize = 1024;

/// Partition `jobs` into `shards` buckets of `(content key, job)`,
/// entries sorted by name within a bucket — the one assignment both
/// [`run_corpus`] and the daemon's v4 `corpus` request use, so their
/// manifests match by construction. One hash per job: the key that
/// picks the shard is the key the manifest records. A shard count
/// past [`MAX_SHARDS`] is an error.
pub(crate) fn partition(
    jobs: Vec<CorpusJob>,
    shards: usize,
) -> Result<Vec<Vec<(u128, CorpusJob)>>, String> {
    if shards > MAX_SHARDS {
        return Err(format!(
            "corpus takes at most {MAX_SHARDS} shards, got {shards}"
        ));
    }
    let mut buckets: Vec<Vec<(u128, CorpusJob)>> = (0..shards).map(|_| Vec::new()).collect();
    for job in jobs {
        let key = content_key(&job.graph, &job.model);
        buckets[(key % shards as u128) as usize].push((key, job));
    }
    for bucket in &mut buckets {
        bucket.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    }
    Ok(buckets)
}

/// Solve one bucket of [`partition`] in order, `solve` answering each
/// job from its content key, graph, model and deadline, and assemble
/// the shard's outcome with the loop's wall-clock.
pub(crate) fn run_shard(
    shard: usize,
    shards: usize,
    bucket: Vec<(u128, CorpusJob)>,
    mut solve: impl FnMut(u128, TaskGraph, &EnergyModel, f64) -> Result<Solution, SolveError>,
) -> ShardOutcome {
    let start = std::time::Instant::now();
    let entries = bucket
        .into_iter()
        .map(|(key, job)| {
            let CorpusJob {
                name,
                graph,
                model,
                deadline,
            } = job;
            let tasks = graph.n();
            let result = solve(key, graph, &model, deadline)
                .map(|sol| (sol.energy, sol.algorithm.to_string()))
                .map_err(|e| ErrorBody::from(&e));
            CorpusEntry {
                name,
                key,
                tasks,
                deadline,
                model: model.name().to_string(),
                result,
            }
        })
        .collect();
    ShardOutcome {
        shard,
        shards,
        entries,
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

/// Partition `jobs` across `shards` engine shards and solve each shard
/// on its own (single-engine-threaded) worker. Every shard appears in
/// the output, including empty ones, in shard order; entries within a
/// shard are sorted by name. A shard count past [`MAX_SHARDS`] is an
/// error, reported before any thread starts.
pub fn run_corpus(
    jobs: Vec<CorpusJob>,
    shards: usize,
    power: PowerLaw,
) -> Result<Vec<ShardOutcome>, String> {
    let shards = shards.max(1);
    let buckets = partition(jobs, shards)?;
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .map(|(shard, bucket)| {
                s.spawn(move || {
                    let engine = Engine::new(power).threads(1);
                    run_shard(shard, shards, bucket, |_, graph, model, deadline| {
                        engine.solve_graph(&graph, model, deadline)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("corpus shard worker panicked"))
            .collect()
    }))
}

/// Write every shard's manifest and BENCH record into `dir`, creating
/// it if needed. Returns the written paths.
pub fn write_outputs(dir: &Path, outcomes: &[ShardOutcome]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for o in outcomes {
        let manifest = dir.join(format!("corpus_shard_{}.json", o.shard));
        std::fs::write(&manifest, o.manifest_json())?;
        written.push(manifest);
        let bench = dir.join(format!("BENCH_corpus_{}.json", o.shard));
        std::fs::write(&bench, o.bench_json())?;
        written.push(bench);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::generators;

    fn jobs() -> Vec<CorpusJob> {
        (0..6)
            .map(|i| CorpusJob {
                name: format!("inst_{i}.inst"),
                graph: generators::chain(&[1.0 + i as f64, 2.0, 0.5]),
                model: EnergyModel::continuous_unbounded(),
                deadline: 8.0,
            })
            .collect()
    }

    #[test]
    fn sharding_is_content_addressed_not_order_addressed() {
        let names = |jobs: Vec<CorpusJob>| -> Vec<Vec<String>> {
            let buckets = partition(jobs, 4).unwrap();
            buckets
                .into_iter()
                .map(|b| b.into_iter().map(|(_, job)| job.name).collect())
                .collect()
        };
        let mut reversed = jobs();
        reversed.reverse();
        assert_eq!(names(jobs()), names(reversed));
    }

    #[test]
    fn every_shard_is_reported_and_entries_are_solved() {
        let outcomes = run_corpus(jobs(), 4, PowerLaw::CUBIC).unwrap();
        assert_eq!(outcomes.len(), 4);
        let total: usize = outcomes.iter().map(|o| o.entries.len()).sum();
        assert_eq!(total, 6);
        for o in &outcomes {
            assert_eq!(o.shards, 4);
            for e in &o.entries {
                let (energy, _) = e.result.as_ref().expect("feasible corpus");
                assert!(*energy > 0.0);
            }
            // Manifest parses back as JSON and holds every entry.
            let doc = crate::json::parse(o.manifest_json().trim()).unwrap();
            assert_eq!(
                doc.get("files").and_then(crate::json::Json::as_u64),
                Some(o.entries.len() as u64)
            );
            assert!(o.bench_json().contains("\"mean_ns\""));
        }
    }

    #[test]
    fn infeasible_entries_carry_structured_errors() {
        let job = CorpusJob {
            name: "tight.inst".into(),
            graph: generators::chain(&[4.0]),
            model: EnergyModel::continuous(1.0),
            deadline: 1.0, // needs 4 time units at top speed
        };
        let outcomes = run_corpus(vec![job], 1, PowerLaw::CUBIC).unwrap();
        let entry = &outcomes[0].entries[0];
        let err = entry.result.as_ref().unwrap_err();
        assert_eq!(err.kind, crate::proto::ErrorKind::Infeasible);
        assert!(outcomes[0].manifest_json().contains("Infeasible"));
    }
}
