//! Regenerate every table and figure of the experiment suite.
//!
//! ```text
//! cargo run -p bench --release --bin experiments             # all
//! cargo run -p bench --release --bin experiments -- t3 f1    # subset
//! cargo run -p bench --release --bin experiments -- --csv results/
//! cargo run -p bench --release --bin experiments -- --json perf/
//! ```
//!
//! With `--csv DIR`, each experiment's table is also written to
//! `DIR/<id>.csv`. With `--json DIR`, each experiment additionally
//! emits a machine-readable `DIR/BENCH_<ID>.json` record so the perf
//! trajectory can be tracked across PRs: `experiment`, `mean_ns`
//! (wall-clock of one full experiment run — experiments average over
//! instance ensembles internally, but the figure is a single-shot
//! coarse signal, not a criterion-style repeated mean), and
//! `instance_size`, plus any experiment-specific `metrics` — e.g.
//! `X6` records its naive/engine sweep arms separately, which is the
//! entry to watch for sweep-path regressions.

use bench::experiments;
use bench::experiments::Outcome;

/// Render the `BENCH_<id>.json` record (no serde in-tree; the schema
/// is flat enough to format by hand). `mean_ns` is the single-run
/// wall-clock of the experiment (see the module docs for caveats).
fn bench_json(o: &Outcome, mean_ns: u128) -> String {
    let mut s = format!(
        "{{\n  \"experiment\": \"{}\",\n  \"mean_ns\": {},\n  \"instance_size\": {}",
        o.id, mean_ns, o.size
    );
    if !o.metrics.is_empty() {
        s.push_str(",\n  \"metrics\": {");
        for (k, (name, value)) in o.metrics.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            // Full float precision: gate steps (e.g. `speedup >= 8`
            // for X9) must not be flattered or failed by rounding.
            if value.fract() == 0.0 && value.abs() < 1e15 {
                s.push_str(&format!("\"{name}\": {value:.0}"));
            } else {
                s.push_str(&format!("\"{name}\": {value:e}"));
            }
        }
        s.push('}');
    }
    s.push_str("\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "all" => {}
            other => ids.push(other.to_string()),
        }
    }

    let run_ids: Vec<String> = if ids.is_empty() {
        experiments::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        ids
    };

    let mut failed = 0;
    let mut count = 0;
    for id in &run_ids {
        let start = std::time::Instant::now();
        let o = experiments::run_one(id).unwrap_or_else(|| {
            let known = experiments::all_ids().join(", ");
            eprintln!("unknown experiment id: {id} (known: {known})");
            std::process::exit(2);
        });
        let mean_ns = start.elapsed().as_nanos();
        count += 1;
        println!("{}", o.render());
        if o.verdict.starts_with("FAIL") {
            failed += 1;
        }
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{}.csv", o.id.to_ascii_lowercase());
            std::fs::write(&path, o.table.to_csv()).expect("write csv");
            println!("(csv written to {path})\n");
        }
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/BENCH_{}.json", o.id);
            std::fs::write(&path, bench_json(&o, mean_ns)).expect("write json");
            println!("(json written to {path})\n");
        }
    }
    println!("summary: {}/{} experiments PASS", count - failed, count);
    if failed > 0 {
        std::process::exit(1);
    }
}
