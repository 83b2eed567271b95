//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-hot|patch-large> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds `reclaimd` from the
//! checkout, starts it with `--workers` = available parallelism, drives
//! the workload's seeded closed-loop traffic over a Unix socket, checks
//! every reply, and prints one JSON object as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod gen;
mod layers;
mod stats;
mod trace;
mod wire;

use gen::{Class, ColdGen, Plan};
use stats::{jnum, jstr, median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use trace::Tracer;
use wire::{Daemon, Outcome};

const WORKLOADS: [&str; 2] = ["serve-hot", "patch-large"];
/// Rounds an untraced run is cut into. Each round sets up a fresh
/// daemon (one `setup_s` sample, the reported figure being their
/// median), runs a slice of the timed phase on it, then a slice of each
/// probe. Contention from the host's other tenants comes in stretches
/// of seconds; spreading every metric's samples over the whole run
/// keeps one stretch from landing on one metric alone.
const ROUNDS: usize = 5;
/// Share of `--seconds` the cold probe runs for, in whole passes (at
/// least one a round): it gives the per-model metrics. A pass costs
/// over a second, so the probe runs longer than the timed phase to
/// see each instance often enough.
const COLD_PROBE_SHARE: f64 = 2.0;
/// Share of `--seconds` the patch probe runs for, in whole cycles (at
/// least one a round) after one unmeasured warm-up cycle; each cycle
/// returns the chains to their base.
const PATCH_PROBE_SHARE: f64 = 0.5;
/// Where runs keep sockets, stores, spans and ledgers.
const OUT_DIR: &str = ".bench_run";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|x| *x == w)
        .ok_or(format!("unknown workload {w:?}; one of {WORKLOADS:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Build `reclaimd` from the checkout in the working directory and
/// return its path. Honors `CARGO_TARGET_DIR`.
fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "reclaim_service",
            "--bin",
            "reclaimd",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building reclaimd failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("reclaimd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

fn plan_for(workload: &str, seed: u64) -> Plan {
    match workload {
        "serve-hot" => gen::hot(seed),
        _ => gen::patch_large(seed),
    }
}

/// The directory one invocation keeps its daemons' sockets and stores
/// in; removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start a daemon and pre-warm it; returns it with the set-up seconds.
fn setup(
    bin: &Path,
    dir: &Path,
    workers: usize,
    plan: &Plan,
    acc: &mut Outcome,
) -> Result<(Daemon, f64), String> {
    let t0 = std::time::Instant::now();
    let d =
        Daemon::start(bin, dir, workers, plan).map_err(|e| format!("starting reclaimd: {e}"))?;
    let warm = wire::run_fixed(&d, &plan.prewarm);
    let secs = t0.elapsed().as_secs_f64();
    acc.absorb_checks(warm);
    Ok((d, secs))
}

fn rtts_us(samples: &[wire::Sample], pick: impl Fn(Class) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| pick(s.class))
        .map(|s| s.rtt_ns as f64 / 1e3)
        .collect()
}

/// Each picked request's quiet RTT, in µs: its fastest over the run's
/// repeats of it, the request named by `place` (where it sits in its
/// stream). The host's other tenants only ever add time, so the
/// fastest of many repeats is the steadiest estimate of what the daemon
/// itself takes; a slower program slows every repeat alike.
fn quiet_rtts(
    o: &Outcome,
    pick: impl Fn(Class) -> bool,
    place: impl Fn(&wire::Sample) -> (usize, u64),
) -> BTreeMap<(usize, u64), f64> {
    let mut fastest = BTreeMap::new();
    for s in o.samples.iter().filter(|s| pick(s.class)) {
        let us = s.rtt_ns as f64 / 1e3;
        fastest
            .entry(place(s))
            .and_modify(|v: &mut f64| *v = v.min(us))
            .or_insert(us);
    }
    fastest
}

/// A cyclic stream's place: connection and request id.
fn stream_place(s: &wire::Sample) -> (usize, u64) {
    (s.conn, s.id)
}

/// Median quiet RTT of the picked requests of cyclic streams, in µs.
fn quiet_p50_us(o: &Outcome, pick: impl Fn(Class) -> bool) -> f64 {
    let q = quiet_rtts(o, pick, stream_place);
    median(&q.into_values().collect::<Vec<_>>())
}

/// The closed loop's throughput at quiet RTTs: per connection, its
/// distinct requests over the sum of their quiet RTTs, added up over
/// the connections.
fn quiet_rps(o: &Outcome) -> f64 {
    let mut per_conn: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for ((conn, _), us) in quiet_rtts(o, |_| true, stream_place) {
        let e = per_conn.entry(conn).or_default();
        e.0 += 1.0;
        e.1 += us / 1e6;
    }
    per_conn.values().map(|(n, secs)| n / secs).sum()
}

/// One cold pass's worth of a class at quiet RTTs, in seconds: a cold
/// request's place is its instance, the same in every pass.
fn quiet_pass_s(o: &Outcome, gen: &ColdGen, class: Class) -> f64 {
    let len = gen.len() as u64;
    let q = quiet_rtts(o, |c| c == class, |s| (0, (s.id - 1) % len));
    if q.is_empty() {
        return f64::NAN;
    }
    q.values().sum::<f64>() / 1e6
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Print the result line; an error instead if a metric is not a finite
/// number.
fn print_result(acc: &Outcome, metrics: &Metrics) -> Result<(), String> {
    if let Some((n, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {n} came out as {v}"));
    }
    for f in acc.failures.iter().take(8) {
        eprintln!("perfbench: FAILED {f}");
    }
    if acc.failures.len() > 8 {
        eprintln!("perfbench: … {} failures in all", acc.failures.len());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                jnum(*v),
                jstr(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acc.failures.is_empty(),
        acc.attempted,
        acc.failures.len(),
        body.join(", ")
    );
    Ok(())
}

/// Log a phase boundary on stderr, with seconds since start.
fn phase(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t0 = START.get_or_init(std::time::Instant::now);
    eprintln!("perfbench: {:>7.2} s  {what}", t0.elapsed().as_secs_f64());
}

/// The untraced run: end-to-end metrics.
fn untraced(a: &Args, bin: &Path, rd: &Path, workers: usize, plan: &Plan) -> Result<(), String> {
    let patch_probe = (a.workload != "patch-large").then(|| gen::patch_probe(a.seed));
    let cold_probe = ColdGen::new(a.seed ^ 0x0c01_d9be);
    let probe_items: Vec<&[gen::Item]> = patch_probe
        .iter()
        .flat_map(|(w, s)| [w.as_slice(), s.as_slice()])
        .collect();
    let digest = gen::digest(plan, &probe_items, &cold_probe);
    println!("digest {} seed {} {digest:016x}", a.workload, a.seed);
    phase("generated");

    let mut acc = Outcome::default();
    // The probes run on a daemon of their own with default flags, so
    // what the timed slices leave behind (heap, cache) cannot move them.
    let bare = Plan {
        daemon_args: Vec::new(),
        prewarm: Vec::new(),
        conns: Vec::new(),
    };
    let probe = Daemon::start(bin, &rd.join("probe"), workers, &bare)
        .map_err(|e| format!("starting reclaimd: {e}"))?;
    if let Some((warm, stream)) = &patch_probe {
        acc.absorb_checks(wire::run_fixed(&probe, warm));
        acc.absorb_checks(wire::run_fixed(&probe, stream));
    }
    let slice_s = a.seconds / ROUNDS as f64;
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    let (mut patch, mut cold) = (Outcome::default(), Outcome::default());
    for round in 0..ROUNDS {
        let (d, secs) = setup(
            bin,
            &rd.join(format!("round{round}")),
            workers,
            plan,
            &mut acc,
        )?;
        setups.push(secs);
        slices.push(wire::run_timed(&d, plan, slice_s, &[], None));
        d.shutdown()
            .map_err(|e| format!("stopping reclaimd: {e}"))?;
        if let Some((_, stream)) = &patch_probe {
            let t0 = std::time::Instant::now();
            loop {
                patch.absorb(wire::run_fixed(&probe, stream));
                if t0.elapsed().as_secs_f64() >= PATCH_PROBE_SHARE * slice_s {
                    break;
                }
            }
        }
        let t0 = std::time::Instant::now();
        loop {
            cold.absorb(wire::run_cold_pass(&probe, &cold_probe, cold.passes));
            if t0.elapsed().as_secs_f64() >= COLD_PROBE_SHARE * slice_s {
                break;
            }
        }
        phase(&format!("round {round}"));
    }
    probe
        .shutdown()
        .map_err(|e| format!("stopping reclaimd: {e}"))?;

    let mut main = Outcome::default();
    slices.into_iter().for_each(|o| {
        main.wall_s += o.wall_s;
        main.absorb(o);
    });
    let lat = rtts_us(&main.samples, |_| true);
    let patch_src = if patch_probe.is_some() { &patch } else { &main };
    let patch_us = |class: Class| quiet_p50_us(patch_src, |c| c == class);
    let pass_s = |class: Class| quiet_pass_s(&cold, &cold_probe, class);
    let metrics: Metrics = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("rps".into(), quiet_rps(&main), "1/s"),
        ("latency_p50_us".into(), quiet_p50_us(&main, |_| true), "us"),
        ("weight_patch_us".into(), patch_us(Class::Weight4k), "us"),
        ("struct_patch_us".into(), patch_us(Class::Struct4k), "us"),
        ("vdd_patch_us".into(), patch_us(Class::VddPatch), "us"),
        ("vdd_s".into(), pass_s(Class::ColdVdd), "s"),
        ("continuous_s".into(), pass_s(Class::ColdContinuous), "s"),
        ("discrete_s".into(), pass_s(Class::ColdDiscrete), "s"),
        ("incremental_s".into(), pass_s(Class::ColdIncremental), "s"),
    ];
    println!(
        "whole phase: {:.1} req/s, p50 {:.1} µs, p99 {:.1} µs",
        lat.len() as f64 / main.wall_s,
        median(&lat),
        quantile(&lat, 0.99)
    );
    println!(
        "samples: {} timed requests in {:.2} s ({} beyond p99); {} cold passes; {} probe patches; set-ups {:?} s",
        lat.len(),
        main.wall_s,
        lat.len() / 100,
        cold.passes,
        patch.samples.len(),
        setups
    );
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for o in [&main, &patch, &cold] {
        for s in &o.samples {
            by_class
                .entry(s.class)
                .or_default()
                .push(s.rtt_ns as f64 / 1e3);
        }
    }
    for (class, v) in &by_class {
        println!(
            "class {class:?}: {} replies, p10 {:.1} µs, p25 {:.1} µs, p50 {:.1} µs, p90 {:.1} µs",
            v.len(),
            quantile(v, 0.1),
            quantile(v, 0.25),
            median(v),
            quantile(v, 0.9)
        );
    }
    acc.absorb_checks(main);
    acc.absorb_checks(patch);
    acc.absorb_checks(cold);
    phase("checked");
    print_result(&acc, &metrics)
}

/// Replay one fixed cycle of the workload on one connection of a fresh
/// daemon and return the `stats` counter deltas it caused: with a
/// single closed-loop connection the daemon's work is a function of the
/// request sequence alone, so the counts repeat exactly.
fn ledger_pass(
    bin: &Path,
    dir: &Path,
    workers: usize,
    plan: &Plan,
    acc: &mut Outcome,
) -> Result<BTreeMap<&'static str, u64>, String> {
    use reclaim_service::proto::{StatsReport, WorkerStatsReport};
    let (d, _) = setup(bin, dir, workers, plan, acc)?;
    let s0 = d.stats().map_err(|e| e.to_string())?;
    let o = wire::run_fixed(&d, plan.conns.iter().flatten());
    let s1 = d.stats().map_err(|e| e.to_string())?;
    d.shutdown().map_err(|e| e.to_string())?;
    acc.absorb_checks(o);
    let sum =
        |s: &StatsReport, f: fn(&WorkerStatsReport) -> u64| s.workers.iter().map(f).sum::<u64>();
    let worker = |f: fn(&WorkerStatsReport) -> u64| sum(&s1, f) - sum(&s0, f);
    Ok(BTreeMap::from([
        ("cache.hits", s1.cache.hits - s0.cache.hits),
        ("cache.misses", s1.cache.misses - s0.cache.misses),
        ("cache.evictions", s1.cache.evictions - s0.cache.evictions),
        (
            "cache.patch_hits",
            s1.cache.patch_hits - s0.cache.patch_hits,
        ),
        ("cache.rekeys", s1.cache.rekeys - s0.cache.rekeys),
        ("store.replays", s1.store.replays - s0.store.replays),
        (
            "store.corrupt_skipped",
            s1.store.corrupt_skipped - s0.store.corrupt_skipped,
        ),
        ("taskgraph.sp_splice", worker(|w| w.sp_splice)),
        ("taskgraph.sp_splice_miss", worker(|w| w.sp_splice_miss)),
        ("taskgraph.cone_nodes", worker(|w| w.cone_nodes)),
        ("engine.warm_lost", worker(|w| w.warm_lost)),
    ]))
}

/// Counters of the traced run that must repeat exactly under one seed.
const DETERMINISTIC: [&str; 4] = [
    "lp.curve_breakpoints",
    "convex.newton_steps",
    "taskgraph.full_passes",
    "bnb.nodes",
];

/// The ledger: deterministic work counters next to the timings.
fn ledger_json(a: &Args, counters: &BTreeMap<&'static str, u64>, metrics: &Metrics) -> String {
    let mut rows: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    rows.extend(
        metrics
            .iter()
            .filter(|(n, ..)| DETERMINISTIC.contains(&n.as_str()))
            .map(|(n, v, _)| format!("{}: {}", jstr(n), jnum(*v))),
    );
    let timings: Vec<String> = metrics
        .iter()
        .filter(|(n, ..)| {
            !DETERMINISTIC.contains(&n.as_str()) && !counters.contains_key(n.as_str())
        })
        .map(|(n, v, u)| format!("{}: [{}, {}]", jstr(n), jnum(*v), jstr(u)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"counters\": {{{}}},\n  \"timings\": {{{}}}\n}}\n",
        jstr(a.workload),
        a.seed,
        rows.join(", "),
        timings.join(", ")
    )
}

/// The traced run: per-layer metrics, the counter ledger, the spans.
fn traced(a: &Args, bin: &Path, rd: &Path, workers: usize, plan: &Plan) -> Result<(), String> {
    let mut acc = Outcome::default();
    let tracer = Tracer::new();
    let (d, _) = setup(bin, &rd.join("traced"), workers, plan, &mut acc)?;
    // Untraced then traced halves on one daemon: the difference is the
    // tracing overhead. The traced half resumes each stream where the
    // untraced one stopped (patch chains hold state).
    let half = a.seconds / 2.0;
    let plain = wire::run_timed(&d, plan, half, &[], None);
    let traced = wire::run_timed(&d, plan, half, &plain.next, Some(&tracer));
    d.shutdown()
        .map_err(|e| format!("stopping reclaimd: {e}"))?;
    let counters = ledger_pass(bin, &rd.join("ledger"), workers, plan, &mut acc)?;

    // The pre-warm frames carry the base instances of streams that send
    // only patches.
    let frames: Vec<String> = plan
        .prewarm
        .iter()
        .chain(
            plan.conns
                .iter()
                .flat_map(|c| c.iter().step_by((c.len() / 48).max(1))),
        )
        .map(|i| i.frame.clone())
        .collect();
    let replies: Vec<String> = plain
        .replies
        .iter()
        .chain(&traced.replies)
        .cloned()
        .collect();
    let layer_metrics = layers::run(a.seed, &frames, &replies, &rd.join("layer-store"), &tracer)
        .map_err(|e| format!("layer suite: {e}"))?;

    let p50 = |o: &Outcome| median(&rtts_us(&o.samples, |_| true));
    let overhead: Vec<f64> = plain
        .samples
        .iter()
        .filter_map(|s| s.overhead_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let c = |k: &str| counters[k] as f64;
    let looked_up = c("cache.hits") + c("cache.misses");
    let mut metrics: Metrics = vec![
        (
            "latency_p99_us".into(),
            quantile(&rtts_us(&plain.samples, |_| true), 0.99),
            "us",
        ),
        ("daemon.overhead_us".into(), median(&overhead), "us"),
        (
            "cache.hit_ratio".into(),
            c("cache.hits") / looked_up.max(1.0),
            "ratio",
        ),
        (
            "trace.overhead_pct".into(),
            (p50(&traced) / p50(&plain) - 1.0) * 100.0,
            "%",
        ),
    ];
    for (name, unit) in [
        ("cache.misses", "count"),
        ("cache.evictions", "count"),
        ("cache.patch_hits", "count"),
        ("cache.rekeys", "count"),
        ("store.replays", "count"),
        ("store.corrupt_skipped", "count"),
        ("taskgraph.sp_splice", "count"),
        ("taskgraph.sp_splice_miss", "count"),
        ("taskgraph.cone_nodes", "count"),
        ("engine.warm_lost", "count"),
    ] {
        metrics.push((name.into(), c(name), unit));
    }
    metrics.extend(layer_metrics);

    let out = Path::new(OUT_DIR);
    let stem = format!("{}-seed{}", a.workload, a.seed);
    std::fs::write(
        out.join(format!("ledger-{stem}.json")),
        ledger_json(a, &counters, &metrics),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("spans-{stem}.json")), tracer.to_json())
        .map_err(|e| e.to_string())?;
    for (name, (n, self_ns)) in tracer.self_times() {
        eprintln!(
            "span {name:<32} {n:>7} × self {:>12.1} µs in all",
            self_ns as f64 / 1e3
        );
    }
    println!(
        "traced: {} spans; p50 {:.1} µs untraced vs {:.1} µs traced; ledger and spans in {OUT_DIR}/",
        tracer.count(),
        p50(&plain),
        p50(&traced)
    );
    acc.absorb_checks(plain);
    acc.absorb_checks(traced);
    print_result(&acc, &metrics)
}

fn main() {
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    phase("started");
    let bin = build_daemon().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rd = RunDir(Path::new(OUT_DIR).join(format!("{}-{}", a.workload, std::process::id())));
    phase("reclaimd built");
    let plan = plan_for(a.workload, a.seed);
    let result = if a.trace {
        traced(&a, &bin, &rd.0, workers, &plan)
    } else {
        untraced(&a, &bin, &rd.0, workers, &plan)
    };
    drop(rd);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
