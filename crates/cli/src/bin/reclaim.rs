//! `reclaim` — solve MinEnergy(Ĝ, D) instances from the command line.
//!
//! ```text
//! reclaim solve <instance-file> [--dot]
//! reclaim sweep <instance-file> [--points N] [--lo F] [--hi F]
//! reclaim dmin  <instance-file>
//! reclaim check <instance-file>
//! reclaim serve  [--socket PATH] [--tcp ADDR] [--workers N]
//!                [--store DIR] [--store-fsync] …
//! reclaim ask    [<instance-file>] [--socket PATH|--tcp ADDR]
//!                [--patch SPEC] [--stats] [--shutdown]
//!                [--pipeline K] [--timeout MS] [--as-of N]
//! reclaim lineage <key> [--socket PATH|--tcp ADDR]
//! reclaim corpus <dir> [--shards N] [--json DIR]
//!                [--socket PATH|--tcp ADDR]
//! ```
//!
//! See `crates/cli/src/instance.rs` for the instance format,
//! `docs/PROTOCOL.md` for the daemon wire protocol, and
//! `reclaim_cli::edits` for the `--patch` edit-spec grammar.

use models::PowerLaw;
use reclaim_cli::{parse, Instance};
use reclaim_core::Engine;
use reclaim_service::proto::{Request, Response};
use reclaim_service::{client::Client, corpus, daemon, Endpoint};
use report::Table;
use taskgraph::profiling::CounterTable;
use taskgraph::PreparedGraph;

// `println!` and `print!` for this binary: once stdout's reader has
// gone away (`reclaim solve f.inst | head`), end the process quietly
// instead of panicking on the broken pipe. SIGPIPE stays ignored, as
// Rust sets it, so `reclaim serve` — the daemon, in this same process
// — keeps outliving peers that close their sockets.
macro_rules! println {
    ($($arg:tt)*) => {
        stdout_written(std::io::Write::write_fmt(
            &mut std::io::stdout(),
            format_args!("{}\n", format_args!($($arg)*)),
        ))
    };
}

macro_rules! print {
    ($($arg:tt)*) => {
        stdout_written(std::io::Write::write_fmt(
            &mut std::io::stdout(),
            format_args!($($arg)*),
        ))
    };
}

/// The outcome of one stdout write: a closed pipe exits 0, any other
/// failure panics as the std macros do.
fn stdout_written(result: std::io::Result<()>) {
    match result {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// The value after `flag` in `flags`, if the flag is there; a flag
/// with nothing after it exits 2 naming the flag.
fn flag_value<'a>(flags: &'a [String], flag: &str) -> Option<&'a str> {
    let i = flags.iter().position(|a| a == flag)?;
    let value = flags.get(i + 1).map(String::as_str);
    if value.is_none() {
        fail(2, format!("{flag} needs a value, got none"));
    }
    value
}

/// `value` of `flag` parsed as a `T`; otherwise exit 2 naming the
/// flag, what it needs and the value it got.
fn parsed<T: std::str::FromStr>(flag: &str, needs: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(2, format!("{flag} needs {needs}, got {value:?}")))
}

fn usage() -> ! {
    fail(
        2,
        "usage: reclaim <command> <instance-file> [options]\n\
         commands:\n\
           solve    — solve the instance, print the schedule [--dot]\n\
           simulate — solve, then replay in the discrete-event simulator\n\
           gantt    — per-processor Gantt chart (needs proc lines) [--width N]\n\
           sweep    — energy–deadline curve [--points N] [--lo F] [--hi F]\n\
           pareto   — the whole trade-off curve as closed-form segments\n\
                      [--lo F] [--hi F] [--exact] (without --exact:\n\
                      alias of sweep)\n\
           dmin     — minimum feasible deadline at top speed\n\
           check    — parse and validate the instance only\n\
           gen      — generate an instance: reclaim gen <family> [params…]\n\
                      [--procs P] [--model M] [--tightness T] [--seed S]\n\
                      families: fft lu stencil ge dac chain fork tree sp layered\n\
           serve    — run the reclaimd daemon in the foreground\n\
                      [--socket PATH] [--tcp ADDR] [--workers N]\n\
                      [--cache-entries N] [--cache-bytes B] [--alpha A]\n\
                      [--max-connections N] [--max-inflight N]\n\
                      [--store DIR] [--store-fsync]\n\
           ask      — send requests to a running daemon\n\
                      reclaim ask [<file>] [--socket PATH|--tcp ADDR]\n\
                      [--patch SPEC] [--stats] [--shutdown]\n\
                      [--pipeline K] [--timeout MS] [--as-of N]\n\
                      SPEC: ';'-separated edits — set:T:W link:U:V\n\
                      unlink:U:V add:W[:pA.B][:sC.D] drop:T\n\
                      --as-of N solves the version N recorded patches\n\
                      back up the store's lineage chain (needs --store)\n\
           lineage  — recorded patch history of a stored instance\n\
                      reclaim lineage <key> [--socket PATH|--tcp ADDR]\n\
           corpus   — shard a directory of .inst files across engines\n\
                      reclaim corpus <dir> [--shards N] [--json DIR]\n\
                      [--socket PATH|--tcp ADDR]  (run through a daemon)",
    )
}

/// Resolve `--socket` / `--tcp` flags into a daemon endpoint
/// (default: `reclaimd.sock` in the working directory).
fn endpoint_from_flags(flags: &[String]) -> Endpoint {
    if let Some(addr) = flag_value(flags, "--tcp") {
        let addr = addr
            .parse()
            .unwrap_or_else(|_| fail(2, format!("bad --tcp address {addr:?}")));
        Endpoint::Tcp(addr)
    } else {
        Endpoint::Unix(
            flag_value(flags, "--socket")
                .unwrap_or("reclaimd.sock")
                .into(),
        )
    }
}

fn ask_command(args: &[String]) {
    let file = args.first().filter(|a| !a.starts_with("--"));
    let flags: Vec<String> = args
        .iter()
        .skip(usize::from(file.is_some()))
        .cloned()
        .collect();
    let stats = flags.iter().any(|a| a == "--stats");
    let shutdown = flags.iter().any(|a| a == "--shutdown");
    let patch_spec = flag_value(&flags, "--patch");
    if file.is_none() && !stats && !shutdown {
        fail(2, "ask needs an instance file, --stats, or --shutdown");
    }
    if patch_spec.is_some() && file.is_none() {
        fail(2, "--patch needs the instance file the patch is based on");
    }
    let pipeline_k: usize = flag_value(&flags, "--pipeline")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&k| k >= 1)
                .unwrap_or_else(|| fail(2, format!("--pipeline needs an integer ≥ 1, got {v:?}")))
        })
        .unwrap_or(1);
    let timeout_ms: Option<u64> =
        flag_value(&flags, "--timeout").map(|v| parsed("--timeout", "milliseconds", v));
    let as_of: Option<u64> = flag_value(&flags, "--as-of").map(|v| {
        v.parse()
            .ok()
            .filter(|&d| d >= 1)
            .unwrap_or_else(|| fail(2, format!("--as-of needs a patch depth ≥ 1, got {v:?}")))
    });
    if as_of.is_some() && file.is_none() {
        fail(2, "--as-of needs the instance file whose lineage to rewind");
    }
    let ep = endpoint_from_flags(&flags);
    let mut client = connect(&ep);
    client.set_timeout_ms(timeout_ms);
    client.set_as_of(as_of);
    // Pipelined mode: send the file's solve K times in one window
    // (responses matched by id, completion order) — a quick way to
    // drive the daemon cache and the out-of-order write path from the
    // shell.
    if pipeline_k > 1 {
        let Some(path) = file else {
            fail(2, "--pipeline needs an instance file");
        };
        let inst = load(path);
        let req = Request::Solve {
            graph: inst.graph.clone(),
            model: inst.model.clone(),
            deadline: inst.deadline,
        };
        let t0 = std::time::Instant::now();
        let mut pipe = client.pipeline(pipeline_k);
        for _ in 0..pipeline_k {
            pipe.send(req.clone())
                .unwrap_or_else(|e| fail(1, format!("pipelined send failed: {e}")));
        }
        let responses = pipe
            .drain()
            .unwrap_or_else(|e| fail(1, format!("pipelined exchange failed: {e}")));
        let elapsed = t0.elapsed();
        let mut reused = 0usize;
        for r in &responses {
            match &r.response {
                Response::Solve(s) => reused += usize::from(s.cached),
                other => unexpected(other),
            }
        }
        println!(
            "pipelined {} solves | window {} | {} reused | {:.3} ms total | {:.1} µs/request",
            responses.len(),
            pipeline_k,
            reused,
            elapsed.as_secs_f64() * 1e3,
            elapsed.as_secs_f64() * 1e6 / responses.len() as f64,
        );
        if stats || shutdown {
            // Fall through to the serial paths below.
        } else {
            return;
        }
    }
    let mut roundtrip = |req: Request| {
        // `--as-of` applies to the solve only; the same invocation's
        // follow-ups (patch, stats, shutdown) run at the present.
        if !matches!(req, Request::Solve { .. }) {
            client.set_as_of(None);
        }
        client
            .roundtrip(req)
            .unwrap_or_else(|e| fail(1, format!("request failed: {e}")))
            .response
    };
    // (In pipelined mode the file was already solved above.)
    if let Some(path) = file.filter(|_| pipeline_k == 1) {
        let inst = load(path);
        match roundtrip(Request::Solve {
            graph: inst.graph.clone(),
            model: inst.model.clone(),
            deadline: inst.deadline,
        }) {
            Response::Solve(r) => println!(
                "energy {:.6} | algorithm {} | makespan {:.6} | \
                 solve {} µs | prep {} µs | analysis {} | worker {}",
                r.energy,
                r.algorithm,
                r.makespan,
                r.solve_ns / 1_000,
                r.prep_ns / 1_000,
                if r.cached { "reused" } else { "built" },
                r.worker
            ),
            other => unexpected(&other),
        }
        if let Some(spec) = &patch_spec {
            let edits =
                reclaim_cli::parse_edits(spec).unwrap_or_else(|e| fail(2, format!("--patch: {e}")));
            // The daemon holds the just-solved instance; name it by
            // content key and send only the delta.
            let base = reclaim_core::engine::content_key(&inst.graph, &inst.model);
            match roundtrip(Request::Patch {
                base,
                edits,
                deadline: inst.deadline,
            }) {
                Response::Patch(p) => println!(
                    "patched energy {:.6} | algorithm {} | makespan {:.6} | \
                     solve {} µs | prep {} µs | lp {} | key {}",
                    p.report.energy,
                    p.report.algorithm,
                    p.report.makespan,
                    p.report.solve_ns / 1_000,
                    p.report.prep_ns / 1_000,
                    if p.warm_lp { "warm" } else { "cold" },
                    reclaim_service::proto::key_to_hex(p.key),
                ),
                other => unexpected(&other),
            }
        }
    }
    if stats {
        match roundtrip(Request::Stats) {
            Response::Stats(s) => {
                stats_line("cache", &s.cache);
                stats_line("store", &s.store);
                for (i, w) in s.workers.iter().enumerate() {
                    stats_line(&format!("worker {i}"), w);
                }
                stats_line("net", &s.net);
            }
            other => unexpected(&other),
        }
    }
    if shutdown {
        match roundtrip(Request::Shutdown) {
            Response::Shutdown => println!("daemon stopping"),
            other => unexpected(&other),
        }
    }
}

fn corpus_command(args: &[String]) {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        fail(2, "corpus needs a directory of .inst files");
    };
    let flags = &args[1..];
    let shards: usize = flag_value(flags, "--shards")
        .map(|v| parsed("--shards", "an integer", v))
        .unwrap_or(2)
        .max(1);
    let out_dir = flag_value(flags, "--json")
        .unwrap_or("bench-json")
        .to_string();

    // Deterministic enumeration: sorted file names. Parse errors are
    // fatal and fully attributed (file, line, offending token).
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(2, format!("cannot read {dir}: {e}")))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "inst"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        fail(2, format!("no .inst files in {dir}"));
    }
    let jobs: Vec<corpus::CorpusJob> = paths
        .iter()
        .map(|p| {
            let inst = load(&p.display().to_string());
            corpus::CorpusJob {
                name: p
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.display().to_string()),
                graph: inst.graph,
                model: inst.model,
                deadline: inst.deadline,
            }
        })
        .collect();

    // Daemon mode: ship the whole sharded corpus to a running
    // reclaimd as one protocol-v4 request. The daemon partitions with
    // the same content-key rule, so the table and JSON outputs are
    // byte-identical to a local run.
    let outcomes = if flags.iter().any(|a| a == "--socket" || a == "--tcp") {
        let ep = endpoint_from_flags(flags);
        let mut client = connect(&ep);
        match client.roundtrip(Request::Corpus { shards, jobs }) {
            Ok(resp) => match resp.response {
                Response::Corpus(outcomes) => outcomes,
                other => unexpected(&other),
            },
            Err(e) => fail(1, format!("corpus request failed: {e}")),
        }
    } else {
        corpus::run_corpus(jobs, shards, PowerLaw::CUBIC)
            .unwrap_or_else(|e| fail(2, format!("--shards: {e}")))
    };
    let mut t = Table::new(&[
        "shard",
        "files",
        "solved",
        "errors",
        "max tasks",
        "time(ms)",
    ]);
    for o in &outcomes {
        t.row(&[
            format!("{}", o.shard),
            format!("{}", o.entries.len()),
            format!("{}", o.solved()),
            format!("{}", o.entries.len() - o.solved()),
            format!("{}", o.max_tasks()),
            format!("{:.2}", o.elapsed_ns as f64 / 1e6),
        ]);
    }
    println!("{}", t.render());
    let written = corpus::write_outputs(std::path::Path::new(&out_dir), &outcomes)
        .unwrap_or_else(|e| fail(1, format!("cannot write corpus outputs to {out_dir}: {e}")));
    for p in written {
        println!("wrote {}", p.display());
    }
}

fn generate_command(args: &[String]) {
    let Some(family) = args.first() else { usage() };
    let flags = &args[1..];
    let value = |flag| flag_value(flags, flag);
    let d = reclaim_cli::GenOptions::default();
    let opts = reclaim_cli::GenOptions {
        procs: value("--procs").map_or(d.procs, |v| parsed("--procs", "an integer", v)),
        model: value("--model").map_or(d.model, str::to_string),
        tightness: value("--tightness")
            .map_or(d.tightness, |v| parsed("--tightness", "a number", v)),
        seed: value("--seed").map_or(d.seed, |v| parsed("--seed", "an integer", v)),
    };
    // Every argument that is neither a flag nor a flag's value is an
    // integer family parameter.
    let mut params = Vec::new();
    let mut rest = flags.iter();
    while let Some(arg) = rest.next() {
        if ["--procs", "--model", "--tightness", "--seed"].contains(&arg.as_str()) {
            rest.next();
            continue;
        }
        params.push(
            arg.parse::<usize>()
                .unwrap_or_else(|_| fail(2, format!("bad family parameter {arg:?}"))),
        );
    }
    match reclaim_cli::generate(family, &params, &opts) {
        Ok(text) => print!("{text}"),
        Err(e) => fail(2, format!("gen failed: {e}")),
    }
}

/// `reclaim lineage <key>` — print the recorded patch history of the
/// instance stored under `key` (a `0x`-prefixed 32-hex content key,
/// as printed by `ask --patch`), oldest hop first. Needs a daemon
/// started with `--store`.
fn lineage_command(args: &[String]) {
    let Some(raw) = args.first().filter(|a| !a.starts_with("--")) else {
        fail(2, "lineage needs a content key (0x-prefixed 32 hex digits)");
    };
    let key = reclaim_service::proto::key_from_hex(raw).unwrap_or_else(|| {
        fail(
            2,
            format!("malformed content key {raw:?} (want 0x-prefixed 32 hex digits)"),
        )
    });
    let ep = endpoint_from_flags(&args[1..]);
    let mut client = Client::connect(&ep)
        .unwrap_or_else(|e| fail(1, format!("cannot reach daemon at {ep}: {e}")));
    let reply = client
        .lineage(key)
        .unwrap_or_else(|e| fail(1, format!("request failed: {e}")));
    match reply.response {
        Response::Lineage(report) => {
            println!(
                "lineage of {}: {} recorded patches",
                reclaim_service::proto::key_to_hex(report.key),
                report.depth
            );
            for (i, hop) in report.hops.iter().enumerate() {
                println!(
                    "  #{}: {} --[{} edits]--> {}",
                    i + 1,
                    reclaim_service::proto::key_to_hex(hop.parent),
                    hop.edits.len(),
                    reclaim_service::proto::key_to_hex(hop.child)
                );
            }
        }
        other => unexpected(&other),
    }
}

/// Give up: print `msg` to stderr and exit with `code` (2 for bad
/// input, 1 for a failure past it). Every command gives up here.
fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// The daemon at `ep`, or give up.
fn connect(ep: &Endpoint) -> Client {
    Client::connect(ep).unwrap_or_else(|e| {
        fail(
            1,
            format!("cannot connect to {ep}: {e} (is reclaimd running?)"),
        )
    })
}

/// Give up on an answer the command did not ask for: a daemon error,
/// or a response of another kind.
fn unexpected(resp: &Response) -> ! {
    match resp {
        Response::Error(e) => fail(1, format!("daemon error: {e}")),
        other => fail(1, format!("unexpected response: {other:?}")),
    }
}

/// Print one `stats` block as `<block>: <value> <name> | …`, each
/// counter labelled by its wire key with `_` read as a space.
fn stats_line(block: &str, table: &impl CounterTable) {
    let counters: Vec<String> = table
        .fields()
        .map(|(name, n)| format!("{n} {}", name.replace('_', " ")))
        .collect();
    println!("{block}: {}", counters.join(" | "));
}

fn load(path: &str) -> Instance {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| fail(2, format!("{path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `gen`, the service commands, and `corpus` take their own
    // arguments, not a single instance file.
    match args.first().map(String::as_str) {
        Some("gen") => return generate_command(&args[1..]),
        Some("serve") => {
            let cfg = daemon::config_from_args(&args[1..])
                .unwrap_or_else(|e| fail(2, format!("serve: {e}")));
            let workers = cfg.workers;
            let d = daemon::Daemon::bind(cfg)
                .unwrap_or_else(|e| fail(1, format!("serve: bind failed: {e}")));
            eprintln!("serving on {} ({workers} workers)", d.endpoint());
            if let Err(e) = d.run() {
                fail(1, format!("serve: {e}"));
            }
            return;
        }
        Some("ask") => return ask_command(&args[1..]),
        Some("lineage") => return lineage_command(&args[1..]),
        Some("corpus") => return corpus_command(&args[1..]),
        _ => {}
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        usage()
    };
    let flags = &args[2..];
    let p = PowerLaw::CUBIC;
    let inst = load(path);
    // One prepared graph + engine for whatever the command needs:
    // repeated solves (sweep) share the cached analysis.
    let engine = Engine::new(p);
    let prep = PreparedGraph::new(&inst.graph);
    let solve_or_die = || {
        engine
            .solve(&prep, &inst.model, inst.deadline)
            .unwrap_or_else(|e| fail(1, format!("solve failed: {e}")))
    };

    match cmd.as_str() {
        "check" => {
            println!(
                "ok: {} tasks, {} edges, model {}, deadline {}",
                inst.graph.n(),
                inst.graph.m(),
                inst.model.name(),
                inst.deadline
            );
        }
        "dmin" => match inst.model.top_speed() {
            Some(sm) => {
                let dmin = prep.critical_path_weight() / sm;
                println!("{dmin}");
                if inst.deadline < dmin {
                    fail(
                        1,
                        format!(
                            "warning: instance deadline {} is below dmin — infeasible",
                            inst.deadline
                        ),
                    );
                }
            }
            None => println!("0 (unbounded speeds: any positive deadline is feasible)"),
        },
        "solve" => {
            let sol = solve_or_die();
            println!(
                "model {} | algorithm {} | energy {:.6} | makespan {:.6} / deadline {}",
                inst.model.name(),
                sol.algorithm,
                sol.energy,
                sol.schedule.makespan(&inst.graph),
                inst.deadline
            );
            let mut t = Table::new(&["task", "weight", "start", "end", "profile"]);
            for task in inst.graph.tasks() {
                let prof = match sol.schedule.profile(task) {
                    models::SpeedProfile::Constant(s) => format!("s={s:.4}"),
                    models::SpeedProfile::Pieces(ps) => ps
                        .iter()
                        .map(|(s, d)| format!("{s:.3}x{d:.3}"))
                        .collect::<Vec<_>>()
                        .join(" + "),
                };
                t.row(&[
                    format!("T{}", task.index()),
                    format!("{:.3}", inst.graph.weight(task)),
                    format!("{:.4}", sol.schedule.start(task)),
                    format!("{:.4}", sol.schedule.completion(task, &inst.graph)),
                    prof,
                ]);
            }
            println!("\n{}", t.render());
            if flags.iter().any(|a| a == "--dot") {
                let sched = &sol.schedule;
                let g = &inst.graph;
                println!(
                    "{}",
                    taskgraph::dot::to_dot_with(g, |i| {
                        let t = taskgraph::TaskId(i);
                        Some(format!(
                            "[{:.3},{:.3}]",
                            sched.start(t),
                            sched.completion(t, g)
                        ))
                    })
                );
            }
        }
        "simulate" => {
            let sol = solve_or_die();
            let res = sim::simulate(&inst.graph, &sol.schedule, p)
                .unwrap_or_else(|e| fail(1, format!("simulation rejected the schedule: {e}")));
            if let Some(m) = &inst.mapping {
                sim::check_mapping_consistency(&inst.graph, &sol.schedule, m)
                    .unwrap_or_else(|e| fail(1, format!("mapping inconsistency: {e}")));
            }
            println!(
                "replayed {} tasks | integrated energy {:.6} (analytic {:.6}) | \
                 makespan {:.6} | peak power {:.4} W | avg power {:.4} W",
                res.events.len(),
                res.energy,
                sol.energy,
                res.makespan,
                res.trace.peak_power(),
                res.trace.average_power()
            );
            let drift = (res.energy - sol.energy).abs() / sol.energy.max(1e-12);
            if drift > 1e-6 {
                fail(
                    1,
                    format!("warning: energy drift {drift:.2e} between trace and analytic"),
                );
            }
        }
        "gantt" => {
            let Some(m) = &inst.mapping else {
                fail(2, "gantt needs 'proc' lines in the instance");
            };
            let width: usize = flag_value(flags, "--width")
                .map(|v| parsed("--width", "an integer", v))
                .unwrap_or(64);
            let sol = solve_or_die();
            println!("{}", sim::gantt(&inst.graph, &sol.schedule, m, width));
        }
        "sweep" | "pareto" => {
            let points: usize = flag_value(flags, "--points")
                .map(|v| parsed("--points", "an integer", v))
                .unwrap_or(8);
            let lo: f64 = flag_value(flags, "--lo")
                .map(|v| parsed("--lo", "a number", v))
                .unwrap_or(1.05);
            let hi: f64 = flag_value(flags, "--hi")
                .map(|v| parsed("--hi", "a number", v))
                .unwrap_or(4.0);
            if cmd == "pareto" && flags.iter().any(|a| a == "--exact") {
                let curve = engine
                    .energy_curve_exact(&prep, &inst.model, lo, hi)
                    .unwrap_or_else(|e| fail(1, format!("pareto failed: {e}")));
                let mut t = Table::new(&["from D", "to D", "energy E(D)", "E(from)", "E(to)"]);
                for s in &curve.segments {
                    let form = match s.energy {
                        reclaim_core::CurveEnergy::Affine { a, b } => {
                            format!("{a:.4} {b:+.4}·D")
                        }
                        reclaim_core::CurveEnergy::Power { c, p } => {
                            format!("{c:.4}/D^{p:.2}")
                        }
                    };
                    t.row(&[
                        format!("{:.4}", s.deadline_lo),
                        format!("{:.4}", s.deadline_hi),
                        form,
                        format!("{:.6}", s.energy_at(s.deadline_lo)),
                        format!("{:.6}", s.energy_at(s.deadline_hi)),
                    ]);
                }
                println!("{}", t.render());
                println!(
                    "{} segments ({}) | {} LP breakpoints | {} samples",
                    curve.segments.len(),
                    if curve.exact {
                        "exact closed form"
                    } else {
                        "adaptively refined"
                    },
                    curve.stats.lp_breakpoints,
                    curve.stats.samples,
                );
            } else {
                let curve = engine
                    .energy_curve(&prep, &inst.model, points, lo, hi)
                    .unwrap_or_else(|e| fail(1, format!("sweep failed: {e}")));
                let mut t = Table::new(&["deadline", "energy"]);
                for pt in &curve {
                    t.row(&[format!("{:.4}", pt.deadline), format!("{:.6}", pt.energy)]);
                }
                println!("{}", t.render());
                let energies: Vec<f64> = curve.iter().map(|p| p.energy).collect();
                println!("shape: {}", report::sparkline(&energies));
            }
        }
        _ => usage(),
    }
}
