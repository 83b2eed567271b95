//! The live-daemon side: start and stop `reclaimd`, drive closed-loop
//! traffic over its Unix socket, and check every answer.

use crate::gen::{Class, ColdGen, Expect, Item, Plan};
use crate::trace::Tracer;
use reclaim_service::proto::{
    read_frame, write_frame, Request, RequestEnvelope, Response, ResponseEnvelope, StatsReport,
};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one request may take before it counts as dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a starting daemon may take to accept connections.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// Relative tolerance of every energy comparison.
pub const REL_TOL: f64 = 1e-9;

/// One running `reclaimd` child process; killed and reaped on drop if
/// it was not shut down cleanly.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn `bin` with its socket under the fresh directory `dir`, and
    /// wait until it accepts.
    pub fn start(bin: &Path, dir: &Path, workers: usize, plan: &Plan) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let mut cmd = Command::new(bin);
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(workers.to_string())
            .args(&plan.daemon_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let mut d = Daemon {
            child: Some(cmd.spawn()?),
            socket,
        };
        let t0 = Instant::now();
        loop {
            if UnixStream::connect(&d.socket).is_ok() {
                return Ok(d);
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(io::Error::other(format!(
                    "reclaimd exited at start: {status}"
                )));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::other("reclaimd did not start accepting"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> io::Result<UnixStream> {
        let s = UnixStream::connect(&self.socket)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        s.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(s)
    }

    pub fn stats(&self) -> io::Result<StatsReport> {
        let mut s = self.connect()?;
        match exchange(&mut s, &RequestEnvelope::new(1, Request::Stats).encode()) {
            Ok(ResponseEnvelope {
                response: Response::Stats(st),
                ..
            }) => Ok(st),
            Ok(other) => Err(io::Error::other(format!("stats answered {other:?}"))),
            Err(e) => Err(io::Error::other(e)),
        }
    }

    /// Ask for a clean shutdown and reap the process.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut s = self.connect()?;
        let reply = exchange(&mut s, &RequestEnvelope::new(1, Request::Shutdown).encode());
        drop(s);
        let mut child = self.child.take().expect("running");
        if !matches!(
            reply,
            Ok(ResponseEnvelope {
                response: Response::Shutdown,
                ..
            })
        ) {
            let _ = child.kill();
            child.wait()?;
            return Err(io::Error::other(format!("shutdown answered {reply:?}")));
        }
        let t0 = Instant::now();
        while child.try_wait()?.is_none() {
            if t0.elapsed() > START_TIMEOUT {
                let _ = child.kill();
                child.wait()?;
                return Err(io::Error::other("reclaimd did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request/response exchange on a connection, the way `Client`
/// does it: write the frame, block for the reply frame, decode it.
fn exchange(s: &mut UnixStream, frame: &str) -> Result<ResponseEnvelope, String> {
    write_frame(s, frame).map_err(|e| format!("write: {e}"))?;
    let payload = read_frame(s)
        .map_err(|e| format!("read: {e}"))?
        .ok_or("daemon closed the connection")?;
    ResponseEnvelope::decode(&payload).map_err(|e| format!("decode: {e}"))
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

fn close(got: f64, want: f64, what: &str) -> Result<(), String> {
    if rel(got, want) <= REL_TOL {
        Ok(())
    } else {
        Err(format!(
            "{what}: energy {got} but an in-process solve gives {want}"
        ))
    }
}

fn tag(got: &str, want: &str) -> Result<(), String> {
    if got.starts_with(want) {
        Ok(())
    } else {
        Err(format!("algorithm {got:?}, expected {want}*"))
    }
}

/// Check one reply against what its request must get. `Expect::Later`
/// checks only the shape and tag here; the energy waits for the
/// in-process solve after the timed phase.
pub fn check(item: &Item, reply: &ResponseEnvelope) -> Result<(), String> {
    let id = item.id;
    if reply.id != id {
        return Err(format!("reply id {} for request {id}", reply.id));
    }
    match (&item.expect, &reply.response) {
        (Expect::Solve { energy, alg }, Response::Solve(r)) => {
            tag(&r.algorithm, alg)?;
            close(r.energy, *energy, "solve")
        }
        (Expect::Later { alg }, Response::Solve(r)) => tag(&r.algorithm, alg),
        (Expect::Deadlines { energies, alg }, Response::Deadlines(items)) => {
            if items.len() != energies.len() {
                return Err(format!(
                    "{} deadline answers for {}",
                    items.len(),
                    energies.len()
                ));
            }
            for (got, want) in items.iter().zip(energies) {
                let r = got
                    .as_ref()
                    .map_err(|e| format!("deadline item failed: {e}"))?;
                tag(&r.algorithm, alg)?;
                close(r.energy, *want, "solve_deadlines")?;
            }
            Ok(())
        }
        (Expect::Curve(want), Response::CurveExact(got)) => {
            if got.segments.len() != want.segments.len() || got.exact != want.exact {
                return Err(format!(
                    "curve of {} segments (exact {}), expected {} (exact {})",
                    got.segments.len(),
                    got.exact,
                    want.segments.len(),
                    want.exact
                ));
            }
            for (g, w) in got.segments.iter().zip(&want.segments) {
                for (x, y) in [
                    (g.deadline_lo, w.deadline_lo),
                    (g.deadline_hi, w.deadline_hi),
                ] {
                    if rel(x, y) > REL_TOL {
                        return Err(format!("curve breakpoint {x}, expected {y}"));
                    }
                }
                close(
                    g.energy_at(g.deadline_lo),
                    w.energy_at(w.deadline_lo),
                    "curve",
                )?;
                close(
                    g.energy_at(g.deadline_hi),
                    w.energy_at(w.deadline_hi),
                    "curve",
                )?;
            }
            Ok(())
        }
        (Expect::Patch { energy, key, alg }, Response::Patch(p)) => {
            if p.key != *key {
                return Err(format!("patched key {:032x}, expected {key:032x}", p.key));
            }
            tag(&p.report.algorithm, alg)?;
            close(p.report.energy, *energy, "patch")
        }
        (_, Response::Error(e)) => Err(format!("error reply: {e}")),
        (_, other) => Err(format!("wrong reply kind: {other:?}")),
    }
}

/// One answered request.
pub struct Sample {
    pub class: Class,
    /// The connection of the plan it was sent on (0 outside
    /// [`run_timed`]) and the request's id: together they name the
    /// request within its stream.
    pub conn: usize,
    pub id: u64,
    pub rtt_ns: u64,
    /// RTT minus the daemon's reported `prep_ns + solve_ns`, for
    /// single-solve replies.
    pub overhead_ns: Option<u64>,
}

/// A cold reply whose energy is checked after the timed phase.
pub struct Deferred {
    pub frame: String,
    pub energy: f64,
}

/// What one phase produced.
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub deferred: Vec<Deferred>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Complete cold passes.
    pub passes: u64,
    /// A bounded sample of raw reply payloads (the proto layer's input).
    pub replies: Vec<String>,
    /// Per connection, where its stream stopped: the next item index.
    pub next: Vec<u64>,
}

impl Outcome {
    /// Fold in only another phase's accounting: its attempts, its
    /// failures, and the failures of its deferred in-process checks.
    pub fn absorb_checks(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.failures.extend(verify_deferred(&o.deferred));
        self.failures.extend(o.failures);
    }

    pub fn absorb(&mut self, o: Outcome) {
        self.samples.extend(o.samples);
        self.attempted += o.attempted;
        self.failures.extend(o.failures);
        self.deferred.extend(o.deferred);
        self.passes += o.passes;
        self.replies.extend(o.replies);
        self.next.extend(o.next);
    }
}

/// Replies kept per connection for the proto layer.
const KEEP_REPLIES: usize = 64;

/// Run `f` inside a span when tracing.
fn span<T>(
    t: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match t {
        Some(t) => t.within(name, parent, id, f),
        None => f(),
    }
}

/// Send `item` and check its reply, recording a sample on success.
fn one(s: &mut UnixStream, item: &Item, out: &mut Outcome, tracer: Option<&Tracer>) {
    out.attempted += 1;
    let id = item.id;
    let root = tracer.map(|t| t.open("request", None, id));
    let t0 = Instant::now();
    let payload = span(tracer, "write", root, id, || write_frame(s, &item.frame))
        .map_err(|e| format!("write: {e}"))
        .and_then(|()| {
            span(tracer, "wait+read", root, id, || read_frame(s))
                .map_err(|e| format!("read: {e}"))
                .and_then(|p| p.ok_or_else(|| "daemon closed the connection".to_string()))
        });
    let reply = payload.and_then(|p| {
        let r = span(tracer, "decode", root, id, || ResponseEnvelope::decode(&p));
        if out.replies.len() < KEEP_REPLIES {
            out.replies.push(p);
        }
        r.map_err(|e| format!("decode: {e}"))
    });
    let rtt_ns = t0.elapsed().as_nanos() as u64;
    let checked =
        reply.and_then(|r| span(tracer, "check", root, id, || check(item, &r).map(|()| r)));
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    match checked {
        Ok(r) => {
            let report = match &r.response {
                Response::Solve(rep) => Some(rep),
                Response::Patch(p) => Some(&p.report),
                _ => None,
            };
            if let (Expect::Later { .. }, Some(rep)) = (&item.expect, report) {
                out.deferred.push(Deferred {
                    frame: item.frame.clone(),
                    energy: rep.energy,
                });
            }
            let overhead_ns = report
                .filter(|_| item.class.single_solve())
                .map(|rep| rtt_ns.saturating_sub(rep.prep_ns + rep.solve_ns));
            out.samples.push(Sample {
                class: item.class,
                conn: 0,
                id,
                rtt_ns,
                overhead_ns,
            });
        }
        Err(e) => out
            .failures
            .push(format!("{:?} request {id}: {e}", item.class)),
    }
}

/// Send every item once, in order, on one connection.
pub fn run_fixed<'a>(d: &Daemon, items: impl IntoIterator<Item = &'a Item>) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    match d.connect() {
        Ok(mut s) => items
            .into_iter()
            .for_each(|it| one(&mut s, it, &mut out, None)),
        Err(e) => {
            out.attempted += 1;
            out.failures.push(format!("connect: {e}"));
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Send cold pass `k` on a fresh connection.
pub fn run_cold_pass(d: &Daemon, gen: &ColdGen, k: u64) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    match d.connect() {
        Ok(mut s) => {
            gen.pass(k)
                .iter()
                .for_each(|it| one(&mut s, it, &mut out, None));
            out.passes = 1;
        }
        Err(e) => out.failures.push(format!("connect: {e}")),
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// The timed closed loop: every connection of the plan runs on its own
/// thread, sending its next request only after the previous reply,
/// until `seconds` have passed. Streams wrap around. Each connection
/// starts where `resume` says (see [`Outcome::next`]) —
/// patch chains are stateful, so a second phase on the same daemon
/// must pick up where the first stopped.
pub fn run_timed(
    d: &Daemon,
    plan: &Plan,
    seconds: f64,
    resume: &[u64],
    tracer: Option<&Tracer>,
) -> Outcome {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut total = Outcome::default();
    let parts: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.conns.len())
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut s = match d.connect() {
                        Ok(s) => s,
                        Err(e) => {
                            out.attempted += 1;
                            out.failures.push(format!("connect: {e}"));
                            return out;
                        }
                    };
                    let mut k = resume.get(c).copied().unwrap_or(0);
                    let stream = &plan.conns[c];
                    while Instant::now() < end {
                        one(&mut s, &stream[k as usize % stream.len()], &mut out, tracer);
                        k += 1;
                    }
                    out.samples.iter_mut().for_each(|s| s.conn = c);
                    out.next = vec![k];
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    parts.into_iter().for_each(|p| total.absorb(p));
    total.wall_s = t0.elapsed().as_secs_f64();
    total
}

/// Solve every deferred cold request in-process (two threads) and
/// compare energies; returns the failures.
pub fn verify_deferred(deferred: &[Deferred]) -> Vec<String> {
    let threads = 2.min(deferred.len()).max(1);
    let chunk = deferred.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = deferred
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let engine = reclaim_core::Engine::new(crate::gen::POWER).threads(1);
                    let mut bad = Vec::new();
                    for d in part {
                        let env = RequestEnvelope::decode(&d.frame).expect("own frame");
                        let Request::Solve {
                            graph,
                            model,
                            deadline,
                        } = env.request
                        else {
                            unreachable!("cold streams send solves only")
                        };
                        let want = engine.solve_graph(&graph, &model, deadline);
                        match want {
                            Ok(sol) => {
                                if let Err(e) = close(d.energy, sol.energy, "cold solve") {
                                    bad.push(format!("request {}: {e}", env.id));
                                }
                            }
                            Err(e) => bad
                                .push(format!("request {}: in-process solve failed: {e}", env.id)),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier panicked"))
            .collect()
    })
}
