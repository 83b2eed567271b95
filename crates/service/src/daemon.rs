//! `reclaimd` — the long-lived solve daemon.
//!
//! Architecture (std plus a thin epoll shim in `crate::net` — no
//! async runtime, no FFI crates; the engine is `Sync` and
//! thread-scoped, so the remaining work really is protocol plus cache
//! eviction, as the roadmap predicted):
//!
//! ```text
//!        nonblocking poll loop (Daemon::run, caller's thread)
//!        owns the listener and every connection socket (epoll)
//!           │ per-connection read buffer → complete frames
//!           │ (admission stops at --max-inflight: backpressure,
//!           │  not unbounded buffering; stats/shutdown answered
//!           │  inline, never consuming a worker slot)
//!           ▼
//!   frames ──► mpsc job queue ──► fixed worker pool (N std threads)
//!                                    │  content-addressed cache
//!                                    │  (one Arc<Entry> each, LRU)
//!                                    ▼
//!              completion queue (worker → poll loop, wake via pipe)
//!                                    ▼
//!              per-connection write queue → nonblocking writes
//! ```
//!
//! Workers pull jobs from one shared queue, so requests from all
//! connections interleave freely; responses echo the request `id`, and
//! a pipelined client must match on it (two requests on one connection
//! may complete out of order — completions are written back in the
//! order workers finish them, not the order frames arrived). Each
//! worker owns a single-threaded [`Engine`], making the pool size the
//! daemon's one parallelism knob: a worker that pulls a job while the
//! rest of the pool is idle borrows the spare slots and runs that
//! request on a boosted engine (`threads = 1 + spares`), so exact
//! branch-and-bound solves use the parallel partition sweep when the
//! daemon has capacity — total solving threads stay bounded by
//! `--workers` at reservation time.
//!
//! Every request reaches its instance through one handle, the cache's
//! [`Entry`]: a solve, a deadline sweep, a batch job, a corpus job, a
//! patch and an `as_of` rewind all get an `Arc<Entry>` from the cache
//! and solve through its Vdd warm slot, walk curves through its curve
//! slot, and leave every store write to the cache.
//!
//! `shutdown` closes the listener at once, answers every admitted
//! request, flushes every write queue, closes **all** registered
//! sockets (idle connections included — nothing lingers waiting for
//! the peer), and joins the workers. A connection that sends bytes
//! mid-drain is not admitted; its socket is closed with the rest.

use crate::cache::{CacheConfig, Entry, InstanceCache, PatchError, Prepared};
use crate::net::{Poller, WAKE_TOKEN};
use crate::proto::{
    frame, key_to_hex, write_frame, CurveExactReport, ErrorBody, ErrorKind, FrameBuffer,
    LineageReport, PatchReport, Request, RequestEnvelope, Response, ResponseEnvelope,
    SharedNetStats, SolveReport, StatsReport, MIN_PROTOCOL_VERSION,
};
use crate::store::Store;
use models::{EnergyModel, PowerLaw};
use reclaim_core::engine::content_key;
use reclaim_core::Engine;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use taskgraph::profiling::{self, SharedCounts};
use taskgraph::{PreparedInstance, TaskGraph};

/// Where a daemon listens / where a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (the default transport).
    Unix(PathBuf),
    /// A TCP address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to bind (ignored when `tcp` is set).
    pub socket: PathBuf,
    /// Optional TCP bind address (e.g. `127.0.0.1:0`); overrides the
    /// Unix socket.
    pub tcp: Option<String>,
    /// Worker pool size (defaults to available parallelism).
    pub workers: usize,
    /// Cache budgets.
    pub cache: CacheConfig,
    /// The power law every solve uses.
    pub power: PowerLaw,
    /// Accept cap: connections past this are answered with one
    /// `protocol` error frame and closed (counted in `rejected`).
    pub max_connections: usize,
    /// Per-connection admission bound: at most this many requests from
    /// one connection may sit in the job queue / workers at once.
    /// Past it the poll loop stops reading the socket (backpressure —
    /// the peer's sends back up in the kernel buffer) instead of
    /// buffering frames unboundedly.
    pub max_inflight: usize,
    /// Directory of the disk-backed instance store (`--store`). When
    /// set the daemon boots by scanning it (restarting **warm**) and
    /// spills instances, curves, and patch lineage write-through.
    pub store: Option<PathBuf>,
    /// Fsync every store write (`--store-fsync`). Off by default:
    /// kill -9 is survived either way (records are checksummed), the
    /// flag buys power-failure durability at a latency cost.
    pub store_fsync: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("reclaimd.sock"),
            tcp: None,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache: CacheConfig::default(),
            power: PowerLaw::CUBIC,
            max_connections: 1024,
            max_inflight: 32,
            store: None,
            store_fsync: false,
        }
    }
}

/// Parse `reclaimd`-style flags into a config (shared by the
/// `reclaimd` binary and `reclaim serve`).
///
/// ```text
/// --socket PATH        unix socket path   (default reclaimd.sock)
/// --tcp ADDR           listen on TCP instead (e.g. 127.0.0.1:7421)
/// --workers N          worker pool size   (default: CPUs)
/// --cache-entries N    cache entry budget (default 64)
/// --cache-bytes B      cache byte budget  (default 256 MiB)
/// --alpha A            power-law exponent (default 3)
/// --max-connections N  accept cap         (default 1024)
/// --max-inflight N     per-connection admission bound (default 32)
/// --store DIR          disk-backed instance store (boots warm)
/// --store-fsync        fsync every store write (default: OS-buffered)
/// ```
pub fn config_from_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .cloned()
        };
        let count = |v: String| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{flag} needs an integer ≥ 1"))
        };
        match flag.as_str() {
            "--socket" => cfg.socket = PathBuf::from(value()?),
            "--tcp" => cfg.tcp = Some(value()?),
            "--workers" => cfg.workers = count(value()?)?,
            "--cache-entries" => cfg.cache.max_entries = count(value()?)?,
            "--cache-bytes" => {
                cfg.cache.max_bytes = value()?
                    .parse::<usize>()
                    .map_err(|_| "--cache-bytes needs an integer")?;
            }
            "--alpha" => {
                let a: f64 = value()?.parse().map_err(|_| "--alpha needs a number")?;
                if !(a.is_finite() && a > 1.0) {
                    return Err("--alpha must be finite and > 1".into());
                }
                cfg.power = PowerLaw::new(a);
            }
            "--max-connections" => cfg.max_connections = count(value()?)?,
            "--max-inflight" => cfg.max_inflight = count(value()?)?,
            "--store" => cfg.store = Some(PathBuf::from(value()?)),
            "--store-fsync" => cfg.store_fsync = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cfg)
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A connected socket of either family: what the poll loop and the
/// client need of it (`Sync` keeps [`crate::client::Client`] `Sync`).
pub(crate) trait Socket: Read + Write + AsRawFd + Send + Sync {
    /// Switch between blocking and nonblocking I/O.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl Socket for UnixStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

impl Socket for TcpStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

/// A connected socket, as one readable/writable object.
pub(crate) type Stream = Box<dyn Socket>;

/// Connect to `ep`. TCP sockets send at once: frames are small
/// request/response pairs, and latency beats batching.
pub(crate) fn connect(ep: &Endpoint) -> io::Result<Stream> {
    Ok(match ep {
        Endpoint::Unix(p) => Box::new(UnixStream::connect(p)?),
        Endpoint::Tcp(a) => {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            Box::new(s)
        }
    })
}

struct State {
    /// The instance cache, and through it the disk store (`--store`).
    cache: InstanceCache,
    power: PowerLaw,
    /// Socket-layer counters, shared between the poll loop (which owns
    /// the sockets) and the workers (which answer `stats` and count
    /// timeouts).
    net: SharedNetStats,
    /// Each worker's running total of its requests' work counts
    /// ([`taskgraph::profiling`]), one delta added per request.
    workers: Vec<SharedCounts>,
    /// Thread slots currently in use across the pool: each busy
    /// worker holds one, plus any spare slots it borrowed for a
    /// parallel exact search. The invariant `active ≤ workers.len()`
    /// keeps the daemon's total solving threads bounded by
    /// `--workers` no matter how solves and borrows interleave.
    active: AtomicU64,
}

/// Reserve every currently-idle pool slot for one request's parallel
/// search. Returns how many extra slots were borrowed (0 when the
/// pool is saturated); the caller must release `1 + extra` slots when
/// the request completes.
fn reserve_spares(active: &AtomicU64, pool: u64) -> u64 {
    let mut cur = active.load(Ordering::Relaxed);
    loop {
        if cur >= pool {
            return 0;
        }
        let extra = pool - cur;
        match active.compare_exchange_weak(cur, cur + extra, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return extra,
            Err(observed) => cur = observed,
        }
    }
}

/// One admitted frame, queued for the worker pool. `token` names the
/// connection it arrived on; the worker's answer travels back to the
/// poll loop as a [`Completion`] under the same token.
struct Job {
    token: u64,
    payload: String,
    /// When the frame was admitted — per-request `timeout_ms` budgets
    /// are measured from here, so queue wait counts against them.
    enqueued: Instant,
}

/// A finished job on its way back to the poll loop.
struct Completion {
    token: u64,
    /// The already-encoded response payload.
    payload: String,
    /// The job was `shutdown`: the loop starts draining.
    stop: bool,
}

/// A bound-but-not-yet-running daemon. Binding and running are split
/// so callers (tests, the X7 experiment) can learn the resolved
/// endpoint — e.g. the ephemeral port of `--tcp 127.0.0.1:0` — before
/// blocking in [`Daemon::run`].
pub struct Daemon {
    listener: Listener,
    endpoint: Endpoint,
    cfg: DaemonConfig,
    state: Arc<State>,
}

impl Daemon {
    /// Bind the socket. For Unix endpoints a stale socket file from a
    /// dead daemon is removed first.
    pub fn bind(cfg: DaemonConfig) -> io::Result<Daemon> {
        let (listener, endpoint) = match &cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let ep = Endpoint::Tcp(l.local_addr()?);
                (Listener::Tcp(l), ep)
            }
            None => {
                if cfg.socket.exists() {
                    // Refuse to steal a live daemon's socket; only a
                    // dead one (nothing accepting) is reclaimed.
                    if UnixStream::connect(&cfg.socket).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("{} already has a live daemon", cfg.socket.display()),
                        ));
                    }
                    std::fs::remove_file(&cfg.socket)?;
                }
                let l = UnixListener::bind(&cfg.socket)?;
                (Listener::Unix(l), Endpoint::Unix(cfg.socket.clone()))
            }
        };
        let workers = cfg.workers.max(1);
        // Open (and recovery-scan) the store before serving: the very
        // first request after a restart already sees the warm state.
        let store = match &cfg.store {
            Some(dir) => Some(Arc::new(Store::open(dir, cfg.store_fsync)?)),
            None => None,
        };
        let state = Arc::new(State {
            cache: InstanceCache::with_store(cfg.cache, store),
            power: cfg.power,
            net: SharedNetStats::default(),
            workers: (0..workers).map(|_| SharedCounts::default()).collect(),
            active: AtomicU64::new(0),
        });
        Ok(Daemon {
            listener,
            endpoint,
            cfg,
            state,
        })
    }

    /// The resolved endpoint clients should connect to.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Serve until a `shutdown` request arrives, then drain and
    /// return. Consumes the daemon; the socket file (Unix) is removed
    /// as soon as the drain starts.
    pub fn run(self) -> io::Result<()> {
        let Daemon {
            listener,
            endpoint,
            cfg,
            state,
        } = self;
        let poller = Arc::new(Poller::new()?);
        listener.set_nonblocking()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let worker_handles = (0..state.workers.len())
            .map(|worker_id| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                let completions = Arc::clone(&completions);
                let poller = Arc::clone(&poller);
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(worker_id, &rx, &state, &completions, &poller))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut el = EventLoop {
            poller,
            listener: Some(listener),
            unlink: matches!(endpoint, Endpoint::Unix(_)).then(|| cfg.socket.clone()),
            conns: HashMap::new(),
            next_token: 0,
            tx,
            completions,
            state,
            max_connections: cfg.max_connections.max(1),
            max_inflight: cfg.max_inflight.max(1),
            draining: false,
            drain_deadline: None,
        };
        let state_for_drain = Arc::clone(&el.state);
        let result = el.run();
        // Dropping the loop drops the job-queue sender: workers finish
        // what they pulled and exit on the closed channel.
        drop(el);
        for h in worker_handles {
            let _ = h.join();
        }
        // A clean shutdown persists exactly what a restart recovers:
        // every live entry (analyses + retained curve) spills once the
        // workers can no longer mutate the cache.
        state_for_drain.cache.spill_all();
        result
    }
}

impl Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }
}

/// Token the listener is registered under (connection tokens count up
/// from zero and can never collide with it in one daemon lifetime).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Payloads at or under this size are decoded inline by the poll
/// loop, so `stats` and `shutdown` are answered without consuming a
/// worker slot (or waiting behind queued solves). Solve payloads —
/// always larger — skip the inline attempt entirely.
const INLINE_MAX: usize = 512;

/// Per-connection cap on answer bytes waiting unflushed: past it the
/// poll loop stops reading that socket (inline answers count too), so
/// a peer that sends without reading backs up into its own kernel
/// buffer instead of the daemon's memory. Reading resumes as the
/// queue flushes.
const MAX_UNFLUSHED: usize = 1 << 20;

/// How long the drain waits for peers to read their final responses
/// once every admitted request is answered.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Stack size of each worker thread. SP recognition, tree
/// normalization, the equivalent-weight fold, the store codec and a
/// tree's `Drop` all recurse as deep as the decomposition tree, and a
/// stack overflow aborts the whole process: a chain of 1,500
/// triple-branch blocks (6,001 tasks, one ~117 KB `solve` frame)
/// overflows the default 2 MiB stack.
const WORKER_STACK: usize = 64 << 20;

/// One registered connection, owned by the poll loop.
struct Conn {
    stream: Stream,
    /// Bytes read but not yet admitted as frames.
    rbuf: FrameBuffer,
    /// Encoded response frames awaiting a writable socket.
    wqueue: VecDeque<Vec<u8>>,
    /// Progress into the front of `wqueue`.
    wpos: usize,
    /// Bytes of `wqueue` not yet written.
    unflushed: usize,
    /// Admitted-but-unanswered requests from this connection.
    inflight: usize,
    /// No more reads: EOF, a framing violation, or a drain.
    read_closed: bool,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuffer::new(),
            wqueue: VecDeque::new(),
            wpos: 0,
            unflushed: 0,
            inflight: 0,
            read_closed: false,
            reg_read: true,
            reg_write: false,
        }
    }

    /// Queue a response payload as its [`frame`] bytes.
    fn queue(&mut self, payload: &str) {
        let frame = frame(payload);
        self.unflushed += frame.len();
        self.wqueue.push_back(frame);
    }
}

/// The daemon's poll loop: owns the listener, every connection socket,
/// and the job-queue sender. See the module docs for the flow.
struct EventLoop {
    poller: Arc<Poller>,
    listener: Option<Listener>,
    /// Unix socket path to unlink when the drain starts.
    unlink: Option<PathBuf>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    tx: mpsc::Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    state: Arc<State>,
    max_connections: usize,
    max_inflight: usize,
    draining: bool,
    /// Set once the drain has answered everything; force-closes
    /// unflushed peers after [`DRAIN_GRACE`].
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        loop {
            // Block indefinitely while serving; poll on a short tick
            // while draining so the grace deadline is observed.
            let timeout_ms = if self.draining { 50 } else { -1 };
            let events = self.poller.wait(timeout_ms)?;
            for ev in events {
                match ev.token {
                    // The wake pipe: completions are drained below.
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    // A writable event just re-drives the connection:
                    // drive_conn flushes whatever is queued.
                    token if ev.readable || ev.writable => {
                        self.handle_conn_event(token, ev.readable);
                    }
                    _ => {}
                }
            }
            self.drain_completions();
            if self.draining && self.sweep_drain() {
                return Ok(());
            }
        }
    }

    /// Accept until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let accepted = match listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Box::new(s) as Stream),
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Box::new(s) as Stream
                }),
            };
            match accepted {
                Ok(stream) => {
                    if self.conns.len() >= self.max_connections {
                        self.state.net.rejected.fetch_add(1, Ordering::Relaxed);
                        // Best-effort diagnostic before the close; the
                        // peer's version is unknowable, so answer at
                        // the minimum every supported client accepts.
                        let resp = ResponseEnvelope {
                            version: MIN_PROTOCOL_VERSION,
                            id: 0,
                            response: Response::Error(ErrorBody::new(
                                ErrorKind::Protocol,
                                format!(
                                    "connection limit reached ({} open, --max-connections {})",
                                    self.conns.len(),
                                    self.max_connections
                                ),
                            )),
                        };
                        let mut stream = stream;
                        let _ = write_frame(&mut stream, &resp.encode());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.state.net.connections.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // A transient accept failure is not fatal.
                    eprintln!("reclaimd: accept failed: {e}");
                    return;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, readable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if self.drive_conn(token, &mut conn, readable) {
            self.conns.insert(token, conn);
        } else {
            self.close_conn(conn);
        }
    }

    /// Advance one connection: read what's there, admit frames, flush
    /// responses, refresh poller interest. Returns whether the
    /// connection stays registered.
    fn drive_conn(&mut self, token: u64, conn: &mut Conn, readable: bool) -> bool {
        if readable && !self.read_into(token, conn) {
            return false;
        }
        // Admission may have been blocked earlier; parked frames in
        // the read buffer get another chance whenever the connection
        // is driven (after completions), and again after every flush
        // that frees room under the unflushed cap — the peer may have
        // nothing more to send that would wake this connection.
        loop {
            self.admit_frames(token, conn);
            let queued = conn.unflushed;
            if !flush(conn) {
                return false;
            }
            if conn.unflushed == queued || !self.admits(conn) {
                break;
            }
        }
        // Close once nothing more can arrive or depart: read side
        // done, every admitted request answered, every answer flushed.
        if conn.read_closed && conn.inflight == 0 && conn.wqueue.is_empty() {
            return false;
        }
        let want_read = self.admits(conn);
        let want_write = !conn.wqueue.is_empty();
        if (want_read, want_write) != (conn.reg_read, conn.reg_write) {
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want_read, want_write);
            conn.reg_read = want_read;
            conn.reg_write = want_write;
        }
        true
    }

    /// The one admission rule: read and admit frames from `conn` only
    /// while it is open for reading, the daemon is not draining, its
    /// admitted requests are under `--max-inflight` and its unflushed
    /// answers are within [`MAX_UNFLUSHED`].
    fn admits(&self, conn: &Conn) -> bool {
        !conn.read_closed
            && !self.draining
            && conn.inflight < self.max_inflight
            && conn.unflushed <= MAX_UNFLUSHED
    }

    /// Nonblocking reads into the connection's frame buffer, admitting
    /// frames between chunks so the admission rule bounds how much one
    /// burst can buffer. Returns false when the socket errored.
    fn read_into(&mut self, token: u64, conn: &mut Conn) -> bool {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if !self.admits(conn) {
                return true;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    if !conn.rbuf.is_empty() {
                        // Mid-frame EOF: same one-frame diagnostic the
                        // framing-violation path produces.
                        self.queue_inline_error(
                            conn,
                            0,
                            ErrorBody::new(
                                ErrorKind::Protocol,
                                "connection closed mid-frame".to_string(),
                            ),
                        );
                    }
                    return true;
                }
                Ok(n) => {
                    conn.rbuf.push(&buf[..n]);
                    self.admit_frames(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Move complete frames out of the read buffer and dispatch them,
    /// stopping where the admission rule does (backpressure) or at a
    /// drain.
    fn admit_frames(&mut self, token: u64, conn: &mut Conn) {
        while self.admits(conn) {
            match conn.rbuf.next_frame() {
                Ok(Some(payload)) => self.dispatch(token, conn, payload),
                Ok(None) => return,
                Err(e) => {
                    // Framing violation: report once, then stop
                    // reading — resynchronization is not possible.
                    self.queue_inline_error(
                        conn,
                        0,
                        ErrorBody::new(ErrorKind::Protocol, e.to_string()),
                    );
                    conn.read_closed = true;
                    return;
                }
            }
        }
    }

    /// Route one admitted frame: `stats`/`shutdown` (and undecodable
    /// small payloads) are answered inline by the poll loop; real work
    /// goes to the worker pool.
    fn dispatch(&mut self, token: u64, conn: &mut Conn, payload: String) {
        if payload.len() <= INLINE_MAX {
            match RequestEnvelope::decode(&payload) {
                Ok(env) => match env.request {
                    Request::Stats => {
                        let resp = ResponseEnvelope {
                            version: env.version,
                            id: env.id,
                            response: Response::Stats(stats_report(&self.state)),
                        };
                        conn.queue(&resp.encode());
                        return;
                    }
                    Request::Shutdown => {
                        let resp = ResponseEnvelope {
                            version: env.version,
                            id: env.id,
                            response: Response::Shutdown,
                        };
                        conn.queue(&resp.encode());
                        self.start_drain();
                        return;
                    }
                    _ => {} // worker-pool work; the worker re-decodes
                },
                Err(e) => {
                    self.queue_inline_error(conn, RequestEnvelope::id_of(&payload), e);
                    return;
                }
            }
        }
        conn.inflight += 1;
        self.state.net.inflight.fetch_add(1, Ordering::Relaxed);
        self.state.net.queue_depth.fetch_add(1, Ordering::Relaxed);
        // Send can only fail after the workers exited, i.e. never
        // while frames are still being admitted.
        let _ = self.tx.send(Job {
            token,
            payload,
            enqueued: Instant::now(),
        });
    }

    /// Queue an error the poll loop produced itself (framing or
    /// decode): answered at the minimum version every supported
    /// client accepts, under the frame's own `id` when it has one
    /// ([`RequestEnvelope::id_of`]) and 0 for framing violations —
    /// byte-identical to the worker path's answer for the same frame.
    fn queue_inline_error(&mut self, conn: &mut Conn, id: u64, e: ErrorBody) {
        let resp = ResponseEnvelope {
            version: MIN_PROTOCOL_VERSION,
            id,
            response: Response::Error(e),
        };
        conn.queue(&resp.encode());
    }

    /// Move finished jobs from the workers into their connections'
    /// write queues and drive those connections.
    fn drain_completions(&mut self) {
        let completed = {
            let mut q = self
                .completions
                .lock()
                .expect("completion queue lock poisoned");
            std::mem::take(&mut *q)
        };
        for c in completed {
            self.state.net.inflight.fetch_sub(1, Ordering::Relaxed);
            if c.stop {
                self.start_drain();
            }
            // The connection may already be gone (peer vanished
            // mid-solve): the answer is dropped, as it was when the
            // per-connection writer hit a broken pipe.
            let Some(mut conn) = self.conns.remove(&c.token) else {
                continue;
            };
            conn.inflight -= 1;
            conn.queue(&c.payload);
            if self.drive_conn(c.token, &mut conn, false) {
                self.conns.insert(c.token, conn);
            } else {
                self.close_conn(conn);
            }
        }
    }

    /// Begin draining: stop accepting at once (the socket file goes
    /// away with the listener), answer what was admitted, then close
    /// everything.
    fn start_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            drop(listener);
        }
        if let Some(path) = self.unlink.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// One drain step: close every connection with nothing left to
    /// deliver (idle peers included — nothing lingers), and decide
    /// whether the loop can exit.
    fn sweep_drain(&mut self) -> bool {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.inflight == 0 && c.wqueue.is_empty())
            .map(|(t, _)| *t)
            .collect();
        for token in done {
            if let Some(conn) = self.conns.remove(&token) {
                self.close_conn(conn);
            }
        }
        let inflight = self.state.net.inflight.load(Ordering::Relaxed);
        if inflight == 0 && self.conns.is_empty() {
            return true;
        }
        if inflight == 0 {
            // Everything is answered; only unflushed peers remain.
            let deadline = *self
                .drain_deadline
                .get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            if Instant::now() >= deadline {
                for (_, conn) in std::mem::take(&mut self.conns) {
                    self.close_conn(conn);
                }
                return true;
            }
        } else {
            self.drain_deadline = None;
        }
        false
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.state.net.connections.fetch_sub(1, Ordering::Relaxed);
        // Dropping the stream closes the socket.
    }
}

/// Flush the write queue until empty or the socket would block.
/// Returns false when the peer is gone.
fn flush(conn: &mut Conn) -> bool {
    loop {
        let Some(front) = conn.wqueue.front() else {
            return true;
        };
        match conn.stream.write(&front[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wpos += n;
                conn.unflushed -= n;
                if conn.wpos == front.len() {
                    conn.wqueue.pop_front();
                    conn.wpos = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn worker_loop(
    worker_id: usize,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    state: &State,
    completions: &Arc<Mutex<Vec<Completion>>>,
    poller: &Arc<Poller>,
) {
    let engine = Engine::new(state.power).threads(1);
    let pool = state.workers.len() as u64;
    loop {
        let job = match rx.lock().expect("job queue lock poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: daemon is draining
        };
        state.net.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // Go active, then borrow whatever is left of the pool for this
        // request: an exact search on a boosted engine (`threads ≥ 2`)
        // runs the parallel partition sweep on the borrowed slots.
        // The borrow is sized so the pool's slot count is respected at
        // reservation time; jobs arriving mid-solve still get served
        // (they time-share rather than wait).
        state.active.fetch_add(1, Ordering::AcqRel);
        let extra = reserve_spares(&state.active, pool);
        // The work counts are thread-local, and every fan-out folds
        // its threads' counts into the calling thread — this one. The
        // delta across the request is exactly this request's work.
        let before = profiling::counts();
        profiling::record(|c| c.requests += 1);
        let (resp, stop) = if extra > 0 {
            let boosted = engine.clone().threads(1 + extra as usize);
            handle_payload(&job.payload, worker_id, state, &boosted, job.enqueued)
        } else {
            handle_payload(&job.payload, worker_id, state, &engine, job.enqueued)
        };
        // Flush the delta strictly before the response is handed to
        // the poll loop: a client that has seen this response and then
        // asks for `stats` (even as the last request before
        // `shutdown`) must see this request's counts, exactly once —
        // no flush may ride on a worker surviving past the drain. The
        // adds are relaxed: the completion queue's lock, released
        // after them and taken by the poll loop before it writes the
        // answer, orders them before any later `stats` read.
        state.workers[worker_id].add(profiling::counts() - before);
        state.active.fetch_sub(1 + extra, Ordering::AcqRel);
        // Encode outside the lock: nothing that runs while it is held
        // may panic and poison the poll loop's completion queue.
        let payload = resp.encode();
        completions
            .lock()
            .expect("completion queue lock poisoned")
            .push(Completion {
                token: job.token,
                payload,
                stop,
            });
        // Wake the poll loop so the answer reaches its write queue.
        poller.notify();
    }
}

/// The live stats snapshot, shared by the poll loop's inline `stats`
/// path and the worker path (a `stats` payload an odd client padded
/// past [`INLINE_MAX`] still answers identically).
fn stats_report(state: &State) -> StatsReport {
    StatsReport {
        cache: state.cache.stats(),
        store: state.cache.store().map(Store::stats).unwrap_or_default(),
        net: state.net.load(),
        workers: state.workers.iter().map(SharedCounts::load).collect(),
    }
}

/// Count one solve of `ns` nanoseconds in this thread's ledger.
fn record_solve(ns: u64) {
    profiling::record(|c| {
        c.solves += 1;
        c.solve_ns += ns;
    });
}

/// Decode, dispatch, and answer one frame payload. `enqueued` is when
/// the poll loop admitted the frame: a request carrying a
/// `timeout_ms` budget that already out-waited it in the queue is
/// answered with the `timeout` error kind instead of being solved.
fn handle_payload(
    payload: &str,
    worker_id: usize,
    state: &State,
    engine: &Engine,
    enqueued: Instant,
) -> (ResponseEnvelope, bool) {
    let env = match RequestEnvelope::decode(payload) {
        Ok(env) => env,
        Err(e) => {
            // The request never decoded, so its version is unknown:
            // answer at the minimum version every supported client
            // accepts, so a v1-only peer sees the real diagnostic
            // instead of a version error of its own.
            return (
                ResponseEnvelope {
                    version: MIN_PROTOCOL_VERSION,
                    id: RequestEnvelope::id_of(payload),
                    response: Response::Error(e),
                },
                false,
            );
        }
    };
    let id = env.id;
    let version = env.version;
    if let Some(budget_ms) = env.timeout_ms {
        let waited = enqueued.elapsed();
        if waited >= Duration::from_millis(budget_ms) {
            state.net.timeouts.fetch_add(1, Ordering::Relaxed);
            return (
                ResponseEnvelope {
                    version,
                    id,
                    response: Response::Error(ErrorBody::new(
                        ErrorKind::Timeout,
                        format!(
                            "request waited {} ms in queue, over its timeout_ms budget of {budget_ms} ms; not solved",
                            waited.as_millis()
                        ),
                    )),
                },
                false,
            );
        }
    }
    // `as_of` (v5) rewinds a solve/energy_curve to a historical
    // version; on any other request type it is a client error, not
    // silence.
    if env.as_of.is_some()
        && !matches!(
            env.request,
            Request::Solve { .. } | Request::EnergyCurve { .. }
        )
    {
        return (
            ResponseEnvelope {
                version,
                id,
                response: Response::Error(ErrorBody::new(
                    ErrorKind::BadRequest,
                    "\"as_of\" applies only to solve and energy_curve requests".to_string(),
                )),
            },
            false,
        );
    }
    let as_of = env.as_of;
    let mut stop = false;
    let response = match env.request {
        Request::Solve {
            graph,
            model,
            deadline,
        } => {
            let solved =
                prepare_as_of(state, graph, &model, as_of).and_then(|(entry, cached, prep_ns)| {
                    timed_solve(engine, worker_id, &entry, deadline, cached, prep_ns)
                        .map_err(|e| ErrorBody::from(&e))
                });
            match solved {
                Ok(report) => Response::Solve(report),
                Err(e) => Response::Error(e),
            }
        }
        Request::SolveDeadlines {
            graph,
            model,
            deadlines,
        } => {
            let (entry, cached, prep_ns) = prepare(state, graph, &model);
            let items = deadlines
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    // Preparation cost is attributed to the first item.
                    let prep_ns = if i == 0 { prep_ns } else { 0 };
                    timed_solve(engine, worker_id, &entry, d, cached, prep_ns)
                        .map_err(|e| ErrorBody::from(&e))
                })
                .collect();
            Response::Deadlines(items)
        }
        Request::EnergyCurve {
            graph,
            model,
            points,
            lo,
            hi,
            exact,
        } => match prepare_as_of(state, graph, &model, as_of) {
            Err(e) => Response::Error(e),
            Ok((entry, _, _)) => {
                let t0 = Instant::now();
                let result = if exact {
                    curve_exact_one(state, engine, &entry, lo, hi)
                } else {
                    engine
                        .energy_curve(&entry.inst.view(), &entry.model, points, lo, hi)
                        .map(|curve| {
                            Response::Curve(curve.iter().map(|p| (p.deadline, p.energy)).collect())
                        })
                        .unwrap_or_else(|e| Response::Error(ErrorBody::from(&e)))
                };
                record_solve(t0.elapsed().as_nanos() as u64);
                result
            }
        },
        Request::Batch { model, jobs } => Response::Batch(
            jobs.into_iter()
                .map(|(graph, deadline)| {
                    let (entry, cached, prep_ns) = prepare(state, graph, &model);
                    timed_solve(engine, worker_id, &entry, deadline, cached, prep_ns)
                        .map_err(|e| ErrorBody::from(&e))
                })
                .collect(),
        ),
        // Normally answered inline by the poll loop; kept here so a
        // padded (>INLINE_MAX) stats payload still answers correctly.
        Request::Stats => Response::Stats(stats_report(state)),
        Request::Corpus { shards, jobs } => corpus_one(state, engine, shards, jobs),
        Request::Patch {
            base,
            edits,
            deadline,
        } => patch_one(state, engine, worker_id, base, &edits, deadline),
        Request::Lineage { key } => match state.cache.store() {
            Some(store) => {
                let hops = store.lineage_of(key);
                Response::Lineage(LineageReport {
                    key,
                    depth: hops.len() as u64,
                    hops,
                })
            }
            None => Response::Error(ErrorBody::new(
                ErrorKind::BadRequest,
                "\"lineage\" requires a daemon started with --store".to_string(),
            )),
        },
        Request::Shutdown => {
            stop = true;
            Response::Shutdown
        }
    };
    (
        ResponseEnvelope {
            version,
            id,
            response,
        },
        stop,
    )
}

/// Handle one v4 `corpus` request: the same deterministic
/// content-addressed sharding and shard assembly as
/// [`crate::corpus::run_corpus`] ([`crate::corpus::partition`],
/// [`crate::corpus::run_shard`]), but solved through the daemon's
/// content-addressed cache —
/// repeat instances skip preparation, and Vdd-Hopping solves ride the
/// entry's retained flow. Shards run sequentially on this worker;
/// cross-shard parallelism comes from the pool, not from nested
/// threads — the solves are pinned to one thread (never the borrowed
/// spare slots) so algorithm tags, and therefore shard manifests, are
/// byte-identical to a local `reclaim corpus` run of the same jobs
/// regardless of how busy the daemon happens to be.
fn corpus_one(
    state: &State,
    engine: &Engine,
    shards: usize,
    jobs: Vec<crate::corpus::CorpusJob>,
) -> Response {
    let engine = &engine.clone().threads(1);
    let shards = shards.max(1);
    let buckets = match crate::corpus::partition(jobs, shards) {
        Ok(buckets) => buckets,
        Err(e) => return Response::Error(ErrorBody::new(ErrorKind::BadRequest, e)),
    };
    let outcomes = buckets
        .into_iter()
        .enumerate()
        .map(|(shard, bucket)| {
            let outcome =
                crate::corpus::run_shard(shard, shards, bucket, |key, graph, model, deadline| {
                    let (entry, _, _) = prepare(state, graph, model);
                    debug_assert_eq!(key, entry.key);
                    profiling::record(|c| c.solves += 1);
                    entry.with_warm(|warm| {
                        engine.solve_warm(&entry.inst.view(), &entry.model, deadline, warm)
                    })
                });
            profiling::record(|c| c.solve_ns += outcome.elapsed_ns as u64);
            outcome
        })
        .collect();
    Response::Corpus(outcomes)
}

/// Handle one v2 `patch`: edit the cached base instance in place
/// (selective invalidation + incremental re-key, see
/// [`InstanceCache::patch`]) and solve the result. Vdd-Hopping solves
/// route through the entry's retained flow when one is available
/// ([`Engine::solve_warm`]), so a weight-only patch skips graph
/// preparation *and* the cold solve.
fn patch_one(
    state: &State,
    engine: &Engine,
    worker_id: usize,
    base: u128,
    edits: &[taskgraph::edit::GraphEdit],
    deadline: f64,
) -> Response {
    let (entry, rewarm_ns) = match state.cache.patch(base, edits) {
        Ok(patched) => patched,
        Err(PatchError::UnknownBase) => {
            return Response::Error(ErrorBody::new(
                ErrorKind::UnknownBase,
                format!(
                    "no cached instance for base {} (send the full instance instead)",
                    crate::proto::key_to_hex(base)
                ),
            ))
        }
        Err(PatchError::Edit(e)) => {
            return Response::Error(ErrorBody::new(ErrorKind::BadRequest, e.to_string()))
        }
    };
    let prep_ns = rewarm_ns.unwrap_or(0);
    match timed_solve(engine, worker_id, &entry, deadline, true, prep_ns) {
        Ok(report) => Response::Patch(PatchReport {
            warm_lp: report.algorithm == "vdd-lp-warm",
            report,
            key: entry.key,
        }),
        Err(e) => Response::Error(ErrorBody::from(&e)),
    }
}

/// Cache-or-prepare the entry for `(graph, model)`, with what the
/// solve report says about it: `cached`, and `prep_ns`. A store
/// re-materialization counts as cached with `prep_ns 0` — preparation
/// was not re-paid, which is what the field measures.
fn prepare(state: &State, graph: TaskGraph, model: &EnergyModel) -> (Arc<Entry>, bool, u64) {
    let key = content_key(&graph, model);
    let t0 = Instant::now();
    let (entry, outcome) = state
        .cache
        .get_or_prepare(key, model, move || PreparedInstance::new(Arc::new(graph)));
    let prep_ns = if outcome.cached() {
        0
    } else {
        t0.elapsed().as_nanos() as u64
    };
    (entry, outcome.cached(), prep_ns)
}

/// [`prepare`], or — when the request carried `as_of: depth` (v5) —
/// the entry of the version `depth` recorded patches up the lineage
/// chain from `(graph, model)`'s content key: the live entry, or else
/// the store's (record, or O(edits) lineage replay), inserted into the
/// cache so repeat time-travel queries are plain hits
/// ([`InstanceCache::materialize`]). Historical versions always report
/// `cached: true`; `prep_ns` is the materialization cost (0 from RAM).
fn prepare_as_of(
    state: &State,
    graph: TaskGraph,
    model: &EnergyModel,
    as_of: Option<u64>,
) -> Result<(Arc<Entry>, bool, u64), ErrorBody> {
    let Some(depth) = as_of else {
        return Ok(prepare(state, graph, model));
    };
    let Some(store) = state.cache.store() else {
        return Err(ErrorBody::new(
            ErrorKind::BadRequest,
            "\"as_of\" requires a daemon started with --store".to_string(),
        ));
    };
    let key = content_key(&graph, model);
    let Some(ancestor) = store.ancestor_at(key, depth) else {
        return Err(ErrorBody::new(
            ErrorKind::BadRequest,
            format!(
                "no version {depth} patches before {}: the recorded lineage is shorter",
                key_to_hex(key)
            ),
        ));
    };
    let t0 = Instant::now();
    let Some((entry, outcome)) = state.cache.materialize(ancestor) else {
        return Err(ErrorBody::new(
            ErrorKind::BadRequest,
            format!(
                "historical version {} (as_of {depth}) is no longer materializable from the store",
                key_to_hex(ancestor)
            ),
        ));
    };
    let prep_ns = match outcome {
        Prepared::Hit => 0,
        _ => t0.elapsed().as_nanos() as u64,
    };
    Ok((entry, true, prep_ns))
}

/// Handle one v3 exact `energy_curve`: serve the entry's retained
/// curve when the deadline factors match (near-free repeat),
/// otherwise read it off the entry's retained Vdd flow, whose record
/// usually reaches the range when the daemon has solved the instance
/// before — and retain the result with the entry
/// ([`InstanceCache::retain_curve`]).
fn curve_exact_one(state: &State, engine: &Engine, entry: &Entry, lo: f64, hi: f64) -> Response {
    if let Some(curve) = entry.retained_curve(lo, hi) {
        return Response::CurveExact(CurveExactReport {
            segments: curve.segments.clone(),
            exact: curve.exact,
            cached_curve: true,
        });
    }
    let walked = entry.with_warm(|warm| {
        engine.energy_curve_exact_warm(&entry.inst.view(), &entry.model, lo, hi, warm)
    });
    match walked {
        Ok(curve) => {
            let curve = Arc::new(curve);
            state.cache.retain_curve(entry, lo, hi, Arc::clone(&curve));
            Response::CurveExact(CurveExactReport {
                segments: curve.segments.clone(),
                exact: curve.exact,
                cached_curve: false,
            })
        }
        Err(e) => Response::Error(ErrorBody::from(&e)),
    }
}

/// Solve `entry` at `deadline` and time it. Vdd-Hopping solves go
/// through the entry's warm slot: the first solve retains its optimal
/// flow there, so later solves — and especially weight-only `patch`
/// re-solves — re-optimize instead of augmenting from zero flow
/// again.
fn timed_solve(
    engine: &Engine,
    worker_id: usize,
    entry: &Entry,
    deadline: f64,
    cached: bool,
    prep_ns: u64,
) -> Result<SolveReport, reclaim_core::SolveError> {
    let t0 = Instant::now();
    let result =
        entry.with_warm(|warm| engine.solve_warm(&entry.inst.view(), &entry.model, deadline, warm));
    let solve_ns = t0.elapsed().as_nanos() as u64;
    record_solve(solve_ns);
    result.map(|sol| SolveReport {
        energy: sol.energy,
        algorithm: sol.algorithm.to_string(),
        makespan: sol.schedule.makespan(entry.inst.graph()),
        solve_ns,
        prep_ns,
        cached,
        worker: worker_id as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<DaemonConfig, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        config_from_args(&args)
    }

    #[test]
    fn every_flag_error_names_its_flag() {
        for flag in [
            "--workers",
            "--cache-entries",
            "--max-connections",
            "--max-inflight",
        ] {
            for bad in ["0", "x", "-1"] {
                let want = format!("{flag} needs an integer ≥ 1");
                assert_eq!(parse(&[flag, bad]).unwrap_err(), want);
            }
            let want = format!("{flag} requires a value");
            assert_eq!(parse(&[flag]).unwrap_err(), want);
        }
        let err = |words: &[&str]| parse(words).unwrap_err();
        assert_eq!(
            err(&["--cache-bytes", "x"]),
            "--cache-bytes needs an integer"
        );
        assert_eq!(err(&["--alpha", "1"]), "--alpha must be finite and > 1");
        assert_eq!(err(&["--warp"]), r#"unknown flag "--warp""#);

        let cfg = parse(&[
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--cache-entries",
            "8",
            "--cache-bytes",
            "4096",
            "--alpha",
            "2.5",
            "--max-connections",
            "5",
            "--max-inflight",
            "2",
            "--store",
            "store-dir",
            "--store-fsync",
        ])
        .unwrap();
        assert_eq!(cfg.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.workers, 3);
        assert_eq!((cfg.cache.max_entries, cfg.cache.max_bytes), (8, 4096));
        assert_eq!(cfg.power.alpha(), 2.5);
        assert_eq!((cfg.max_connections, cfg.max_inflight), (5, 2));
        assert_eq!(cfg.store, Some(PathBuf::from("store-dir")));
        assert!(cfg.store_fsync);
    }
}
