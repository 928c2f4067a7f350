//! The daemon: an event-loop TCP server speaking the line protocol,
//! one [`SessionRegistry`] shared by every connection (DESIGN.md §12).
//!
//! One loop thread owns an [`igp_net::Poller`] (epoll on Linux) with the
//! listener, a [`igp_net::Waker`], and every client socket registered
//! nonblocking. Each connection is a small state machine — incremental
//! line framing into reused per-connection buffers, a graph-upload
//! sub-state for `OPEN`, and a buffered write queue with backpressure —
//! so ten thousand idle sessions cost zero wakeups, not ten thousand
//! 200ms poll syscalls. CPU-heavy verbs (repartition, WAL append,
//! snapshot — anything that locks a session) run on a fixed
//! [`igp_net::WorkerPool`]; the loop never blocks on them. A connection
//! has at most one job in flight and is parked (`Interest::NONE` on the
//! read side) until the reply is queued, which preserves the old
//! thread-per-connection ordering: replies in request order, and the
//! journal-before-ack guarantee holds because the reply string is only
//! produced *after* the worker's durable append returns.
//!
//! Shutdown choreography: `SHUTDOWN` (or [`ServerHandle::shutdown`])
//! raises the stop flag and wakes the loop via the waker — no more
//! throwaway loopback connection to unblock a blocking `accept`, and no
//! 200ms read-timeout polling to let idle connection threads notice the
//! flag. The loop then closes the listener, lets in-flight jobs finish
//! and their replies flush, joins the pool, and exits.

use crate::health::{DaemonHealth, ReplHealth, WorkerHealthHook};
use crate::protocol::{encode_hex_lines, parse_request, Request, StallTarget};
use crate::registry::SessionRegistry;
use crate::session::{Ingest, ServiceSession, SessionConfig};
use crate::ServiceError;
use igp_core::session::StepSummary;
use igp_graph::{io as graph_io, CsrGraph};
use igp_net::{Events, Interest, Poller, PoolHook, Token, Waker, WorkerPool};
use igp_obs::health::HealthState;
use igp_obs::trace::Span;
use igp_store::wal::HEADER_BYTES;
use igp_store::{decode_frames, SnapshotPolicy};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Registry lock shards.
    pub shards: usize,
    /// Admission control: max queued (unflushed) deltas per session;
    /// further `DELTA`s get a typed `ERR backpressure` until the client
    /// flushes (or the repartition policy drains the queue).
    pub queue_cap: usize,
    /// Durability root. `Some(dir)`: every session journals to
    /// `dir/<sid>/`, all sessions found under `dir` are recovered at
    /// boot, and `CLOSE` deletes the session's directory. `None`:
    /// memory-only (the pre-durability behaviour).
    pub data_dir: Option<PathBuf>,
    /// When durable sessions fold their WAL into a fresh snapshot.
    pub snapshot_policy: SnapshotPolicy,
    /// Follower mode: replicate every session from the primary at this
    /// address (requires `data_dir`). The daemon serves reads
    /// (`PART`/`STAT`/`LIST`/`METRICS`) and refuses write verbs with
    /// `ERR read-only` until promoted (`PROMOTE`, or `failover`).
    pub follow: Option<String>,
    /// Follower poll cadence: how often new WAL frames are fetched from
    /// the primary (doubles as the heartbeat interval).
    pub repl_interval: Duration,
    /// Follower auto-promotion: promote once the primary has been
    /// unreachable this long. `None` = promote only on explicit
    /// `PROMOTE`.
    pub failover: Option<Duration>,
    /// Worker threads for CPU-heavy verbs (everything that locks a
    /// session: `OPEN`/`DELTA`/`FLUSH`/`STAT`/`PART`/`CLOSE`/`REPL *`,
    /// plus replication ticks on a follower). `0` = auto: the machine's
    /// parallelism clamped to `[2, 4]` — the daemon's concurrency now
    /// comes from the event loop, not from thread count.
    pub workers: usize,
    /// Slow-request log threshold (µs): a request whose root trace span
    /// exceeds this emits a structured `warn!` with the full span
    /// breakdown (the `--slow-us` flag; `TRACE SLOW` changes it live).
    /// `None` leaves the process-wide threshold untouched.
    pub slow_us: Option<u64>,
    /// Ops-plane HTTP address (`--http`): a second listener on the same
    /// event loop serving `GET /metrics`, `/healthz`, `/readyz`,
    /// `/traces` and `/sessions` (DESIGN.md §14.1). `None` = no HTTP.
    pub http: Option<String>,
    /// Black-box dump directory (`--diag-dir`): a panic (and, in
    /// `igp-serve`, SIGTERM/SIGINT) writes a diagnostic bundle here
    /// (DESIGN.md §14.3). `None` = no dumps.
    pub diag_dir: Option<PathBuf>,
    /// Watchdog bar for the event loop: one loop iteration (readiness
    /// sweep + completions, poll wait excluded) busy past this is a
    /// stall.
    pub loop_stall: Duration,
    /// Watchdog bar for pool workers: one job busy past this is a
    /// stall. Generous by default — repartitions of large graphs are
    /// legitimately slow.
    pub worker_stall: Duration,
    /// Accept the `STALL` fault-injection verb (`--debug-stall`). Off
    /// by default; production daemons refuse it with `ERR proto`.
    pub debug_stall: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 16,
            queue_cap: 1024,
            data_dir: None,
            snapshot_policy: SnapshotPolicy::default(),
            follow: None,
            repl_interval: Duration::from_millis(50),
            failover: None,
            workers: 0,
            slow_us: None,
            http: None,
            diag_dir: None,
            loop_stall: Duration::from_millis(250),
            worker_stall: Duration::from_secs(60),
            debug_stall: false,
        }
    }
}

fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 4)
}

/// Everything a request handler needs, shared across threads.
pub(crate) struct ServerCtx {
    pub(crate) registry: SessionRegistry,
    pub(crate) queue_cap: usize,
    pub(crate) data_dir: Option<PathBuf>,
    pub(crate) snapshot_policy: SnapshotPolicy,
    /// Role flag: true while serving as a read-replica follower.
    is_follower: AtomicBool,
    /// Raised to stop replication ticks (promotion or shutdown).
    pub(crate) repl_stop: AtomicBool,
    /// This daemon's watchdog and its heartbeat cells.
    pub(crate) health: Arc<DaemonHealth>,
    /// Raised when the loop enters drain — `/readyz` flips not-ready
    /// while in-flight work finishes.
    pub(crate) draining: AtomicBool,
    /// Where this daemon writes black-box dumps, if anywhere.
    pub(crate) diag_dir: Option<PathBuf>,
    /// `STALL` fault injection enabled.
    pub(crate) debug_stall: bool,
}

impl ServerCtx {
    /// True while this daemon is a read-only follower.
    pub(crate) fn is_follower(&self) -> bool {
        self.is_follower.load(Ordering::SeqCst)
    }

    /// Flip to primary and stop replication; returns whether the daemon
    /// had been a follower (idempotent otherwise). Write verbs are
    /// accepted from the moment this returns; the replication tick
    /// observes the flag under each session's lock, so no frame is
    /// applied on top of a post-promotion write.
    pub(crate) fn promote(&self) -> bool {
        let was = self.is_follower.swap(false, Ordering::SeqCst);
        self.repl_stop.store(true, Ordering::SeqCst);
        if was {
            // The replication tick stops on purpose; its freshness cell
            // must stop counting as late or the promoted primary would
            // read degraded (and un-ready) forever.
            if let Some(r) = &self.health.repl {
                r.fresh.retire();
            }
            crate::obs::metrics().promotions_total.inc();
            igp_obs::warn!(target: "serve", "promoted to primary");
        }
        was
    }
}

/// What a worker thread reports back to the event loop. Producers push
/// under the mutex *then* wake — the lock is the happens-before edge the
/// waker's dedup flag relies on.
enum Completion {
    /// A connection's in-flight job finished; `generation` guards against
    /// the slot having been reused by a newer connection.
    Reply {
        token: usize,
        generation: u64,
        reply: String,
    },
    /// The job panicked (the session mutex it held is now poisoned and
    /// will report `ERR internal` on the next request). The connection
    /// dies, exactly as its dedicated thread would have under the old
    /// core.
    Died { token: usize, generation: u64 },
    /// A replication tick returned; `alive == false` means replication
    /// is over (stopped or promoted) and must not be rescheduled.
    ReplTick { alive: bool },
}

/// Loop-side mailbox shared with workers and [`ServerHandle`].
struct LoopShared {
    waker: Waker,
    completions: Mutex<Vec<Completion>>,
}

impl LoopShared {
    fn push(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(c);
        self.waker.wake();
    }

    fn take(&self, into: &mut Vec<Completion>) {
        let mut q = self.completions.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::swap(&mut *q, into);
    }
}

/// A running daemon; dropping it shuts the daemon down.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    ctx: Arc<ServerCtx>,
    shared: Arc<LoopShared>,
    event_loop: Option<JoinHandle<()>>,
}

/// A cloneable, non-joining shutdown request: raises the stop flag and
/// wakes the loop, nothing more. For contexts that must not block on
/// the loop's exit — the signal watcher thread asks for shutdown with
/// this, then the main thread's [`ServerHandle::wait`] observes it.
#[derive(Clone)]
pub struct ShutdownTrigger {
    stop: Arc<AtomicBool>,
    ctx: Arc<ServerCtx>,
    shared: Arc<LoopShared>,
}

impl ShutdownTrigger {
    /// Request a graceful drain; returns immediately.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ctx.repl_stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops-plane HTTP address, when one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// A detached handle that can request shutdown without joining.
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            stop: self.stop.clone(),
            ctx: self.ctx.clone(),
            shared: self.shared.clone(),
        }
    }

    /// Block until the server exits (i.e. until some client sends
    /// `SHUTDOWN` or another thread calls shutdown).
    pub fn wait(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, drain in-flight work, and join the loop (which
    /// joins the worker pool). Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ctx.repl_stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (port 0 picks an ephemeral port) and serve until
/// shut down. In `data_dir` mode, every session found on disk is
/// recovered (snapshot + WAL replay) before the socket starts
/// accepting, so clients never observe a half-booted daemon.
pub fn serve<A: ToSocketAddrs>(addr: A, opts: ServeOptions) -> io::Result<ServerHandle> {
    if opts.follow.is_some() && opts.data_dir.is_none() {
        // A follower *is* its replica directory; without one there is
        // nothing to promote to.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "follower mode requires a data_dir",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let http_listener = match &opts.http {
        Some(a) => {
            let l = TcpListener::bind(a.as_str())?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let http_addr = match &http_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    // Touch every serving layer's metric registration at boot so
    // `METRICS` renders the full family set (zero-valued) before any
    // traffic. The SPMD runtime's families stay library-only: no
    // session runs that driver.
    let _ = crate::obs::metrics();
    let _ = igp_core::obs::metrics();
    let _ = igp_store::obs::metrics();
    if let Some(us) = opts.slow_us {
        igp_obs::trace::set_slow_threshold_us(us);
    }
    let registry = SessionRegistry::new(opts.shards);
    if let Some(dir) = &opts.data_dir {
        std::fs::create_dir_all(dir)?;
        let (recovered, failures) = crate::durable::recover_all(dir, opts.snapshot_policy)?;
        for r in recovered {
            if let Some(w) = &r.warning {
                igp_obs::warn!(target: "serve", "recovery warning"; sid = r.sid, detail = w);
            }
            let (n, steps, pending) = (
                r.session.inner().graph().num_vertices(),
                r.session.steps(),
                r.session.inner().pending_deltas(),
            );
            igp_obs::info!(
                target: "serve", "recovered session";
                sid = r.sid, n = n, steps = steps, pending = pending,
            );
            registry
                .open(&r.sid, r.session)
                .map_err(|e| io::Error::other(format!("recovered `{}` twice: {e}", r.sid)))?;
        }
        for f in failures {
            igp_obs::error!(target: "serve", "session NOT recovered"; detail = f);
        }
    }
    let workers = effective_workers(opts.workers);
    let repl_health = opts
        .follow
        .as_ref()
        .map(|_| ReplHealth::new(opts.repl_interval));
    let health = DaemonHealth::new(opts.loop_stall, opts.worker_stall, workers, repl_health);
    let ctx = Arc::new(ServerCtx {
        registry,
        queue_cap: opts.queue_cap.max(1),
        data_dir: opts.data_dir.clone(),
        snapshot_policy: opts.snapshot_policy,
        is_follower: AtomicBool::new(opts.follow.is_some()),
        repl_stop: AtomicBool::new(false),
        health,
        draining: AtomicBool::new(false),
        diag_dir: opts.diag_dir.clone(),
        debug_stall: opts.debug_stall,
    });
    // Daemons with a diag dir participate in crash-time dumps (and the
    // process-wide panic hook is installed on first registration).
    crate::diag::register_server(&ctx);
    let stop = Arc::new(AtomicBool::new(false));

    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    if let Some(l) = &http_listener {
        poller.register(l.as_raw_fd(), HTTP_LISTENER, Interest::READABLE)?;
    }
    let shared = Arc::new(LoopShared {
        waker: Waker::new(&poller, WAKER)?,
        completions: Mutex::new(Vec::new()),
    });

    // Follower mode: locally recovered sessions (above) give instant
    // read availability; replication ticks then resync each one from
    // the primary and keep tailing its WAL.
    let follower = opts.follow.as_ref().map(|primary| {
        FollowerState::new(
            crate::repl::ReplEngine::new(crate::repl::FollowerConfig {
                primary: primary.clone(),
                failover: opts.failover,
            }),
            opts.repl_interval,
        )
    });

    let hook: Arc<dyn PoolHook> = WorkerHealthHook::new(ctx.health.worker_cells.clone());
    let event_loop = {
        let mut el = EventLoop {
            poller,
            listener: Some(listener),
            http_listener,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            pool: Some(WorkerPool::with_hook(workers, "igp-worker", Some(hook))),
            shared: shared.clone(),
            ctx: ctx.clone(),
            stop: stop.clone(),
            jobs_in_flight: 0,
            follower,
            draining: false,
            drain_deadline: None,
        };
        std::thread::Builder::new()
            .name("igp-loop".into())
            .spawn(move || el.run())?
    };

    Ok(ServerHandle {
        addr,
        http_addr,
        stop,
        ctx,
        shared,
        event_loop: Some(event_loop),
    })
}

/// Longest accepted request line. Generous for DELTA payloads, small
/// enough that a newline-free byte stream cannot balloon the daemon.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest accepted `OPEN` graph upload (METIS text).
const MAX_GRAPH_BYTES: usize = 64 << 20;

/// How long the drain phase waits for queued reply bytes to reach
/// clients that are not reading, once all in-flight jobs are done.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(3);

/// Largest accepted ops-plane HTTP request head.
const MAX_HTTP_HEAD: usize = 8 * 1024;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// The ops-plane HTTP listener (present only with `--http`).
const HTTP_LISTENER: Token = Token(2);
/// Connection slot `i` registers under token `FIRST_CONN + i`.
const FIRST_CONN: usize = 3;

/// Which protocol a connection speaks, fixed by the listener that
/// accepted it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// The line protocol (the primary listener).
    Line,
    /// Ops-plane HTTP/1.0: one GET, one response, close.
    Http,
}

/// Where a connection stands in the request cycle.
enum ConnState {
    /// Between requests: buffered lines are parsed and handled.
    Idle,
    /// Inside the graph block that follows an `OPEN` line, up to `END`.
    Graph {
        /// `Ok`: a parsed `OPEN` waiting for its graph text. `Err`: the
        /// OPEN line was malformed — the block is still drained so the
        /// connection stays line-synchronized, then this reply is sent.
        /// Boxed: `SessionConfig` would otherwise dominate every
        /// `ConnState`, and almost all connections sit in `Idle`/`Busy`.
        pending: Box<Result<(String, SessionConfig), String>>,
        text: String,
        t0: Option<Instant>,
        vi: Option<usize>,
        /// The request's root trace span, held open across the upload.
        root: Span,
    },
    /// A job for this connection is on the worker pool. Reads stay
    /// parked (and buffered lines unprocessed) until the reply comes
    /// back, preserving per-connection request order.
    Busy,
}

/// One client connection: socket + framing/write buffers + state.
///
/// `rbuf`/`line` are reused across requests — framing never allocates a
/// fresh `String` per request — and the line/graph byte caps are
/// enforced incrementally as bytes arrive, so a slow client can never
/// make the daemon buffer unbounded.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    /// Distinguishes this connection from an earlier one that used the
    /// same slot, for completions that outlive their connection.
    generation: u64,
    /// Raw inbound bytes; `[consumed, len)` is unframed input.
    rbuf: Vec<u8>,
    /// Bytes before this offset were already framed into lines.
    consumed: usize,
    /// Newline search resumes here (≥ `consumed`), so a trickling
    /// client costs O(bytes), not O(bytes²).
    scan: usize,
    /// Reused per-line buffer the framer copies each request line into.
    line: String,
    /// Outbound bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Interest currently registered with the poller.
    interest: Interest,
    state: ConnState,
    /// Peer sent EOF: finish processing buffered input, flush, close.
    peer_eof: bool,
    /// Reply queued and no further requests accepted (SHUTDOWN, drain);
    /// the connection closes once `wbuf` flushes.
    closing: bool,
    /// Root trace span of the in-flight pool job, kept loop-side so the
    /// completion path can nest the `reply` span under it before it
    /// completes the trace.
    trace_root: Option<Span>,
}

impl Conn {
    /// The interest this connection should be registered with right now.
    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        let reading = !self.closing
            && !self.peer_eof
            && !matches!(self.state, ConnState::Busy)
            && self.wbuf.is_empty();
        if reading {
            want = want.add(Interest::READABLE);
        }
        if !self.wbuf.is_empty() {
            want = want.add(Interest::WRITABLE);
        }
        want
    }
}

/// Work the loop hands to the pool on behalf of a connection.
enum PoolJob {
    /// A session-locking verb, exactly as parsed.
    Verb(Request),
    /// A fully uploaded `OPEN`.
    Open {
        sid: String,
        cfg: SessionConfig,
        text: String,
    },
}

/// Replication scheduling state (follower mode only).
struct FollowerState {
    engine: Arc<Mutex<crate::repl::ReplEngine>>,
    interval: Duration,
    /// Next tick is due at this instant (set `interval` after the
    /// previous tick *completed*, matching the old thread's cadence).
    next: Instant,
    in_flight: bool,
    /// Replication ended (shutdown or promotion); stop scheduling.
    done: bool,
}

impl FollowerState {
    fn new(engine: crate::repl::ReplEngine, interval: Duration) -> FollowerState {
        FollowerState {
            engine: Arc::new(Mutex::new(engine)),
            interval,
            next: Instant::now(),
            in_flight: false,
            done: false,
        }
    }
}

struct EventLoop {
    poller: Poller,
    /// Dropped (and deregistered) when draining starts.
    listener: Option<TcpListener>,
    /// The ops-plane HTTP listener, same lifecycle as `listener`.
    http_listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    /// `Option` only so the drain path can move it out to `join`.
    pool: Option<WorkerPool>,
    shared: Arc<LoopShared>,
    ctx: Arc<ServerCtx>,
    stop: Arc<AtomicBool>,
    /// Connection jobs dispatched and not yet completed (counted even if
    /// their connection died meanwhile).
    jobs_in_flight: usize,
    follower: Option<FollowerState>,
    draining: bool,
    /// Armed when the last in-flight job completes during drain.
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        let m = crate::obs::metrics();
        let loop_cell = self.ctx.health.loop_cell.clone();
        let mut events = Events::with_capacity(1024);
        let mut inbox: Vec<Completion> = Vec::new();
        loop {
            if !self.draining && self.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.drain_complete() {
                break;
            }
            self.schedule_repl_tick();
            let timeout = self.poll_timeout();
            // The watchdog heartbeat brackets the poll wait: blocked in
            // poll is *parked*, everything else in the iteration is
            // *busy* — a stall is an iteration that would not yield.
            loop_cell.idle();
            let t0 = Instant::now();
            let polled = self.poller.poll(&mut events, timeout);
            loop_cell.busy();
            if let Err(e) = polled {
                igp_obs::error!(target: "serve", "poll failed"; detail = e.to_string());
                break;
            }
            m.poll_wait_us.observe_duration(t0.elapsed());
            m.loop_wakeups_total.inc();
            let iter0 = igp_obs::enabled().then(Instant::now);
            for ev in &events {
                match ev.token() {
                    LISTENER => self.accept_all(ConnKind::Line),
                    WAKER => self.shared.waker.drain(),
                    HTTP_LISTENER => self.accept_all(ConnKind::Http),
                    Token(t) => {
                        self.on_conn_event(t - FIRST_CONN, ev.is_readable(), ev.is_writable())
                    }
                }
            }
            // Always sweep the mailbox: a completion pushed between the
            // waker drain and here is either seen now or re-wakes us.
            self.shared.take(&mut inbox);
            for c in inbox.drain(..) {
                self.on_completion(c);
            }
            if let Some(iter0) = iter0 {
                // Iteration time (poll wait excluded): how long the loop
                // was unavailable to new readiness this pass.
                m.loop_iter_us.observe_duration(iter0.elapsed());
            }
        }
        // All jobs completed (drain waits for them), so the queue is
        // empty and this join is immediate.
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }

    /// The nearest timer as a poll timeout; `None` blocks until an event
    /// or a waker wake.
    fn poll_timeout(&self) -> Option<Duration> {
        let mut deadline: Option<Instant> = None;
        if let Some(f) = &self.follower {
            if !f.done && !f.in_flight && !self.draining {
                deadline = Some(f.next);
            }
        }
        if let Some(d) = self.drain_deadline {
            deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        }
        deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    // -- accept path ----------------------------------------------------

    fn accept_all(&mut self, kind: ConnKind) {
        loop {
            let listener = match kind {
                ConnKind::Line => &self.listener,
                ConnKind::Http => &self.http_listener,
            };
            let Some(listener) = listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.install_conn(stream, kind),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failure (e.g. fd exhaustion): give
                    // up this wakeup rather than spin; the listener stays
                    // level-triggered readable.
                    igp_obs::warn!(target: "serve", "accept failed"; detail = e.to_string());
                    return;
                }
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream, kind: ConnKind) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_generation += 1;
        let interest = Interest::READABLE;
        if self
            .poller
            .register(stream.as_raw_fd(), Token(FIRST_CONN + slot), interest)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            kind,
            generation: self.next_generation,
            rbuf: Vec::new(),
            consumed: 0,
            scan: 0,
            line: String::new(),
            wbuf: Vec::new(),
            interest,
            state: ConnState::Idle,
            peer_eof: false,
            closing: false,
            trace_root: None,
        });
        crate::obs::metrics().conns_active.add(1);
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            crate::obs::metrics().conns_active.add(-1);
            self.free.push(slot);
        }
    }

    /// Re-register the connection if its desired interest changed.
    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let want = conn.desired_interest();
        if want == conn.interest {
            return;
        }
        match self
            .poller
            .reregister(conn.stream.as_raw_fd(), Token(FIRST_CONN + slot), want)
        {
            Ok(()) => conn.interest = want,
            Err(e) => {
                // A registration whose interest we cannot control is worse
                // than a dropped connection: e.g. a failed downgrade to
                // NONE leaves level-triggered readable armed on a socket
                // the loop refuses to read, busy-spinning the loop until
                // the peer goes away. Close instead.
                igp_obs::warn!(
                    target: "serve", "interest change failed; closing connection";
                    detail = e.to_string(),
                );
                self.close_conn(slot);
            }
        }
    }

    // -- read path ------------------------------------------------------

    fn on_conn_event(&mut self, slot: usize, readable: bool, writable: bool) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // stale event for a closed connection
        }
        if writable {
            self.flush_conn(slot);
            // Backpressure lifted: requests buffered behind the stalled
            // reply run now (process_conn self-guards against a still
            // non-empty wbuf, Busy, or a closed slot).
            self.process_conn(slot);
        }
        let wants_read = self.conns[slot]
            .as_ref()
            .is_some_and(|c| !c.closing && !c.peer_eof && !matches!(c.state, ConnState::Busy));
        if readable && wants_read {
            self.read_conn(slot);
        }
        self.sync_interest(slot);
    }

    fn read_conn(&mut self, slot: usize) {
        let mut buf = [0u8; 64 * 1024];
        // Per-wakeup read budget: a client blasting bytes faster than we
        // process them must not monopolize the loop or balloon `rbuf`
        // past the caps within a single wakeup. Leftover input keeps the
        // socket level-triggered readable, so the next poll resumes it.
        for _ in 0..16 {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
            // Process per chunk, not per drained socket: the line/graph
            // caps stay incremental (a chunk past the cap closes the
            // connection before the next read), and a connection that
            // goes Busy or backpressured parks with the rest of its
            // input still in the kernel buffer.
            self.process_conn(slot);
            let parked = self.conns[slot].as_ref().is_none_or(|c| {
                c.closing || c.peer_eof || matches!(c.state, ConnState::Busy) || !c.wbuf.is_empty()
            });
            if parked {
                return;
            }
        }
        self.process_conn(slot);
    }

    /// Frame and handle as many buffered lines as the connection's state
    /// allows. Stops at: incomplete line, Busy (job dispatched), closing,
    /// or write backpressure.
    fn process_conn(&mut self, slot: usize) {
        if self.conns[slot]
            .as_ref()
            .is_some_and(|c| c.kind == ConnKind::Http)
        {
            return self.process_http(slot);
        }
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing || matches!(conn.state, ConnState::Busy) || !conn.wbuf.is_empty() {
                break;
            }
            // Incremental framing: resume the newline scan where it left
            // off; enforce the line cap on the unframed span as it grows.
            let nl = conn.rbuf[conn.scan..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| conn.scan + i);
            let (end, terminated) = match nl {
                Some(i) => (i + 1, true),
                None => {
                    conn.scan = conn.rbuf.len();
                    if conn.rbuf.len() - conn.consumed >= MAX_LINE_BYTES {
                        // A line that exhausts its budget without a
                        // newline cannot be resynced; drop the
                        // connection, exactly as the old core did.
                        self.close_conn(slot);
                        return;
                    }
                    if conn.peer_eof && conn.consumed < conn.rbuf.len() {
                        (conn.rbuf.len(), false) // final unterminated line
                    } else {
                        break;
                    }
                }
            };
            if terminated && end - conn.consumed > MAX_LINE_BYTES {
                self.close_conn(slot);
                return;
            }
            let Ok(s) = std::str::from_utf8(&conn.rbuf[conn.consumed..end]) else {
                self.close_conn(slot); // the old line reader errored here too
                return;
            };
            conn.line.clear();
            conn.line.push_str(s);
            conn.consumed = end;
            conn.scan = end;
            let _ = terminated;
            // Hand the line over without giving up the reused buffer.
            let line = std::mem::take(&mut conn.line);
            match conn.state {
                ConnState::Idle => self.handle_request_line(slot, &line),
                ConnState::Graph { .. } => self.handle_graph_line(slot, &line),
                ConnState::Busy => unreachable!("loop guard"),
            }
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.line = line;
            }
        }
        // Compact the consumed prefix once per pass (not per line, which
        // would be quadratic over a graph upload).
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.consumed > 0 {
            conn.rbuf.drain(..conn.consumed);
            conn.scan -= conn.consumed;
            conn.consumed = 0;
        }
        if conn.peer_eof && conn.rbuf.is_empty() && !matches!(conn.state, ConnState::Busy) {
            // Input fully handled and the peer is gone: close once the
            // replies have flushed.
            conn.closing = true;
            if conn.wbuf.is_empty() {
                self.close_conn(slot);
                return;
            }
        }
        self.sync_interest(slot);
    }

    // -- ops-plane HTTP -------------------------------------------------

    /// HTTP connections have a one-shot cycle: buffer the request head,
    /// route it, queue the response, close once it flushes. Bodies are
    /// never read (every endpoint is a GET), and the head is capped so
    /// a non-HTTP peer cannot balloon the buffer.
    fn process_http(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.closing || !conn.wbuf.is_empty() {
            self.sync_interest(slot);
            return;
        }
        let Some(head_end) = find_http_head_end(&conn.rbuf) else {
            if conn.rbuf.len() > MAX_HTTP_HEAD || conn.peer_eof {
                self.close_conn(slot);
            }
            return;
        };
        if head_end > MAX_HTTP_HEAD {
            self.close_conn(slot);
            return;
        }
        let head = String::from_utf8_lossy(&conn.rbuf[..head_end]).into_owned();
        conn.rbuf.clear();
        conn.consumed = 0;
        conn.scan = 0;
        let response = self.http_response(&head);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        crate::obs::metrics()
            .bytes_out_total
            .add(response.len() as u64);
        conn.wbuf.extend_from_slice(response.as_bytes());
        conn.closing = true;
        self.flush_conn(slot);
        self.sync_interest(slot);
    }

    /// Route one parsed request head to an endpoint (DESIGN.md §14.1).
    fn http_response(&mut self, head: &str) -> String {
        let line = head.lines().next().unwrap_or("");
        let mut it = line.split_ascii_whitespace();
        let (method, target) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
        let path = target.split('?').next().unwrap_or("");
        let m = crate::obs::metrics();
        if method != "GET" {
            m.http_request("other").inc();
            return http_message(405, "Method Not Allowed", "only GET is served\n");
        }
        match path {
            "/metrics" => {
                m.http_request("metrics").inc();
                refresh_serving_gauges(&self.ctx);
                let body = igp_obs::registry().render();
                format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len(),
                )
            }
            "/healthz" => {
                m.http_request("healthz").inc();
                let r = self.ctx.health.watchdog.check();
                if r.overall == HealthState::Ok {
                    http_message(200, "OK", &r.render())
                } else {
                    http_message(503, "Service Unavailable", &r.render())
                }
            }
            "/readyz" => {
                m.http_request("readyz").inc();
                let r = self.ctx.health.watchdog.check();
                let draining = self.draining;
                // Liveness degradation only blocks readiness at
                // `unhealthy` — but a follower whose replication is not
                // fresh is *not* ready to serve reads, so the `repl`
                // component must be fully ok.
                let repl_ok = r
                    .components
                    .iter()
                    .filter(|c| c.name == "repl")
                    .all(|c| c.state == HealthState::Ok);
                let ready = !draining && r.overall != HealthState::Unhealthy && repl_ok;
                let mut body = format!("ready {}\n", u8::from(ready));
                if draining {
                    body.push_str("draining 1\n");
                }
                body.push_str(&r.render());
                if ready {
                    http_message(200, "OK", &body)
                } else {
                    http_message(503, "Service Unavailable", &body)
                }
            }
            "/traces" => {
                m.http_request("traces").inc();
                let n = target
                    .split_once('?')
                    .and_then(|(_, q)| {
                        q.split('&')
                            .find_map(|kv| kv.strip_prefix("n="))
                            .and_then(|v| v.parse::<usize>().ok())
                    })
                    .unwrap_or(16);
                http_message(200, "OK", &igp_obs::trace::render_traces(n))
            }
            "/sessions" => {
                m.http_request("sessions").inc();
                http_message(200, "OK", &render_sessions(&self.ctx))
            }
            "/" => {
                m.http_request("other").inc();
                http_message(
                    200,
                    "OK",
                    "igp-serve ops plane\n/metrics\n/healthz\n/readyz\n/traces\n/sessions\n",
                )
            }
            _ => {
                m.http_request("other").inc();
                http_message(404, "Not Found", "unknown path\n")
            }
        }
    }

    // -- request handling -----------------------------------------------

    fn handle_request_line(&mut self, slot: usize, line: &str) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let m = crate::obs::metrics();
        m.bytes_in_total.add(line.len() as u64);
        // Clock before the parse: the root span must start no later
        // than its `parse` child (request_us gains the parse time too,
        // a sub-µs widening).
        let t0 = igp_obs::enabled().then(Instant::now);
        let _lctx = igp_obs::set_log_ctx(format_args!("conn={}", FIRST_CONN + slot));
        let parsed = parse_request(trimmed);
        let vi = parsed.as_ref().ok().map(Request::verb_idx);
        if let Some(vi) = vi {
            m.requests_total[vi].inc();
            igp_obs::debug!(
                target: "serve", "request";
                verb = crate::obs::VERBS[vi].0, bytes = line.len(),
            );
        }
        let root = match (&parsed, t0) {
            (Ok(req), Some(t0)) => Span::root_from(crate::obs::VERBS[req.verb_idx()].1, t0),
            _ => Span::disabled(),
        };
        if let (Some(t0), Some(ctx)) = (t0, root.ctx()) {
            igp_obs::trace::record_span(Some(ctx), "parse", t0, t0.elapsed());
        }
        let conn = self.conns[slot].as_mut().expect("caller checked");
        match parsed {
            Err(e) => {
                // A malformed OPEN is still followed by the client's
                // graph block: drain through END so the connection stays
                // line-synchronized for the next request.
                if trimmed.split_ascii_whitespace().next() == Some("OPEN") {
                    conn.state = ConnState::Graph {
                        pending: Box::new(Err(format!("ERR proto {e}"))),
                        text: String::new(),
                        t0: None,
                        vi: None,
                        root,
                    };
                } else {
                    self.finish_request(slot, format!("ERR proto {e}"), t0, vi, root);
                }
            }
            Ok(Request::Ping) => self.finish_request(slot, "PONG".to_string(), t0, vi, root),
            Ok(Request::Open { sid, cfg }) => {
                conn.state = ConnState::Graph {
                    pending: Box::new(Ok((sid, cfg))),
                    text: String::new(),
                    t0,
                    vi,
                    root,
                };
            }
            Ok(Request::Delta { .. } | Request::Flush { .. } | Request::Close { .. })
                if self.ctx.is_follower() =>
            {
                // A follower's sessions advance only by replicated
                // frames; local writes would fork the lineage.
                self.finish_request(slot, err_line(&ServiceError::ReadOnly), t0, vi, root);
            }
            Ok(
                req @ (Request::Delta { .. }
                | Request::Flush { .. }
                | Request::Stat { .. }
                | Request::Part { .. }
                | Request::Close { .. }
                | Request::ReplSync { .. }
                | Request::ReplFrames { .. }),
            ) => self.dispatch(slot, PoolJob::Verb(req), t0, vi, root),
            Ok(Request::List) => {
                let ids = self.ctx.registry.list();
                let mut out = format!("OK list count={}", ids.len());
                for id in ids {
                    out.push(' ');
                    out.push_str(&id);
                }
                self.finish_request(slot, out, t0, vi, root);
            }
            Ok(Request::Metrics) => {
                // Refresh the registry- and clock-derived gauges, then
                // render the whole process registry: service, store,
                // core and runtime families in one exposition.
                refresh_serving_gauges(&self.ctx);
                let out = format!("OK metrics\n{}END", igp_obs::registry().render());
                self.finish_request(slot, out, t0, vi, root);
            }
            Ok(Request::TraceDump { n }) => {
                let out = format!("OK trace\n{}END", igp_obs::trace::render_traces(n));
                self.finish_request(slot, out, t0, vi, root);
            }
            Ok(Request::TraceSlow { threshold_us }) => {
                igp_obs::trace::set_slow_threshold_us(threshold_us);
                igp_obs::info!(target: "serve", "slow-request threshold set"; slow_us = threshold_us);
                let out = format!("OK trace slow_us={threshold_us}");
                self.finish_request(slot, out, t0, vi, root);
            }
            Ok(Request::Promote) => {
                let was = self.ctx.promote();
                if let Some(f) = &mut self.follower {
                    f.done = true;
                }
                let out = format!(
                    "OK promoted role=primary sessions={} was_follower={}",
                    self.ctx.registry.len(),
                    u8::from(was),
                );
                self.finish_request(slot, out, t0, vi, root);
            }
            Ok(Request::Stall { target, ms }) => {
                if !self.ctx.debug_stall {
                    self.finish_request(
                        slot,
                        "ERR proto STALL requires --debug-stall".to_string(),
                        t0,
                        vi,
                        root,
                    );
                } else {
                    match target {
                        StallTarget::Loop => {
                            // Fault injection: hold the loop thread
                            // hostage so the watchdog's stall detection
                            // can be tested end to end.
                            igp_obs::warn!(target: "serve", "injected loop stall"; ms = ms);
                            std::thread::sleep(Duration::from_millis(ms));
                            let out = format!("OK stalled target=loop ms={ms}");
                            self.finish_request(slot, out, t0, vi, root);
                        }
                        StallTarget::Worker => self.dispatch(
                            slot,
                            PoolJob::Verb(Request::Stall { target, ms }),
                            t0,
                            vi,
                            root,
                        ),
                    }
                }
            }
            Ok(Request::Shutdown) => {
                self.queue_reply(slot, "OK bye".to_string());
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.closing = true;
                }
                self.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    fn handle_graph_line(&mut self, slot: usize, line: &str) {
        let conn = self.conns[slot].as_mut().expect("caller checked");
        let ConnState::Graph {
            pending: _, text, ..
        } = &mut conn.state
        else {
            unreachable!("caller checked");
        };
        if line.trim() != "END" {
            if text.len() + line.len() > MAX_GRAPH_BYTES {
                self.close_conn(slot); // oversized upload: drop the connection
                return;
            }
            text.push_str(line);
            return;
        }
        let state = std::mem::replace(&mut conn.state, ConnState::Idle);
        let ConnState::Graph {
            pending,
            text,
            t0,
            vi,
            root,
        } = state
        else {
            unreachable!("matched above");
        };
        match *pending {
            Err(reply) => self.finish_request(slot, reply, t0, vi, root),
            Ok((sid, cfg)) => self.dispatch(slot, PoolJob::Open { sid, cfg, text }, t0, vi, root),
        }
    }

    /// Observe latency and queue the reply (loop-inline verbs). Dropping
    /// `root` here completes the request's trace — after the `reply`
    /// child, so children always hit the ring before their root.
    fn finish_request(
        &mut self,
        slot: usize,
        reply: String,
        t0: Option<Instant>,
        vi: Option<usize>,
        root: Span,
    ) {
        if let (Some(t0), Some(vi)) = (t0, vi) {
            crate::obs::metrics().request_us[vi].observe_duration(t0.elapsed());
        }
        let reply_span = root.child("reply");
        self.queue_reply(slot, reply);
        drop(reply_span);
        drop(root);
    }

    /// Park the connection and run the job on the pool; the completion
    /// routes the reply back through the waker.
    fn dispatch(
        &mut self,
        slot: usize,
        job: PoolJob,
        t0: Option<Instant>,
        vi: Option<usize>,
        root: Span,
    ) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.state = ConnState::Busy;
        let token = FIRST_CONN + slot;
        let generation = conn.generation;
        // The job closure carries only the trace *context*; the root
        // span parks with the connection so the completion path can
        // nest the reply under it and complete the trace loop-side.
        let dispatch_span = root.child("dispatch");
        let job_ctx = root.ctx();
        conn.trace_root = Some(root);
        let sid = job_sid(&job).map(str::to_string);
        let enqueued = igp_obs::enabled().then(Instant::now);
        let ctx = self.ctx.clone();
        let shared = self.shared.clone();
        self.jobs_in_flight += 1;
        let pool = self.pool.as_ref().expect("pool lives until drain ends");
        pool.execute(Box::new(move || {
            let m = crate::obs::metrics();
            let _lctx = worker_log_ctx(token, sid.as_deref(), job_ctx);
            if let Some(enq) = enqueued {
                // Dispatch→pickup latency: the direct measure of pool
                // saturation, as both a histogram and a trace span.
                let wait = enq.elapsed();
                m.pool_queue_wait_us.observe_duration(wait);
                igp_obs::trace::record_span(job_ctx, "queue_wait", enq, wait);
            }
            // A panicking handler poisons the session lock it held (the
            // next request gets a typed `ERR internal`); contain it here
            // so the completion still reaches the loop.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Entering the exec span makes it the thread's ambient
                // context, which is what the store-layer span hooks
                // (wal_append, snapshot, repartition) attach to.
                let exec = Span::child_of(job_ctx, "exec");
                let _ambient = exec.enter();
                let reply = pool_reply(&ctx, job);
                if let (Some(t0), Some(vi)) = (t0, vi) {
                    m.request_us[vi].observe_duration(t0.elapsed());
                }
                reply
            }));
            shared.push(match outcome {
                Ok(reply) => Completion::Reply {
                    token,
                    generation,
                    reply,
                },
                Err(_) => Completion::Died { token, generation },
            });
        }));
        drop(dispatch_span);
    }

    // -- write path -----------------------------------------------------

    /// Count the reply (bytes out, typed-error kind) and queue it on the
    /// connection's write buffer, flushing as much as the socket takes.
    fn queue_reply(&mut self, slot: usize, reply: String) {
        let m = crate::obs::metrics();
        if let Some(rest) = reply.strip_prefix("ERR ") {
            if let Some(c) = rest
                .split_ascii_whitespace()
                .next()
                .and_then(|k| m.error(k))
            {
                c.inc();
            }
        }
        m.bytes_out_total.add(reply.len() as u64 + 1);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.wbuf.extend_from_slice(reply.as_bytes());
        conn.wbuf.push(b'\n');
        self.flush_conn(slot);
        self.sync_interest(slot);
    }

    /// Write as much of `wbuf` as the socket accepts; close on error or
    /// when a closing connection finishes flushing.
    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut written = 0;
        let mut backpressured = false;
        while written < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    backpressured = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        if written > 0 {
            conn.wbuf.drain(..written);
        }
        if backpressured && !conn.wbuf.is_empty() {
            crate::obs::metrics().write_backpressure_total.inc();
        }
        if conn.wbuf.is_empty() && conn.closing {
            self.close_conn(slot);
        }
        // Deliberately NOT re-entering process_conn here: flush_conn is
        // called from inside process_conn's own loop (via queue_reply), so
        // re-entry would nest one stack frame per buffered pipelined line —
        // a 64KB burst of `PING\n` must not overflow the loop thread's
        // stack. Callers that need to resume parked input after a flush
        // (the writability-event and completion paths) call process_conn
        // themselves, iteratively.
    }

    // -- completions ----------------------------------------------------

    fn on_completion(&mut self, c: Completion) {
        match c {
            Completion::Reply {
                token,
                generation,
                reply,
            } => {
                self.jobs_in_flight -= 1;
                let slot = token - FIRST_CONN;
                if self.conn_matches(slot, generation) {
                    let mut root = None;
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.state = ConnState::Idle;
                        root = conn.trace_root.take();
                        if self.draining {
                            // In-flight requests complete and reply even
                            // under shutdown (the old core joined its
                            // connection threads), but nothing new runs.
                            conn.closing = true;
                        }
                    }
                    let reply_span = root.as_ref().map(|r| r.child("reply"));
                    self.queue_reply(slot, reply);
                    // Child before root, so the slow log and the dump
                    // both see the complete tree.
                    drop(reply_span);
                    drop(root);
                    if let Some(conn) = self.conns[slot].as_mut() {
                        if !conn.closing {
                            // Pipelined requests may already be buffered.
                            self.process_conn(slot);
                        }
                    }
                    self.sync_interest(slot);
                }
                self.arm_drain_deadline();
            }
            Completion::Died { token, generation } => {
                self.jobs_in_flight -= 1;
                let slot = token - FIRST_CONN;
                if self.conn_matches(slot, generation) {
                    self.close_conn(slot);
                }
                self.arm_drain_deadline();
            }
            Completion::ReplTick { alive } => {
                if let Some(f) = &mut self.follower {
                    f.in_flight = false;
                    f.done |= !alive;
                    f.next = Instant::now() + f.interval;
                }
                self.arm_drain_deadline();
            }
        }
    }

    fn conn_matches(&self, slot: usize, generation: u64) -> bool {
        self.conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.generation == generation)
    }

    // -- replication scheduling -----------------------------------------

    fn schedule_repl_tick(&mut self) {
        if self.draining {
            return;
        }
        let Some(f) = &mut self.follower else { return };
        if f.done || f.in_flight || Instant::now() < f.next {
            return;
        }
        if !self.ctx.is_follower() || self.ctx.repl_stop.load(Ordering::SeqCst) {
            f.done = true;
            return;
        }
        f.in_flight = true;
        let engine = f.engine.clone();
        let ctx = self.ctx.clone();
        let stop = self.stop.clone();
        let shared = self.shared.clone();
        let pool = self.pool.as_ref().expect("pool lives until drain ends");
        pool.execute(Box::new(move || {
            let alive = match engine.lock() {
                Ok(mut e) => e.run_tick(&ctx, &stop),
                Err(_) => false,
            };
            shared.push(Completion::ReplTick { alive });
        }));
    }

    // -- shutdown -------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = true;
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.ctx.repl_stop.store(true, Ordering::SeqCst);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        if let Some(listener) = self.http_listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        // Idle connections close now (in-flight ones reply first, then
        // close via the completion path).
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if matches!(conn.state, ConnState::Busy) {
                continue;
            }
            conn.closing = true;
            if conn.wbuf.is_empty() {
                self.close_conn(slot);
            }
        }
        self.arm_drain_deadline();
    }

    /// Once nothing is in flight, give lingering write buffers a bounded
    /// grace to reach their clients.
    fn arm_drain_deadline(&mut self) {
        if self.draining
            && self.jobs_in_flight == 0
            && !self.follower.as_ref().is_some_and(|f| f.in_flight)
        {
            self.drain_deadline
                .get_or_insert_with(|| Instant::now() + DRAIN_FLUSH_GRACE);
        }
    }

    fn drain_complete(&mut self) -> bool {
        if self.jobs_in_flight > 0 || self.follower.as_ref().is_some_and(|f| f.in_flight) {
            return false;
        }
        let open = self.conns.iter().filter(|c| c.is_some()).count();
        if open == 0 {
            return true;
        }
        if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
            // Grace expired: abandon unflushed bytes to unreading peers.
            for slot in 0..self.conns.len() {
                self.close_conn(slot);
            }
            return true;
        }
        false
    }
}

/// The session id a pool job targets, if any (worker log context).
fn job_sid(job: &PoolJob) -> Option<&str> {
    match job {
        PoolJob::Verb(req) => req.sid(),
        PoolJob::Open { sid, .. } => Some(sid),
    }
}

/// Worker-thread log context for a dispatched job: connection token,
/// plus session id and trace id when the job has them.
fn worker_log_ctx(
    token: usize,
    sid: Option<&str>,
    ctx: Option<igp_obs::trace::TraceCtx>,
) -> igp_obs::LogCtxGuard {
    match (sid, ctx) {
        (Some(sid), Some(c)) => igp_obs::set_log_ctx(format_args!(
            "conn={token} sid={sid} trace={:#018x}",
            c.trace
        )),
        (Some(sid), None) => igp_obs::set_log_ctx(format_args!("conn={token} sid={sid}")),
        (None, Some(c)) => {
            igp_obs::set_log_ctx(format_args!("conn={token} trace={:#018x}", c.trace))
        }
        (None, None) => igp_obs::set_log_ctx(format_args!("conn={token}")),
    }
}

/// Compute the reply for a pool-dispatched verb. Runs on a worker
/// thread; every arm is the old thread-per-connection handler arm,
/// verbatim — including journal-before-ack: the reply string exists only
/// after the session's durable append (inside `ingest`/`flush`) has
/// returned.
fn pool_reply(ctx: &Arc<ServerCtx>, job: PoolJob) -> String {
    let registry = &ctx.registry;
    let m = crate::obs::metrics();
    match job {
        PoolJob::Open { sid, cfg, text } => {
            // Follower check sits here (not at dispatch) to mirror the
            // old core, which decided after the upload finished.
            if ctx.is_follower() {
                err_line(&ServiceError::ReadOnly)
            } else {
                m.bytes_in_total.add(text.len() as u64);
                open_session(ctx, &sid, cfg, &text)
            }
        }
        PoolJob::Verb(Request::Delta { sid, delta }) => with_session(registry, &sid, |s| {
            // Admission control: a client outrunning its own flushes
            // gets a typed error, not an unbounded queue.
            let pending = s.inner().pending_deltas();
            if pending >= ctx.queue_cap {
                m.backpressure_total.inc();
                return err_line(&ServiceError::Backpressure {
                    sid: sid.clone(),
                    pending,
                    cap: ctx.queue_cap,
                });
            }
            match s.ingest(&delta) {
                Ok(Ingest::Queued { pending }) => {
                    m.queue_depth.set(pending as i64);
                    format!("OK queued sid={sid} pending={pending}")
                }
                Ok(Ingest::Stepped { summary, coalesced }) => {
                    m.queue_depth.set(0);
                    m.repartition_counter(&s.config().policy, false).inc();
                    step_line(&sid, &summary, coalesced, s.inner().needs_scratch())
                }
                Err(e) => err_line(&e),
            }
        }),
        PoolJob::Verb(Request::Flush { sid }) => {
            with_session(registry, &sid, |s| match s.flush() {
                Ok(Some((summary, coalesced))) => {
                    m.queue_depth.set(0);
                    m.repartition_counter(&s.config().policy, true).inc();
                    step_line(&sid, &summary, coalesced, s.inner().needs_scratch())
                }
                Ok(None) => format!("OK noop sid={sid}"),
                Err(e) => err_line(&e),
            })
        }
        PoolJob::Verb(Request::Stat { sid }) => with_session(registry, &sid, |s| {
            let role = if ctx.is_follower() {
                "follower"
            } else {
                "primary"
            };
            // Cut and imbalance are the partitioning's maintained
            // counters: a read holds the session lock for O(1).
            let (g, part) = (s.inner().graph(), s.inner().partitioning());
            let mut line = format!(
                "OK stat sid={sid} role={role} n={} m={} cut={} imbalance={:.6} pending={} \
                 steps={} moved={} scratch={}",
                g.num_vertices(),
                g.num_edges(),
                part.cut_edges(),
                part.count_imbalance(),
                s.inner().pending_deltas(),
                s.steps(),
                s.inner().total_moved(),
                u8::from(s.inner().needs_scratch()),
            );
            if let Some(st) = s.store() {
                line.push_str(&format!(
                    " wal_records={} wal_bytes={} snap_seq={} snapshots={}",
                    st.wal_records(),
                    st.wal_bytes(),
                    st.seq(),
                    st.snapshots_written(),
                ));
            }
            // Per-session repartition latency (the session's private
            // histogram — the METRICS exposition has the global one).
            if let Some((p50, p99, max)) = s.repart_latency_us() {
                line.push_str(&format!(
                    " repart_p50_us={p50} repart_p99_us={p99} repart_max_us={max}"
                ));
            }
            line.push_str(&format!(" uptime_s={}", crate::obs::uptime_s()));
            if ctx.is_follower() {
                if let Some(rh) = &ctx.health.repl {
                    line.push_str(&format!(" repl_lag_ms={}", rh.lag_ms()));
                    if let Some(age) = rh.heartbeat_age_ms() {
                        line.push_str(&format!(" repl_heartbeat_age_ms={age}"));
                    }
                }
            }
            line
        }),
        PoolJob::Verb(Request::Part { sid }) => with_session(registry, &sid, |s| {
            let assign = s.assignment();
            let mut out = format!("OK part sid={sid} n={}", assign.len());
            for p in assign {
                out.push(' ');
                out.push_str(&p.to_string());
            }
            out
        }),
        PoolJob::Verb(Request::Close { sid }) => match registry.close(&sid) {
            Ok(entry) => {
                // A closed session must not resurrect at next boot:
                // detach the store (stopping further writes even if
                // another thread still holds the Arc) and delete its
                // directory.
                let dir = match entry.lock() {
                    Ok(mut s) => s.detach_store().map(|st| st.dir().to_path_buf()),
                    // Poisoned by an earlier panic: fall back to the
                    // conventional location.
                    Err(_) => ctx.data_dir.as_ref().map(|d| d.join(&sid)),
                };
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                format!("OK closed sid={sid}")
            }
            Err(e) => err_line(&e),
        },
        PoolJob::Verb(Request::ReplSync { sid }) => with_session(registry, &sid, |s| {
            let reply = repl_sync_reply(&sid, s);
            if reply.starts_with("OK ") {
                m.repl_syncs_shipped_total.inc();
            }
            reply
        }),
        PoolJob::Verb(Request::ReplFrames { sid, seq, offset }) => {
            with_session(registry, &sid, |s| {
                repl_frames_reply(&sid, s, seq, offset, m)
            })
        }
        PoolJob::Verb(Request::Stall {
            target: StallTarget::Worker,
            ms,
        }) => {
            // Fault injection (gated at dispatch by --debug-stall):
            // occupy this worker so its heartbeat cell registers a
            // stall.
            igp_obs::warn!(target: "serve", "injected worker stall"; ms = ms);
            std::thread::sleep(Duration::from_millis(ms));
            format!("OK stalled target=worker ms={ms}")
        }
        PoolJob::Verb(req) => {
            // Ping/List/Metrics/Promote/Shutdown/Open are loop-inline and
            // never dispatched; reaching here is a loop bug, not a client
            // error.
            err_line(&ServiceError::Internal(format!(
                "verb `{}` is not a pool verb",
                crate::obs::VERBS[req.verb_idx()].0
            )))
        }
    }
}

fn open_session(ctx: &ServerCtx, sid: &str, cfg: SessionConfig, metis_text: &str) -> String {
    let registry = &ctx.registry;
    // Cheap existence check before paying for parsing + RSB; the
    // post-construction `registry.open` below stays authoritative for
    // the race where two OPENs on one sid pass this check together.
    if registry.get(sid).is_ok() {
        return err_line(&ServiceError::SessionExists(sid.to_string()));
    }
    let graph: CsrGraph = match graph_io::read_metis(metis_text) {
        Ok(g) => g,
        Err(e) => return err_line(&ServiceError::Graph(e.to_string())),
    };
    if graph.num_vertices() < cfg.parts {
        return err_line(&ServiceError::Graph(format!(
            "{} vertices cannot fill parts={}",
            graph.num_vertices(),
            cfg.parts
        )));
    }
    let parts = cfg.parts;
    // Durable configs must survive the config-line roundtrip recovery
    // depends on; reject before any expensive work.
    if ctx.data_dir.is_some() {
        if let Err(e) = crate::protocol::check_wire_representable(&cfg) {
            return err_line(&ServiceError::Storage(e));
        }
    }
    let session = ServiceSession::open(graph, cfg);
    let (g, part) = (session.inner().graph(), session.inner().partitioning());
    let (n, num_edges) = (g.num_vertices(), g.num_edges());
    let reply = format!(
        "OK open sid={sid} n={n} m={num_edges} parts={parts} cut={} imbalance={:.6}",
        part.cut_edges(),
        part.count_imbalance(),
    );
    let entry = match registry.open(sid, session) {
        Ok(entry) => entry,
        Err(e) => return err_line(&e),
    };
    // Disk is touched only after this thread *won* the sid: a loser in
    // a duplicate-OPEN race must never wipe the winner's directory. We
    // operate on the exact entry we registered (not a by-sid lookup,
    // which a concurrent CLOSE + re-OPEN could repoint at someone
    // else's session), and the initial snapshot is taken from the
    // session's state under its lock, so nothing in between is lost.
    if let Some(data_dir) = &ctx.data_dir {
        let made_durable = match entry.lock() {
            Ok(mut s) => s
                .make_durable(&data_dir.join(sid), sid, ctx.snapshot_policy)
                .err(),
            Err(_) => Some(ServiceError::Internal(format!(
                "session `{sid}` poisoned before it became durable"
            ))),
        };
        if let Some(e) = made_durable {
            // A session the daemon cannot journal must not linger
            // half-durable: unregister it again — but only if the table
            // still maps the sid to *our* entry.
            registry.close_if_same(sid, &entry);
            return err_line(&e);
        }
    }
    reply
}

fn with_session<F: FnOnce(&mut ServiceSession) -> String>(
    registry: &SessionRegistry,
    sid: &str,
    f: F,
) -> String {
    match registry.get(sid) {
        Ok(entry) => match entry.lock() {
            Ok(mut session) => f(&mut session),
            // A panic in an earlier request poisoned this session; keep
            // the daemon and the connection alive and tell the client.
            Err(_) => err_line(&ServiceError::Internal(format!(
                "session `{sid}` poisoned by an earlier panic; CLOSE and re-OPEN it"
            ))),
        },
        Err(e) => err_line(&e),
    }
}

fn step_line(sid: &str, s: &StepSummary, coalesced: usize, scratch: bool) -> String {
    format!(
        "OK step sid={sid} step={} coalesced={coalesced} n={} cut={} imbalance={:.6} \
         moved={} stages={} balanced={} scratch={}",
        s.step,
        s.num_vertices,
        s.cut,
        s.imbalance,
        s.moved,
        s.stages,
        u8::from(s.balanced),
        u8::from(scratch),
    )
}

fn err_line(e: &ServiceError) -> String {
    format!("ERR {} {e}", e.kind())
}

/// End of the HTTP request head (`\r\n\r\n` or bare `\n\n`), if fully
/// buffered; returns the offset one past the blank line.
fn find_http_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// A complete plain-text HTTP/1.0 response.
fn http_message(code: u16, reason: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// The `/sessions` table: one line per session, read with `try_lock` so
/// a busy session shows as `busy=1` instead of blocking the loop (or a
/// crash-time dump) on a worker's session lock.
pub(crate) fn render_sessions(ctx: &ServerCtx) -> String {
    let ids = ctx.registry.list();
    let role = if ctx.is_follower() {
        "follower"
    } else {
        "primary"
    };
    let mut out = format!("role {role}\nsessions {}\n", ids.len());
    for sid in ids {
        let Ok(entry) = ctx.registry.get(&sid) else {
            continue; // closed between list and get
        };
        match entry.try_lock() {
            Ok(s) => {
                let g = s.inner().graph();
                out.push_str(&format!(
                    "{sid} n={} m={} pending={} steps={} scratch={}\n",
                    g.num_vertices(),
                    g.num_edges(),
                    s.inner().pending_deltas(),
                    s.steps(),
                    u8::from(s.inner().needs_scratch()),
                ));
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                out.push_str(&format!("{sid} busy=1\n"));
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                out.push_str(&format!("{sid} poisoned=1\n"));
            }
        };
    }
    out
}

/// Refresh every registry- or clock-derived gauge ahead of a metrics
/// render (the `METRICS` verb, HTTP `/metrics`, and the dump all route
/// through here).
pub(crate) fn refresh_serving_gauges(ctx: &ServerCtx) {
    let m = crate::obs::metrics();
    m.active_sessions.set(ctx.registry.len() as i64);
    crate::obs::refresh_process_gauges();
    if let Some(rh) = &ctx.health.repl {
        m.repl_lag_ms.set(rh.lag_ms() as i64);
        if let Some(age) = rh.heartbeat_age_ms() {
            m.repl_heartbeat_age_ms.set(age as i64);
        }
    }
}

/// `REPL SYNC` reply: the session's full durable state — meta, current
/// snapshot, and the acked WAL file — hex-encoded so the line protocol
/// stays text. The header carries the cursor `(seq, wal_end)` the
/// follower resumes `REPL FRAME` tailing from.
fn repl_sync_reply(sid: &str, s: &mut ServiceSession) -> String {
    let Some(st) = s.store() else {
        return err_line(&ServiceError::Storage(format!(
            "session `{sid}` is memory-only; nothing to replicate"
        )));
    };
    let (seq, wal_end) = st.repl_cursor();
    let files = st
        .meta_file_bytes()
        .and_then(|m| st.snapshot_file_bytes().map(|s| (m, s)))
        .and_then(|(m, sn)| st.wal_file_bytes_from(0).map(|w| (m, sn, w)));
    let (meta, snap, wal) = match files {
        Ok(t) => t,
        Err(e) => return err_line(&ServiceError::Storage(e.to_string())),
    };
    let mut out = format!(
        "OK replsync sid={sid} seq={seq} wal_end={wal_end} \
         meta_bytes={} snap_bytes={} wal_bytes={}\n",
        meta.len(),
        snap.len(),
        wal.len(),
    );
    out.push_str(&encode_hex_lines(&meta));
    out.push_str(&encode_hex_lines(&snap));
    out.push_str(&encode_hex_lines(&wal));
    out.push_str("END");
    out
}

/// `REPL FRAME` reply: the raw frame bytes in `[offset, wal_end)` of
/// the WAL the cursor names. A cursor from before a rotation (seq
/// mismatch or out-of-range offset) gets `ERR repl-stale`, telling the
/// follower to full-resync.
fn repl_frames_reply(
    sid: &str,
    s: &mut ServiceSession,
    seq: u64,
    offset: u64,
    m: &crate::obs::ServiceMetrics,
) -> String {
    let Some(st) = s.store() else {
        return err_line(&ServiceError::Storage(format!(
            "session `{sid}` is memory-only; nothing to replicate"
        )));
    };
    let (cur_seq, wal_end) = st.repl_cursor();
    if seq != cur_seq || offset < HEADER_BYTES || offset > wal_end {
        return err_line(&ServiceError::ReplStale {
            sid: sid.to_string(),
            seq: cur_seq,
        });
    }
    let bytes = match st.wal_file_bytes_from(offset) {
        Ok(b) => b,
        Err(e) => return err_line(&ServiceError::Storage(e.to_string())),
    };
    // Count (and sanity-check) the batch before shipping: a primary
    // must never relay bytes it cannot decode itself.
    let frames = match decode_frames(&bytes) {
        Ok(r) => r.len() as u64,
        Err(e) => return err_line(&ServiceError::Storage(e.to_string())),
    };
    m.repl_frames_shipped_total.add(frames);
    let mut out = format!(
        "OK replframes sid={sid} seq={cur_seq} from={offset} to={wal_end} frames={frames} bytes={}",
        bytes.len(),
    );
    // The primary's trace id rides the header — never the frame bytes,
    // which must re-journal byte-identical on the follower — so the
    // follower's apply spans can join this request's trace.
    if let Some(trace) = igp_obs::trace::current_trace_id() {
        out.push_str(&format!(" trace={trace}"));
    }
    out.push('\n');
    out.push_str(&encode_hex_lines(&bytes));
    out.push_str("END");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: shutting down a daemon bound to a wildcard address
    /// must not hang. The old core woke its blocking `accept` with a
    /// throwaway loopback connection (wildcard addresses are not valid
    /// connect targets everywhere); the event loop's waker has no such
    /// address sensitivity, but the behaviour must hold.
    #[test]
    fn shutdown_unblocks_wildcard_bind() {
        let mut h = serve("0.0.0.0:0", ServeOptions::default()).expect("bind");
        assert!(h.addr().ip().is_unspecified());
        h.shutdown(); // joins the loop (and pool); must return promptly
    }

    /// The auto worker count stays small and fixed: the loop, not the
    /// thread count, provides concurrency.
    #[test]
    fn auto_workers_is_small_and_fixed() {
        let w = effective_workers(0);
        assert!((2..=4).contains(&w), "auto workers = {w}");
        assert_eq!(effective_workers(7), 7);
    }
}
