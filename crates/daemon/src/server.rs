//! Socket plumbing around the [`Engine`].
//!
//! `muppetd` listens on a Unix domain socket (and optionally TCP),
//! speaks one JSON request per line, and answers one JSON response per
//! line. Internally:
//!
//! - one **acceptor** thread per listener (non-blocking accept with a
//!   short stop-flag poll, so shutdown is prompt);
//! - one **reader** thread per connection, which parses request lines,
//!   registers a [`CancelToken`] per in-flight request and enqueues
//!   jobs — on client disconnect every still-running request of that
//!   connection is cancelled cooperatively;
//! - a fixed **worker pool** draining the shared queue; each job runs
//!   under `catch_unwind` so a panicking solve turns into an error
//!   response instead of a dead worker.
//!
//! Responses are written under a per-connection mutex, so concurrent
//! workers never interleave bytes of different lines.
//!
//! **Overload behavior** (DESIGN.md §14): the job queue is bounded by
//! [`OverloadConfig`] — a request that would exceed `max_queue_depth`
//! or its connection's `max_inflight_per_conn` is *shed* immediately
//! with an `overloaded` response carrying a `retry_after_ms` hint,
//! instead of queueing without bound. Readers enforce a mid-line read
//! timeout so a half-open client cannot pin its thread forever. On
//! shutdown the server *drains*: acceptors stop, new requests are shed
//! as `overloaded: draining`, accepted work keeps running until the
//! drain deadline, and any stragglers are then cancelled through their
//! `CancelToken`s — every accepted request still gets a terminal
//! response.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use muppet::CancelToken;

use crate::engine::{Engine, EngineConfig, OverloadConfig, ShedReason};
use crate::json::Json;
use crate::proto::{Op, Request, Response, PROTOCOL_VERSION};

/// How often blocked threads re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix domain socket path (a stale file at the path is replaced).
    pub socket: Option<PathBuf>,
    /// Optional TCP listen address, e.g. `127.0.0.1:0`.
    pub tcp: Option<String>,
    /// Worker threads solving requests (clamped to ≥ 1).
    pub workers: usize,
    /// Engine knobs (cache and session capacities).
    pub engine: EngineConfig,
    /// Admission-control, read-timeout and drain knobs.
    pub overload: OverloadConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            socket: None,
            tcp: None,
            workers: 4,
            engine: EngineConfig::default(),
            overload: OverloadConfig::default(),
        }
    }
}

/// One queued request.
struct Job {
    req: Request,
    cancel: CancelToken,
    seq: u64,
    /// Server-wide id in the drain registry.
    gid: u64,
    inflight: Arc<Mutex<HashMap<u64, CancelToken>>>,
    drain: Arc<DrainState>,
    writer: SharedWriter,
}

/// A connection's shared write half. Response lines and subscription
/// pushes serialize through the same mutex, so an unsolicited event
/// line never interleaves bytes with a response line.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Watch-id → subscribed connection writers (streaming notifications).
///
/// Registered by a worker when a `subscribe` succeeds; a verdict flip
/// reported by a `push_delta` response is broadcast to every subscriber
/// of that watch as one unsolicited JSON line distinguished by an
/// `"event"` field (responses never carry one). Entries are pruned when
/// the watch is torn down, when a write fails, and when the owning
/// connection's reader exits.
struct WatchSubs {
    map: Mutex<HashMap<String, Vec<SharedWriter>>>,
}

impl WatchSubs {
    fn new() -> WatchSubs {
        WatchSubs {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Register a subscriber (idempotent per connection).
    fn add(&self, watch: &str, writer: &SharedWriter) {
        let mut map = relock(&self.map);
        let subs = map.entry(watch.to_string()).or_default();
        if !subs.iter().any(|w| Arc::ptr_eq(w, writer)) {
            subs.push(Arc::clone(writer));
        }
    }

    /// Drop every subscription of a torn-down watch.
    fn remove_watch(&self, watch: &str) {
        relock(&self.map).remove(watch);
    }

    /// Drop a disconnected connection's subscriptions.
    fn drop_writer(&self, writer: &SharedWriter) {
        let mut map = relock(&self.map);
        for subs in map.values_mut() {
            subs.retain(|w| !Arc::ptr_eq(w, writer));
        }
        map.retain(|_, subs| !subs.is_empty());
    }

    /// Push one event line to every subscriber of `watch`, pruning
    /// writers whose connection has vanished.
    fn notify(&self, watch: &str, line: &str) {
        let writers: Vec<SharedWriter> =
            relock(&self.map).get(watch).cloned().unwrap_or_default();
        let mut dead = Vec::new();
        for w in &writers {
            let failed = {
                let mut g = relock(w);
                writeln!(g, "{line}").and_then(|_| g.flush()).is_err()
            };
            if failed {
                dead.push(Arc::clone(w));
            }
        }
        if !dead.is_empty() {
            let mut map = relock(&self.map);
            if let Some(subs) = map.get_mut(watch) {
                subs.retain(|w| !dead.iter().any(|d| Arc::ptr_eq(d, w)));
            }
        }
    }
}

/// The shared job queue.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// Server-wide registry of accepted-but-unfinished requests (queued or
/// running), keyed by a global id. The drain watchdog cancels every
/// remaining token here once the drain deadline passes.
struct DrainState {
    inflight: Mutex<HashMap<u64, CancelToken>>,
    next: AtomicU64,
}

/// Ignore mutex poisoning: queue and registry state stay internally
/// consistent even if a panicking thread held the lock (worst case one
/// job entry is stale, which the drain watchdog tolerates).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::stop`] (or send a `shutdown` request) first,
/// then [`ServerHandle::wait`].
pub struct ServerHandle {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    queue: Arc<Queue>,
    threads: Vec<thread::JoinHandle<()>>,
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The engine, for in-process inspection (tests, the harness).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The bound TCP address, when a TCP listener was requested (useful
    /// with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Request shutdown: acceptors stop accepting, readers shed new
    /// requests as `overloaded: draining`, workers drain the queue and
    /// exit. In-flight work past the configured drain deadline is
    /// cancelled by the drain watchdog, so [`ServerHandle::wait`]
    /// returns within roughly the deadline plus one cancellation poll.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.ready.notify_all();
    }

    /// True once [`ServerHandle::stop`] was called (by us or by a
    /// client's `shutdown` request).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Join acceptor, worker and drain-watchdog threads (reader threads
    /// exit on their own when clients disconnect) and remove the socket
    /// file. Call [`ServerHandle::stop`] first; after a stop this
    /// returns within roughly the drain deadline.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Start the daemon. At least one of `socket` / `tcp` must be set.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, String> {
    if config.socket.is_none() && config.tcp.is_none() {
        return Err("serve: need a unix socket path or a tcp address".to_string());
    }
    let engine = Arc::new(Engine::new(config.engine));
    engine.set_overload_limits(config.overload);
    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(Queue {
        jobs: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    let drain = Arc::new(DrainState {
        inflight: Mutex::new(HashMap::new()),
        next: AtomicU64::new(0),
    });
    let subs = Arc::new(WatchSubs::new());
    let overload = config.overload;
    let mut threads = Vec::new();

    for _ in 0..config.workers.max(1) {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        let subs = Arc::clone(&subs);
        threads.push(thread::spawn(move || worker_loop(&engine, &stop, &queue, &subs)));
    }

    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        let drain_state = Arc::clone(&drain);
        let deadline = Duration::from_millis(overload.drain_deadline_ms.max(1));
        threads.push(thread::spawn(move || {
            drain_watchdog(&engine, &stop, &queue, &drain_state, deadline)
        }));
    }

    let socket_path = config.socket.clone();
    if let Some(path) = &config.socket {
        // Replace a stale socket file from a previous run; refuse to
        // clobber anything that is not a socket.
        if path.exists() {
            let is_socket = std::fs::metadata(path)
                .map(|m| {
                    use std::os::unix::fs::FileTypeExt;
                    m.file_type().is_socket()
                })
                .unwrap_or(false);
            if !is_socket {
                return Err(format!("refusing to replace non-socket file {}", path.display()));
            }
            let _ = std::fs::remove_file(path);
        }
        let listener =
            UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        let drain = Arc::clone(&drain);
        let subs = Arc::clone(&subs);
        threads.push(thread::spawn(move || {
            accept_loop(
                &stop,
                || listener.accept().map(|(s, _)| s),
                |s| spawn_unix(s, &engine, &stop, &queue, &drain, &subs, overload),
            );
        }));
    }

    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        tcp_addr = listener.local_addr().ok();
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let queue = Arc::clone(&queue);
        let drain = Arc::clone(&drain);
        let subs = Arc::clone(&subs);
        threads.push(thread::spawn(move || {
            accept_loop(
                &stop,
                || listener.accept().map(|(s, _)| s),
                |s| spawn_tcp(s, &engine, &stop, &queue, &drain, &subs, overload),
            );
        }));
    }

    Ok(ServerHandle {
        engine,
        stop,
        queue,
        threads,
        socket_path,
        tcp_addr,
    })
}

/// Non-blocking accept loop with a stop-flag poll.
fn accept_loop<S>(
    stop: &AtomicBool,
    mut accept: impl FnMut() -> std::io::Result<S>,
    mut spawn: impl FnMut(S),
) {
    while !stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => spawn(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(STOP_POLL),
            Err(_) => thread::sleep(STOP_POLL),
        }
    }
}

fn spawn_unix(
    stream: UnixStream,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    queue: &Arc<Queue>,
    drain: &Arc<DrainState>,
    subs: &Arc<WatchSubs>,
    overload: OverloadConfig,
) {
    if overload.read_timeout_ms > 0 {
        // A failed setsockopt leaves the old (blocking) behavior; the
        // connection still works, it is just loris-prone.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(overload.read_timeout_ms)));
    }
    let write_half: Option<Box<dyn Write + Send>> = stream
        .try_clone()
        .ok()
        .map(|s| Box::new(s) as Box<dyn Write + Send>);
    spawn_reader(Box::new(stream), write_half, engine, stop, queue, drain, subs, overload);
}

fn spawn_tcp(
    stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    queue: &Arc<Queue>,
    drain: &Arc<DrainState>,
    subs: &Arc<WatchSubs>,
    overload: OverloadConfig,
) {
    if overload.read_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(overload.read_timeout_ms)));
    }
    let write_half: Option<Box<dyn Write + Send>> = stream
        .try_clone()
        .ok()
        .map(|s| Box::new(s) as Box<dyn Write + Send>);
    spawn_reader(Box::new(stream), write_half, engine, stop, queue, drain, subs, overload);
}

/// Start the per-connection reader thread.
///
/// The reader accumulates raw bytes and handles each complete line,
/// instead of `BufRead::read_line`, for two reasons: a socket read
/// timeout must be distinguishable from EOF (a *mid-line* stall is a
/// slow-loris and drops the connection; an idle gap between requests is
/// fine), and a timed-out `read_line` would lose the partial line it
/// had already consumed.
#[allow(clippy::too_many_arguments)] // plumbing shared by two call sites
fn spawn_reader(
    read_half: Box<dyn Read + Send>,
    write_half: Option<Box<dyn Write + Send>>,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    queue: &Arc<Queue>,
    drain: &Arc<DrainState>,
    subs: &Arc<WatchSubs>,
    overload: OverloadConfig,
) {
    let Some(write_half) = write_half else {
        return; // try_clone failed; drop the connection.
    };
    let engine = Arc::clone(engine);
    let stop = Arc::clone(stop);
    let queue = Arc::clone(queue);
    let drain = Arc::clone(drain);
    let subs = Arc::clone(subs);
    thread::spawn(move || {
        let mut read_half = read_half;
        let writer: SharedWriter = Arc::new(Mutex::new(write_half));
        let inflight: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
        let seq = AtomicU64::new(0);
        let mut acc: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        'conn: loop {
            while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                let line_bytes: Vec<u8> = acc.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line_bytes);
                if !line.trim().is_empty() {
                    handle_line(&line, &engine, &stop, &queue, &drain, overload, &writer, &inflight, &seq);
                }
            }
            match read_half.read(&mut chunk) {
                Ok(0) => break 'conn, // EOF
                Ok(n) => acc.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // The socket's read timeout fired. Mid-line silence
                    // is a stalled (or malicious) client: answer and
                    // drop the connection so the thread is reclaimed.
                    // Between requests it is just an idle keep-alive.
                    if !acc.is_empty() {
                        write_response(
                            &writer,
                            &Response::failure(
                                None,
                                format!(
                                    "read timeout: request line stalled for {} ms",
                                    overload.read_timeout_ms
                                ),
                            ),
                        );
                        break 'conn;
                    }
                }
                Err(_) => break 'conn, // dead socket
            }
        }
        // Client gone: cancel whatever is still running for it and
        // unsubscribe its writer from every watch.
        if let Ok(inf) = inflight.lock() {
            for tok in inf.values() {
                tok.cancel();
            }
        };
        subs.drop_writer(&writer);
    });
}

/// Parse and dispatch one request line from a connection: admission
/// control, shed responses, shutdown interception, or enqueue.
#[allow(clippy::too_many_arguments)] // plumbing shared by one call site
fn handle_line(
    line: &str,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    queue: &Arc<Queue>,
    drain: &Arc<DrainState>,
    overload: OverloadConfig,
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
    inflight: &Arc<Mutex<HashMap<u64, CancelToken>>>,
    seq: &AtomicU64,
) {
    let req = match Request::from_line(line) {
        Ok(req) => req,
        Err(e) => {
            write_response(writer, &Response::failure(None, e));
            return;
        }
    };
    if req.op == Op::Shutdown {
        write_response(writer, &engine.handle(&req, None));
        stop.store(true, Ordering::SeqCst);
        queue.ready.notify_all();
        return;
    }
    let shed = |reason: ShedReason, id: Option<String>| {
        engine.note_shed(reason);
        write_response(
            writer,
            &Response::overloaded(id, reason.message(), overload.retry_after_ms),
        );
    };
    // Draining: a stopped server accepts no new work, but still answers
    // every request with *something* terminal.
    if stop.load(Ordering::SeqCst) {
        shed(ShedReason::Draining, req.id);
        return;
    }
    // Per-connection in-flight cap. Only this reader inserts into the
    // map (workers only remove), so the check cannot race with another
    // admission on the same connection.
    if overload.max_inflight_per_conn > 0
        && relock(inflight).len() >= overload.max_inflight_per_conn
    {
        shed(ShedReason::ConnCap, req.id);
        return;
    }
    let cancel = CancelToken::new();
    let n = seq.fetch_add(1, Ordering::Relaxed);
    let gid = drain.next.fetch_add(1, Ordering::Relaxed);
    let req_id = req.id.clone();
    // The queue-depth check, token registration and depth gauge all
    // happen inside the queue lock: admission is atomic, a shed request
    // registers nothing, and a worker cannot observe (and decrement
    // for) the job before its increment landed. One request is one
    // slot.
    let admitted = {
        let mut jobs = relock(&queue.jobs);
        if overload.max_queue_depth > 0 && jobs.len() >= overload.max_queue_depth {
            false
        } else {
            relock(inflight).insert(n, cancel.clone());
            relock(&drain.inflight).insert(gid, cancel.clone());
            jobs.push_back(Job {
                req,
                cancel,
                seq: n,
                gid,
                inflight: Arc::clone(inflight),
                drain: Arc::clone(drain),
                writer: Arc::clone(writer),
            });
            engine.note_enqueued();
            true
        }
    };
    if admitted {
        queue.ready.notify_one();
    } else {
        shed(ShedReason::QueueFull, req_id);
    }
}

/// The worker pool body: drain jobs until stopped *and* the queue is
/// empty (a shutdown request still gets its queued predecessors
/// answered).
fn worker_loop(engine: &Arc<Engine>, stop: &AtomicBool, queue: &Queue, subs: &WatchSubs) {
    loop {
        let job = {
            let mut jobs = match queue.jobs.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = match queue.ready.wait_timeout(jobs, STOP_POLL) {
                    Ok(r) => r,
                    Err(p) => p.into_inner(),
                };
                jobs = guard;
            }
        };
        let Some(job) = job else { return };
        engine.note_dequeued();
        let resp = catch_unwind(AssertUnwindSafe(|| engine.handle(&job.req, Some(&job.cancel))))
            .unwrap_or_else(|_| {
                Response::failure(job.req.id.clone(), "internal error: request handler panicked")
            });
        if let Ok(mut inf) = job.inflight.lock() {
            inf.remove(&job.seq);
        }
        if let Ok(mut g) = job.drain.inflight.lock() {
            g.remove(&job.gid);
        }
        // A subscription must be live before its ok line is written:
        // the moment the client reads the response it may trigger a
        // flip from another connection, and that event has to land.
        if resp.ok && job.req.op == Op::Subscribe {
            if let Some(w) = resp.result.get("watch").and_then(Json::as_str) {
                subs.add(w, &job.writer);
            }
        }
        write_response(&job.writer, &resp);
        stream_hooks(subs, &job.req, &resp);
    }
}

/// Streaming side effects of a completed job: tear down a watch's
/// subscriptions and broadcast verdict flips. Runs *after* the job's
/// own response line so the requester always sees its answer before
/// any event it triggered (subscriber registration instead runs before
/// the response — see `worker_loop`).
fn stream_hooks(subs: &WatchSubs, req: &Request, resp: &Response) {
    if !resp.ok {
        return;
    }
    let watch = resp.result.get("watch").and_then(Json::as_str);
    match req.op {
        Op::Unwatch => {
            if let Some(w) = watch {
                subs.remove_watch(w);
            }
        }
        Op::PushDelta => {
            if resp.result.get("flipped").and_then(Json::as_bool) != Some(true) {
                return;
            }
            if let Some(w) = watch {
                let grab = |key: &str| resp.result.get(key).cloned().unwrap_or(Json::Null);
                let event = Json::obj([
                    ("v", Json::num(PROTOCOL_VERSION)),
                    ("event", Json::str("verdict_flip")),
                    ("watch", Json::str(w)),
                    ("seq", grab("seq")),
                    ("kind", grab("kind")),
                    ("verdict", grab("verdict")),
                ]);
                subs.notify(w, &event.to_line());
            }
        }
        _ => {}
    }
}

/// The drain watchdog: sleeps until shutdown begins, then watches the
/// queue and the server-wide in-flight registry. Work finishing within
/// the drain deadline drains naturally; once the deadline passes, every
/// remaining token is cancelled (repeatedly, to catch a racing enqueue
/// that slipped in as the stop flag flipped) so stragglers answer as
/// budget-exhausted instead of running arbitrarily long. The measured
/// drain duration and straggler count land in the engine's stats.
fn drain_watchdog(
    engine: &Arc<Engine>,
    stop: &AtomicBool,
    queue: &Queue,
    drain: &DrainState,
    deadline: Duration,
) {
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(STOP_POLL);
    }
    let start = Instant::now();
    let mut cancelled: HashSet<u64> = HashSet::new();
    loop {
        let queued = relock(&queue.jobs).len();
        let running = relock(&drain.inflight).len();
        if queued == 0 && running == 0 {
            break;
        }
        if start.elapsed() >= deadline {
            {
                let g = relock(&drain.inflight);
                for (gid, tok) in g.iter() {
                    if cancelled.insert(*gid) {
                        tok.cancel();
                    }
                }
            }
            // Reap jobs still sitting in the queue. Normally workers
            // drain these, but a request that raced past the stop flag
            // after the last worker exited would otherwise be stranded
            // (and hang this loop); answering it here keeps the
            // every-accepted-request-terminates guarantee.
            let stranded: Vec<Job> = relock(&queue.jobs).drain(..).collect();
            for job in stranded {
                engine.note_dequeued();
                cancelled.insert(job.gid);
                if let Ok(mut inf) = job.inflight.lock() {
                    inf.remove(&job.seq);
                }
                if let Ok(mut g) = job.drain.inflight.lock() {
                    g.remove(&job.gid);
                }
                write_response(
                    &job.writer,
                    &Response::failure(
                        job.req.id.clone(),
                        "cancelled: server drained before this request started",
                    ),
                );
            }
        }
        thread::sleep(STOP_POLL);
    }
    engine.note_drain(start.elapsed(), cancelled.len() as u64);
}

/// Write one response line under the connection's writer lock. Write
/// errors mean the client vanished; they are ignored.
fn write_response(writer: &Mutex<Box<dyn Write + Send>>, resp: &Response) {
    if let Ok(mut w) = writer.lock() {
        let _ = writeln!(w, "{}", resp.to_line());
        let _ = w.flush();
    }
}
