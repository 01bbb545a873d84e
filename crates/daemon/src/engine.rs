//! The daemon engine: session registry, result cache, dispatch.
//!
//! [`Engine`] is `muppetd` with the sockets removed — tests, the bench
//! harness and the server all drive the same [`Engine::handle`] entry
//! point. It owns two layers of reuse:
//!
//! 1. **Warm sessions.** Specs are loaded once per content fingerprint
//!    and kept in a bounded registry. A warm session keeps its
//!    [`muppet_solver::PreparedStore`] (grounded formulas + CNF) alive,
//!    so repeat solves re-encode only groups a delta actually touched.
//! 2. **Content-addressed results.** Every solve answer is cached under
//!    a fingerprint of *exactly the inputs that feed it*, per
//!    operation. A consistency check hashes only that party's goal
//!    table; an envelope toward the tenant hashes only the provider's
//!    side (manifests, sender goals, the derived port universe, mTLS).
//!    That is what makes invalidation delta-aware: a tenant goal edit
//!    that leaves the port universe intact cannot evict the provider's
//!    envelope, while any hashed-input change lands on a fresh key.
//!
//! Soundness rule: only *definite* results enter the cache. An answer
//! produced under a fired budget (`exhausted` set, or the operation
//! aborted) is returned to its requester but never stored, so a cached
//! verdict always equals what a cold, unlimited solve would say.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use muppet::conformance::run_conformance;
use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{
    Budget, CancelToken, ConsistencyReport, Envelope, ExhaustionReport, MuppetError, Phase,
    PreparedStore, QueryStats, Reconciliation, ReconcileMode, RetryPolicy, Session,
};
use muppet_logic::{Instance, PartyId, Universe, Vocabulary};
use muppet_scenario::ConfigDelta;
use muppet_stream::{StreamSession, StreamSpec, StreamStats};

use crate::cache::ResultCache;
use crate::json::Json;
use crate::proto::{Op, Request, Response};
use crate::spec::{SessionSpec, WarmCore, WarmSession};

use muppet::fingerprint::{hex as fingerprint_hex, parse_hex, Fingerprinter};

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Result-cache capacity (entries).
    pub cache_cap: usize,
    /// Maximum number of warm sessions kept resident.
    pub max_sessions: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_cap: 1024,
            max_sessions: 64,
        }
    }
}

/// Admission-control and drain knobs. The **server** layer enforces
/// them (the engine itself never sheds — in-process callers like the
/// harness bypass admission by construction); the engine stores a copy
/// so the `stats` op can report the active limits next to the shed
/// counters they produce.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Maximum accepted-but-not-yet-running requests in the shared job
    /// queue; pushes beyond it are shed with `overloaded`. 0 = unbounded
    /// (the pre-admission-control behavior).
    pub max_queue_depth: usize,
    /// Maximum in-flight (queued + running) requests per client
    /// connection; excess pipelined requests are shed. 0 = unlimited.
    pub max_inflight_per_conn: usize,
    /// The `retry_after_ms` hint attached to shed responses.
    pub retry_after_ms: u64,
    /// After a shutdown begins, how long in-flight work may keep
    /// running before its cancel tokens fire (milliseconds).
    pub drain_deadline_ms: u64,
    /// How long a connection may stall mid-line before the server
    /// drops it (milliseconds); idle connections *between* requests are
    /// unaffected. 0 disables the timeout.
    pub read_timeout_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> OverloadConfig {
        OverloadConfig {
            max_queue_depth: 256,
            max_inflight_per_conn: 32,
            retry_after_ms: 50,
            drain_deadline_ms: 5_000,
            read_timeout_ms: 30_000,
        }
    }
}

/// Why the server shed a request (for counters and shed messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The shared job queue was at `max_queue_depth`.
    QueueFull,
    /// The connection was at `max_inflight_per_conn`.
    ConnCap,
    /// The server is draining after a shutdown request.
    Draining,
}

impl ShedReason {
    /// The human-readable `error` string on the shed response.
    pub fn message(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "overloaded: job queue full",
            ShedReason::ConnCap => "overloaded: connection in-flight cap reached",
            ShedReason::Draining => "overloaded: server is draining",
        }
    }
}

/// Warm-session registry: fingerprint → session, FIFO-bounded.
struct Registry {
    map: HashMap<u128, Arc<Mutex<WarmSession>>>,
    order: Vec<u128>,
}

/// Streaming-watch registry: watch id → live multi-shot session,
/// FIFO-bounded at the same cap as warm sessions. Unlike warm sessions
/// (content-addressed, shareable), every `watch` call mints a fresh id:
/// a watch is *mutable* state owned by whoever holds the id.
struct WatchRegistry {
    map: HashMap<String, Arc<Mutex<StreamSession>>>,
    order: Vec<String>,
    next_id: u64,
}

/// One operation's latency histogram: bucket `i` counts requests that
/// took at most `2^i` µs, the last bucket everything slower.
#[derive(Default)]
struct Histogram {
    buckets: [AtomicU64; 32],
    total_us: AtomicU64,
}

impl Histogram {
    fn observe_us(&self, us: u64) {
        // Smallest i with 2^i >= us, capped to the last bucket.
        let i = (64 - us.saturating_sub(1).leading_zeros() as usize).min(31);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// The upper bound of the bucket holding quantile `q`: never below
    /// the true quantile.
    fn quantile_us(&self, q: f64) -> u64 {
        let counts = self.counts();
        let rank = (q * counts.iter().sum::<u64>() as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1 << i;
            }
        }
        0
    }

    fn json(&self) -> Json {
        let count = self.counts().iter().sum::<u64>();
        let total_us = self.total_us.load(Ordering::Relaxed);
        Json::obj([
            ("count", Json::num(count)),
            ("total_us", Json::num(total_us)),
            ("mean_us", Json::num(total_us.checked_div(count).unwrap_or(0))),
            ("p50_us", Json::num(self.quantile_us(0.5))),
            ("p99_us", Json::num(self.quantile_us(0.99))),
        ])
    }
}

/// Warm-state work: a [`PreparedStore`]'s lifetime counters, or the
/// engine's totals of what requests and watch deltas added to them.
#[derive(Clone, Copy, Default)]
struct WarmCounts {
    encoded: u64,
    reused: u64,
    answers_reused: u64,
    oll_cores: u64,
}

impl WarmCounts {
    fn of(store: &PreparedStore) -> WarmCounts {
        let (encoded, reused) = store.group_counters();
        WarmCounts {
            encoded,
            reused,
            answers_reused: store.answers_reused(),
            oll_cores: store.oll_cores(),
        }
    }

    fn of_delta(s: &StreamStats) -> WarmCounts {
        WarmCounts {
            encoded: s.groups_encoded,
            reused: s.groups_reused,
            answers_reused: u64::from(s.answer_reused),
            oll_cores: 0,
        }
    }

    /// What grew since `before` (store counters never go backwards).
    fn since(self, before: WarmCounts) -> WarmCounts {
        WarmCounts {
            encoded: self.encoded - before.encoded,
            reused: self.reused - before.reused,
            answers_reused: self.answers_reused - before.answers_reused,
            oll_cores: self.oll_cores - before.oll_cores,
        }
    }

    fn add(&mut self, more: WarmCounts) {
        self.encoded += more.encoded;
        self.reused += more.reused;
        self.answers_reused += more.answers_reused;
        self.oll_cores += more.oll_cores;
    }
}

/// The daemon engine. Thread-safe: share it behind an [`Arc`] and call
/// [`Engine::handle`] from any number of worker threads.
pub struct Engine {
    config: EngineConfig,
    sessions: Mutex<Registry>,
    watches: Mutex<WatchRegistry>,
    cache: Mutex<ResultCache>,
    requests: AtomicU64,
    errors: AtomicU64,
    in_flight: AtomicU64,
    /// Updated by the server's queue; a plain gauge for `stats`.
    queue_depth: AtomicU64,
    /// Highest queue depth ever observed (admission-control telemetry).
    queue_highwater: AtomicU64,
    /// Requests shed at admission, by reason.
    shed_queue_full: AtomicU64,
    shed_conn_cap: AtomicU64,
    shed_draining: AtomicU64,
    /// Graceful drains: how many, the last one's duration, and how many
    /// stragglers had to be cancelled at the deadline, cumulatively.
    drains: AtomicU64,
    drain_last_us: AtomicU64,
    drain_cancelled: AtomicU64,
    /// The server's admission limits, when it registered them.
    overload_limits: Mutex<Option<OverloadConfig>>,
    /// Request latency, one histogram per entry of [`Engine::ALL_OPS`].
    latency: [Histogram; Engine::ALL_OPS.len()],
    /// Warm-state work of every request and watch delta this engine
    /// served, kept here so evicted and busy sessions still count.
    warm: Mutex<WarmCounts>,
}

/// RAII guard for the in-flight gauge.
struct InFlight<'a>(&'a AtomicU64);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Ignore mutex poisoning: engine state is counters and caches, all of
/// which stay internally consistent even if a panicking thread held the
/// lock mid-update (worst case a cache entry or counter tick is lost).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Engine {
    /// Every operation the engine answers, in latency-histogram order.
    const ALL_OPS: [Op; 13] = [
        Op::OpenSession,
        Op::CheckConsistency,
        Op::Reconcile,
        Op::ExtractEnvelope,
        Op::CheckConformance,
        Op::NegotiateRound,
        Op::Stats,
        Op::Trace,
        Op::Watch,
        Op::PushDelta,
        Op::Subscribe,
        Op::Unwatch,
        Op::Shutdown,
    ];

    /// A fresh engine. Turns span collection on process-wide so the
    /// `trace` op always has recent trees to serve.
    pub fn new(config: EngineConfig) -> Engine {
        muppet_obs::set_enabled(true);
        Engine {
            config,
            sessions: Mutex::new(Registry {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            watches: Mutex::new(WatchRegistry {
                map: HashMap::new(),
                order: Vec::new(),
                next_id: 0,
            }),
            cache: Mutex::new(ResultCache::new(config.cache_cap)),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_highwater: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_conn_cap: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            drain_last_us: AtomicU64::new(0),
            drain_cancelled: AtomicU64::new(0),
            overload_limits: Mutex::new(None),
            latency: Default::default(),
            warm: Mutex::new(WarmCounts::default()),
        }
    }

    /// Record that a request was queued (server side). Also tracks the
    /// queue-depth high-watermark, the number admission control would
    /// have needed to contain.
    pub fn note_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record that a queued request was picked up (server side).
    pub fn note_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a shed request (server side admission control).
    pub fn note_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::ConnCap => &self.shed_conn_cap,
            ShedReason::Draining => &self.shed_draining,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed graceful drain: how long from stop to the
    /// last in-flight request finishing, and how many stragglers had to
    /// be cancelled at the deadline.
    pub fn note_drain(&self, duration: Duration, cancelled: u64) {
        self.drains.fetch_add(1, Ordering::Relaxed);
        let us = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        self.drain_last_us.store(us, Ordering::Relaxed);
        self.drain_cancelled.fetch_add(cancelled, Ordering::Relaxed);
    }

    /// Register the server's admission limits so `stats` can report
    /// them alongside the shed counters.
    pub fn set_overload_limits(&self, limits: OverloadConfig) {
        *relock(&self.overload_limits) = Some(limits);
    }

    /// Handle one request. `cancel` (when given) is polled by the
    /// solver between propagations — cancelling it aborts the request's
    /// solve work at the next budget check.
    pub fn handle(&self, req: &Request, cancel: Option<&CancelToken>) -> Response {
        let start = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        // `stats` is excluded from the in-flight gauge so the number it
        // reports is exactly the *other* work in progress — tracking it
        // and fudging the report with a `- 1` would undercount whenever
        // two stats requests overlap.
        let track = req.op != Op::Stats;
        let _guard = track.then(|| {
            self.in_flight.fetch_add(1, Ordering::Relaxed);
            InFlight(&self.in_flight)
        });
        let mut span = muppet_obs::span("request");
        span.attr("op", req.op.name());
        let mut resp = match self.dispatch(req, cancel, &mut span) {
            Ok(resp) => resp,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Response::failure(req.id.clone(), e)
            }
        };
        resp.id = req.id.clone();
        resp.elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        span.attr("ok", if resp.ok { "true" } else { "false" });
        drop(span);
        if let Some(i) = Engine::ALL_OPS.iter().position(|&op| op == req.op) {
            self.latency[i].observe_us(resp.elapsed_us);
        }
        resp
    }

    fn dispatch(
        &self,
        req: &Request,
        cancel: Option<&CancelToken>,
        span: &mut muppet_obs::SpanGuard,
    ) -> Result<Response, String> {
        match req.op {
            Op::Stats => return Ok(Response::success(None, self.stats_json())),
            Op::Trace => return Ok(Response::success(None, trace_json(req.n))),
            // The server intercepts shutdown to stop its threads; the
            // engine just acknowledges so in-process drivers get a
            // well-formed response too. The ack names the drain
            // contract: already-accepted work finishes (or is cancelled
            // at `drain_deadline_ms`), new work is shed as overloaded.
            Op::Shutdown => {
                let mut pairs = vec![
                    ("stopping".to_string(), Json::Bool(true)),
                    ("draining".to_string(), Json::Bool(true)),
                ];
                if let Some(l) = *relock(&self.overload_limits) {
                    pairs.push(("drain_deadline_ms".to_string(), Json::num(l.drain_deadline_ms)));
                }
                return Ok(Response::success(None, Json::Obj(pairs)));
            }
            // Streaming ops live in their own registry of *mutable*
            // watch sessions: never content-cached, never fingerprint
            // keyed — a watch is identified by the id `watch` minted.
            Op::Watch => return self.op_watch(req, span),
            Op::PushDelta => return self.op_push_delta(req, span),
            Op::Subscribe => return self.op_subscribe(req),
            Op::Unwatch => return self.op_unwatch(req),
            _ => {}
        }
        let (handle, hex_fp) = self.resolve_session(req)?;
        span.attr("session", hex_fp.clone());
        if req.op == Op::OpenSession {
            let ws = relock(&handle);
            let model = &ws.core.model;
            let mut pairs = vec![
                ("session".to_string(), Json::str(&hex_fp)),
                ("domain".to_string(), Json::str(model.domain)),
                ("services".to_string(), Json::num(model.services as u64)),
                (
                    "ports".to_string(),
                    Json::Arr(model.ports.iter().map(|&p| Json::num(u64::from(p))).collect()),
                ),
            ];
            // One goal-count key per party, named by role — for the
            // mesh domain these are the historical `k8s_goals` /
            // `istio_goals` keys.
            for p in &model.parties {
                pairs.push((format!("{}_goals", p.role), Json::num(p.goals.len() as u64)));
            }
            let mut resp = Response::success(None, Json::Obj(pairs));
            resp.session = Some(hex_fp);
            return Ok(resp);
        }

        // Layer 2: the content-addressed result cache. The span carries
        // the same fingerprint the cache keys on, so traces join
        // against cache entries.
        let key = {
            let ws = relock(&handle);
            self.result_key(req, &ws)?
        };
        span.attr("result_key", fingerprint_hex(key));
        if let Some((result, _)) = relock(&self.cache).get(key) {
            span.attr("cached", "true");
            let mut resp = Response::success(None, result);
            resp.cached = true;
            resp.session = Some(hex_fp);
            return Ok(resp);
        }
        span.attr("cached", "false");

        // Miss: run the operation against the warm session. The session
        // mutex serializes work *per session*; distinct sessions solve
        // concurrently across worker threads.
        let mut ws = relock(&handle);
        let (result, definite) = self.run_op(req, &mut ws, cancel)?;
        drop(ws);
        if definite {
            relock(&self.cache).put(key, result.clone(), hex_fp.clone());
        }
        let mut resp = Response::success(None, result);
        resp.session = Some(hex_fp);
        Ok(resp)
    }

    /// Find or build the warm session a request addresses.
    fn resolve_session(&self, req: &Request) -> Result<(Arc<Mutex<WarmSession>>, String), String> {
        let fp = match (&req.spec, &req.session) {
            (Some(spec), _) => spec.fingerprint(),
            (None, Some(handle)) => parse_hex(handle)
                .ok_or_else(|| format!("malformed session handle {handle:?}"))?,
            (None, None) => {
                return Err("request needs either \"spec\" (inline content) or \"session\" (handle)"
                    .to_string())
            }
        };
        if let Some(h) = relock(&self.sessions).map.get(&fp) {
            return Ok((Arc::clone(h), fingerprint_hex(fp)));
        }
        let spec = req
            .spec
            .clone()
            .ok_or_else(|| "unknown session (expired or never opened); resend with \"spec\"".to_string())?;
        // Build outside the registry lock — loading grounds axioms and
        // must not stall unrelated sessions.
        let built = Arc::new(Mutex::new(spec.load()?));
        let mut reg = relock(&self.sessions);
        if let Some(h) = reg.map.get(&fp) {
            // Someone else built it concurrently; keep theirs.
            return Ok((Arc::clone(h), fingerprint_hex(fp)));
        }
        if reg.map.len() >= self.config.max_sessions && !reg.order.is_empty() {
            let evicted = reg.order.remove(0);
            reg.map.remove(&evicted);
            // No cached result may outlive the session that produced it.
            relock(&self.cache).invalidate_session(&fingerprint_hex(evicted));
        }
        reg.map.insert(fp, Arc::clone(&built));
        reg.order.push(fp);
        Ok((built, fingerprint_hex(fp)))
    }

    /// The per-operation cache key: `h(op ‖ exactly-the-inputs-used)`.
    fn result_key(&self, req: &Request, ws: &WarmSession) -> Result<u128, String> {
        let core = &ws.core;
        let spec = &core.spec;
        let mut fp = Fingerprinter::new();
        fp.add_str("result-v1").add_str(req.op.name());
        // Every operation sees the domain's interpretation of the
        // universe, which derives from the manifests, the *combined*
        // goal-table port set, extras and mTLS — so all keys hash those.
        fp.add_str(core.model.domain);
        fp.add_str(&spec.manifests).add_bool(spec.mtls);
        fp.add_u64(core.model.ports.len() as u64);
        for &p in &core.model.ports {
            fp.add_u64(u64::from(p));
        }
        // Parties are hashed by stable role name, goal tables in slot
        // order — never by display strings, so renaming a party's
        // presentation cannot alias another party's results.
        match req.op {
            Op::CheckConsistency => {
                // Depends on one party's goals only.
                let party = self.party_from(req.party.as_deref(), "party", core)?;
                fp.add_str(core.model.role(party));
                fp.add_str(core.model.goals_text(party));
            }
            Op::ExtractEnvelope => {
                // Depends on the *senders'* goals and deployed configs
                // only — the delta-aware case: recipient goal edits
                // that keep the port universe intact hit the same key.
                let to = self.party_or_slot(req.to.as_deref(), 1, core)?;
                fp.add_str(core.model.role(to));
                for s in core.model.others(to) {
                    fp.add_str(core.model.goals_text(s));
                }
            }
            Op::Reconcile => {
                for p in &core.model.parties {
                    fp.add_str(&p.goals_text);
                }
                fp.add_str(req.mode.as_deref().unwrap_or("hard"));
            }
            Op::CheckConformance => {
                let provider = self.party_or_slot(req.provider.as_deref(), 0, core)?;
                let tenant = self.tenant_for(req.to.as_deref(), provider, core)?;
                for p in &core.model.parties {
                    fp.add_str(&p.goals_text);
                }
                fp.add_str(core.model.role(provider));
                fp.add_str(core.model.role(tenant));
            }
            Op::NegotiateRound => {
                for p in &core.model.parties {
                    fp.add_str(&p.goals_text);
                }
                fp.add_u64(req.max_rounds.unwrap_or(4));
            }
            Op::OpenSession | Op::Stats | Op::Trace | Op::Shutdown | Op::Watch
            | Op::PushDelta | Op::Subscribe | Op::Unwatch => {
                unreachable!("handled earlier")
            }
        }
        Ok(fp.digest())
    }

    /// Run a solve operation. Returns `(result, definite)`; only
    /// definite results may be cached.
    fn run_op(
        &self,
        req: &Request,
        ws: &mut WarmSession,
        cancel: Option<&CancelToken>,
    ) -> Result<(Json, bool), String> {
        // Split borrows: the rebuilt `Session` borrows `core` while the
        // warm solver state lives in the sibling `prepared` store. The
        // store is lent to the session for this request and taken back
        // on every return path, errors included, and the engine's warm
        // totals gain what the request added to the store's counters.
        let WarmSession { core, prepared } = ws;
        let before = WarmCounts::of(prepared);
        let mut session = core.model.session();
        std::mem::swap(session.store_mut(), prepared);
        let out = self.solve_op(req, core, &mut session, cancel);
        std::mem::swap(session.store_mut(), prepared);
        relock(&self.warm).add(WarmCounts::of(prepared).since(before));
        out
    }

    /// [`Engine::run_op`] on a session that holds the warm store.
    fn solve_op(
        &self,
        req: &Request,
        core: &WarmCore,
        session: &mut Session<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Json, bool), String> {
        let mut budget = Budget::unlimited();
        if let Some(ms) = req.timeout_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        if let Some(tok) = cancel {
            budget = budget.with_cancel(tok.clone());
        }
        session.set_budget(budget);
        if req.conflict_budget.is_some() || req.retries.is_some() {
            session.set_retry_policy(RetryPolicy::new(
                req.conflict_budget.unwrap_or(u64::MAX),
                req.retries.unwrap_or(1),
            ));
        }
        match req.op {
            Op::CheckConsistency => {
                let party = self.party_from(req.party.as_deref(), "party", core)?;
                let report = session.local_consistency(party).map_err(describe_err)?;
                let definite = report.exhausted.is_none();
                Ok((consistency_json(session, party, &report), definite))
            }
            Op::Reconcile => {
                let mode = match req.mode.as_deref().unwrap_or("hard") {
                    "hard" => ReconcileMode::HardBounds,
                    "blameable" => ReconcileMode::Blameable,
                    other => return Err(format!("unknown reconcile mode {other:?}")),
                };
                let rec = session.reconcile(mode).map_err(describe_err)?;
                let definite = rec.exhausted.is_none();
                Ok((reconciliation_json(session, &rec), definite))
            }
            Op::ExtractEnvelope => {
                // `E_{S→to}`: every *other* party is a sender with its
                // deployed configuration fixed. For two-party domains
                // this is exactly the paper's `E_{from→to}`.
                let to = self.party_or_slot(req.to.as_deref(), 1, core)?;
                let mut senders = Vec::new();
                for from in core.model.others(to) {
                    senders.push((from, core.deployed(from)?));
                }
                let env = session
                    .compute_multi_envelope(&senders, to)
                    .map_err(describe_err)?;
                Ok((envelope_json(session, &env), true))
            }
            Op::CheckConformance => {
                let provider = self.party_or_slot(req.provider.as_deref(), 0, core)?;
                let tenant = self.tenant_for(req.to.as_deref(), provider, core)?;
                let preferred = core.deployed(tenant)?;
                let report = run_conformance(session, provider, tenant, Some(&preferred))
                    .map_err(describe_err)?;
                let definite = report.exhausted.is_none();
                Ok((conformance_json(session, &report), definite))
            }
            Op::NegotiateRound => {
                let rounds = req.max_rounds.unwrap_or(4).min(64) as usize;
                // Paper roles (Fig. 9), generalized round-robin: the
                // slot-0 admin holds firm; every other party's goals
                // are negotiable — soften them so blamed rows can be
                // dropped round by round.
                let ids: Vec<PartyId> = core.model.parties.iter().map(|p| p.id).collect();
                for &id in &ids[1..] {
                    if let Ok(p) = session.party_mut(id) {
                        for g in &mut p.goals {
                            g.hard = false;
                        }
                    }
                }
                let mut negotiators: std::collections::BTreeMap<PartyId, Box<dyn Negotiator>> =
                    std::collections::BTreeMap::new();
                for (slot, &id) in ids.iter().enumerate() {
                    if slot == 0 {
                        negotiators.insert(id, Box::new(Stubborn));
                    } else {
                        negotiators.insert(id, Box::new(DropBlamedSoftGoals));
                    }
                }
                let report =
                    run_negotiation(session, &mut negotiators, rounds, Schedule::RoundRobin)
                        .map_err(describe_err)?;
                let configs = Json::Obj(
                    report
                        .configs
                        .iter()
                        .map(|(id, c)| {
                            (core.model.role(*id).to_string(), instance_json(session, c))
                        })
                        .collect(),
                );
                Ok((
                    Json::obj([
                        ("success", Json::Bool(report.success)),
                        ("rounds", Json::num(report.rounds as u64)),
                        ("configs", configs),
                        ("trace", Json::strs(&report.trace)),
                        ("exhausted", phase_json(report.exhausted)),
                    ]),
                    report.exhausted.is_none(),
                ))
            }
            Op::OpenSession | Op::Stats | Op::Trace | Op::Shutdown | Op::Watch
            | Op::PushDelta | Op::Subscribe | Op::Unwatch => {
                unreachable!("handled earlier")
            }
        }
    }

    fn party_from(
        &self,
        name: Option<&str>,
        field: &str,
        core: &crate::spec::WarmCore,
    ) -> Result<PartyId, String> {
        let name = name.ok_or_else(|| {
            let roles: Vec<&str> = core.model.parties.iter().map(|p| p.role.as_str()).collect();
            format!("missing \"{field}\" (use one of {})", roles.join(", "))
        })?;
        core.model.party_id(name)
    }

    /// Resolve an optional party name, defaulting to the domain's
    /// party at `slot` (the conventional provider/recipient slots).
    fn party_or_slot(
        &self,
        name: Option<&str>,
        slot: usize,
        core: &crate::spec::WarmCore,
    ) -> Result<PartyId, String> {
        match name {
            Some(n) => core.model.party_id(n),
            None => core
                .model
                .parties
                .get(slot)
                .map(|p| p.id)
                .ok_or_else(|| format!("domain has no party in slot {slot}")),
        }
    }

    /// The conformance tenant: `to` when named, else the first party
    /// that is not the provider.
    fn tenant_for(
        &self,
        name: Option<&str>,
        provider: PartyId,
        core: &crate::spec::WarmCore,
    ) -> Result<PartyId, String> {
        match name {
            Some(n) => {
                let id = core.model.party_id(n)?;
                if id == provider {
                    return Err("conformance tenant must differ from the provider".to_string());
                }
                Ok(id)
            }
            None => core
                .model
                .others(provider)
                .into_iter()
                .next()
                .ok_or_else(|| "conformance needs at least two parties".to_string()),
        }
    }

    /// `watch`: open a streaming session over an inline spec. Solves the
    /// initial state (so the first response already carries a verdict)
    /// and returns the minted watch id for follow-up `push_delta`s.
    fn op_watch(
        &self,
        req: &Request,
        span: &mut muppet_obs::SpanGuard,
    ) -> Result<Response, String> {
        let spec = req
            .spec
            .as_ref()
            .ok_or_else(|| "watch needs an inline \"spec\"".to_string())?;
        // The streaming engine is mesh-only for now: it edits the
        // K8s/Istio goal tables row by row.
        if spec.domain_name() != muppet_domain::DEFAULT_DOMAIN {
            return Err(format!(
                "watch supports only the {:?} domain (got {:?})",
                muppet_domain::DEFAULT_DOMAIN,
                spec.domain_name()
            ));
        }
        if spec.mtls {
            return Err("watch does not support mtls specs".to_string());
        }
        let texts = spec.goal_texts();
        let stream_spec =
            StreamSpec::from_wire(&spec.manifests, &texts[0], &texts[1], &spec.extra_ports)?;
        // Build outside the registry lock — the initial solve grounds
        // and encodes the full formula set.
        let (session, initial) =
            StreamSession::new(stream_spec).map_err(|e| e.to_string())?;
        relock(&self.warm).add(WarmCounts::of_delta(&initial));
        let mut reg = relock(&self.watches);
        let id = format!("w-{}", reg.next_id);
        reg.next_id += 1;
        if reg.map.len() >= self.config.max_sessions && !reg.order.is_empty() {
            let evicted = reg.order.remove(0);
            reg.map.remove(&evicted);
        }
        reg.map.insert(id.clone(), Arc::new(Mutex::new(session)));
        reg.order.push(id.clone());
        drop(reg);
        span.attr("watch", id.clone());
        Ok(Response::success(
            None,
            Json::obj([
                ("watch", Json::str(&id)),
                ("initial", stream_stats_json(&initial)),
            ]),
        ))
    }

    /// `push_delta`: parse one delta line, apply it to the watch and
    /// re-solve warm. An invalid delta leaves the watch untouched; a
    /// translation/solve failure after a *valid* apply is reported and
    /// leaves the watch at the post-apply state (per `muppet-stream`'s
    /// error contract).
    fn op_push_delta(
        &self,
        req: &Request,
        span: &mut muppet_obs::SpanGuard,
    ) -> Result<Response, String> {
        let (id, handle) = self.resolve_watch(req)?;
        span.attr("watch", id.clone());
        let line = req
            .delta
            .as_deref()
            .ok_or_else(|| "push_delta needs a \"delta\" line".to_string())?;
        let delta = ConfigDelta::parse(line).map_err(|e| format!("delta rejected: {e}"))?;
        let mut session = relock(&handle);
        let stats = session.push(&delta).map_err(|e| e.to_string())?;
        drop(session);
        relock(&self.warm).add(WarmCounts::of_delta(&stats));
        let mut pairs = vec![("watch".to_string(), Json::str(&id))];
        if let Json::Obj(fields) = stream_stats_json(&stats) {
            pairs.extend(fields);
        }
        Ok(Response::success(None, Json::Obj(pairs)))
    }

    /// `subscribe`: validate the watch id and report its current state.
    /// The **server** layer intercepts the op after this succeeds and
    /// registers the connection's writer for verdict-flip pushes; the
    /// engine only vouches that the watch exists.
    fn op_subscribe(&self, req: &Request) -> Result<Response, String> {
        let (id, handle) = self.resolve_watch(req)?;
        let session = relock(&handle);
        Ok(Response::success(
            None,
            Json::obj([
                ("watch", Json::str(&id)),
                ("subscribed", Json::Bool(true)),
                ("verdict", Json::str(session.verdict())),
                ("solves", Json::num(session.solves())),
            ]),
        ))
    }

    /// `unwatch`: drop the watch and its warm solver state. Idempotent
    /// in effect — a second unwatch of the same id errors harmlessly.
    fn op_unwatch(&self, req: &Request) -> Result<Response, String> {
        let id = req
            .watch
            .clone()
            .ok_or_else(|| "unwatch needs a \"watch\" id".to_string())?;
        let mut reg = relock(&self.watches);
        let removed = reg.map.remove(&id).is_some();
        reg.order.retain(|w| w != &id);
        drop(reg);
        if !removed {
            return Err(format!("unknown watch {id:?} (expired or never opened)"));
        }
        Ok(Response::success(
            None,
            Json::obj([("watch", Json::str(&id)), ("removed", Json::Bool(true))]),
        ))
    }

    /// Look up a watch by the request's `watch` field.
    fn resolve_watch(&self, req: &Request) -> Result<(String, Arc<Mutex<StreamSession>>), String> {
        let id = req
            .watch
            .clone()
            .ok_or_else(|| "request needs a \"watch\" id (from a watch op)".to_string())?;
        let reg = relock(&self.watches);
        let handle = reg
            .map
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("unknown watch {id:?} (expired or never opened)"))?;
        Ok((id, handle))
    }

    /// The `stats` result object.
    pub fn stats_json(&self) -> Json {
        let (hits, misses, evictions) = relock(&self.cache).counters();
        let cache_len = relock(&self.cache).len() as u64;
        let session_count = relock(&self.sessions).map.len() as u64;
        let watch_count = relock(&self.watches).map.len() as u64;
        let warm = *relock(&self.warm);
        let mut per_op: Vec<(String, Json)> = Engine::ALL_OPS
            .iter()
            .zip(&self.latency)
            .filter(|(_, h)| h.counts().iter().any(|&n| n > 0))
            .map(|(op, h)| (op.name().to_string(), h.json()))
            .collect();
        per_op.sort_by(|a, b| a.0.cmp(&b.0));
        let lookups = hits + misses;
        Json::obj([
            ("requests", Json::num(self.requests.load(Ordering::Relaxed))),
            ("errors", Json::num(self.errors.load(Ordering::Relaxed))),
            // Exact: `stats` requests never enter the gauge (see
            // `handle`), so no self-correction fudge is needed here.
            ("in_flight", Json::num(self.in_flight.load(Ordering::Relaxed))),
            ("queue_depth", Json::num(self.queue_depth.load(Ordering::Relaxed))),
            ("overload", self.overload_json()),
            ("sessions", Json::num(session_count)),
            ("watches", Json::num(watch_count)),
            (
                "cache",
                Json::obj([
                    ("entries", Json::num(cache_len)),
                    ("hits", Json::num(hits)),
                    ("misses", Json::num(misses)),
                    ("evictions", Json::num(evictions)),
                    (
                        "hit_rate",
                        if lookups == 0 {
                            Json::Null
                        } else {
                            Json::Num(hits as f64 / lookups as f64)
                        },
                    ),
                ]),
            ),
            (
                "warm_groups",
                Json::obj([
                    ("encoded", Json::num(warm.encoded)),
                    ("reused", Json::num(warm.reused)),
                    ("answers_reused", Json::num(warm.answers_reused)),
                ]),
            ),
            ("kernel", Json::obj([("oll_cores", Json::num(warm.oll_cores))])),
            ("latency", Json::Obj(per_op)),
        ])
    }

    /// The `overload` section of `stats`: active limits (when the
    /// server registered any), shed counters by reason, the queue-depth
    /// high-watermark, and drain telemetry.
    fn overload_json(&self) -> Json {
        let limits = match *relock(&self.overload_limits) {
            Some(l) => Json::obj([
                ("max_queue_depth", Json::num(l.max_queue_depth as u64)),
                ("max_inflight_per_conn", Json::num(l.max_inflight_per_conn as u64)),
                ("retry_after_ms", Json::num(l.retry_after_ms)),
                ("drain_deadline_ms", Json::num(l.drain_deadline_ms)),
                ("read_timeout_ms", Json::num(l.read_timeout_ms)),
            ]),
            None => Json::Null,
        };
        let (qf, cc, dr) = (
            self.shed_queue_full.load(Ordering::Relaxed),
            self.shed_conn_cap.load(Ordering::Relaxed),
            self.shed_draining.load(Ordering::Relaxed),
        );
        Json::obj([
            ("limits", limits),
            (
                "shed",
                Json::obj([
                    ("queue_full", Json::num(qf)),
                    ("conn_cap", Json::num(cc)),
                    ("draining", Json::num(dr)),
                    ("total", Json::num(qf + cc + dr)),
                ]),
            ),
            ("queue_highwater", Json::num(self.queue_highwater.load(Ordering::Relaxed))),
            (
                "drain",
                Json::obj([
                    ("count", Json::num(self.drains.load(Ordering::Relaxed))),
                    ("last_us", Json::num(self.drain_last_us.load(Ordering::Relaxed))),
                    ("cancelled", Json::num(self.drain_cancelled.load(Ordering::Relaxed))),
                ]),
            ),
        ])
    }

    /// Convenience for tests/harness: handle a [`SessionSpec`]-bearing
    /// request built from parts.
    pub fn handle_op(&self, op: Op, spec: &SessionSpec) -> Response {
        self.handle(&Request::new(op).with_spec(spec.clone()), None)
    }
}

/// One per-delta [`StreamStats`] as a wire object.
fn stream_stats_json(s: &StreamStats) -> Json {
    Json::obj([
        ("seq", Json::num(s.seq)),
        ("kind", Json::str(s.kind)),
        ("verdict", Json::str(&s.verdict)),
        ("flipped", Json::Bool(s.flipped)),
        ("dirtied", Json::strs(&s.dirtied)),
        ("groups_encoded", Json::num(s.groups_encoded)),
        ("groups_reused", Json::num(s.groups_reused)),
        ("answer_reused", Json::Bool(s.answer_reused)),
        ("engine_vars", Json::num(s.engine_vars)),
        ("compacted", Json::Bool(s.compacted)),
        ("vocab_rebuilt", Json::Bool(s.vocab_rebuilt)),
        ("delta_us", Json::num(s.elapsed_us)),
    ])
}

/// The `trace` result object: the last `n` completed span trees
/// (default 8), newest first, re-parsed into wire JSON.
fn trace_json(n: Option<u64>) -> Json {
    let want = n.unwrap_or(8).min(muppet_obs::ring_capacity() as u64) as usize;
    let traces = muppet_obs::recent_traces(want)
        .iter()
        // SpanNode serializes itself; round-trip through the hardened
        // parser so the wire sees uniform Json values.
        .filter_map(|t| crate::json::parse(&t.to_json()).ok())
        .collect();
    Json::obj([
        ("enabled", Json::Bool(muppet_obs::tracing_enabled())),
        ("capacity", Json::num(muppet_obs::ring_capacity() as u64)),
        ("traces", Json::Arr(traces)),
    ])
}

fn describe_err(e: MuppetError) -> String {
    match e {
        MuppetError::Exhausted { phase, stats } => format!(
            "budget exhausted during {phase} ({} conflicts, {} propagations)",
            stats.conflicts, stats.propagations
        ),
        other => other.to_string(),
    }
}

/// Render a configuration instance as sorted `rel(atom, …)` strings.
fn instance_json(session: &Session<'_>, inst: &Instance) -> Json {
    tuples_json(session.vocab(), session.universe(), inst)
}

fn tuples_json(vocab: &Vocabulary, universe: &Universe, inst: &Instance) -> Json {
    let mut entries = inst.all_tuples();
    entries.sort();
    Json::Arr(
        entries
            .iter()
            .map(|(rel, args)| {
                let atoms: Vec<String> = args
                    .iter()
                    .map(|a| universe.atom_name(*a).to_string())
                    .collect();
                Json::str(format!("{}({})", vocab.rel(*rel).name, atoms.join(", ")))
            })
            .collect(),
    )
}

fn stats_obj(stats: &QueryStats) -> Json {
    Json::obj([
        ("free_tuple_vars", Json::num(stats.free_tuple_vars as u64)),
        ("conflicts", Json::num(stats.conflicts)),
        ("decisions", Json::num(stats.decisions)),
        ("propagations", Json::num(stats.propagations)),
        ("restarts", Json::num(stats.restarts)),
    ])
}

fn exhaustion_json(ex: &Option<ExhaustionReport>) -> Json {
    match ex {
        None => Json::Null,
        Some(e) => Json::obj([
            ("phase", Json::str(e.phase.to_string())),
            ("stats", stats_obj(&e.stats)),
            ("attempts", Json::num(u64::from(e.attempts))),
        ]),
    }
}

fn consistency_json(session: &Session<'_>, party: PartyId, report: &ConsistencyReport) -> Json {
    Json::obj([
        (
            "party",
            Json::str(session.party(party).map(|p| p.name.as_str()).unwrap_or("?")),
        ),
        ("ok", Json::Bool(report.ok)),
        (
            "witness",
            match &report.witness {
                Some(w) => instance_json(session, w),
                None => Json::Null,
            },
        ),
        ("core", Json::strs(&report.core)),
        ("stats", stats_obj(&report.stats)),
        ("exhausted", exhaustion_json(&report.exhausted)),
    ])
}

fn reconciliation_json(session: &Session<'_>, rec: &Reconciliation) -> Json {
    let names = session.party_names();
    let configs = Json::Obj(
        rec.configs
            .iter()
            .map(|(id, c)| {
                (
                    names.get(id).cloned().unwrap_or_else(|| format!("{id:?}")),
                    instance_json(session, c),
                )
            })
            .collect(),
    );
    Json::obj([
        ("success", Json::Bool(rec.success)),
        ("configs", configs),
        ("core", Json::strs(&rec.core)),
        ("stats", stats_obj(&rec.stats)),
        ("exhausted", exhaustion_json(&rec.exhausted)),
    ])
}

fn envelope_json(session: &Session<'_>, env: &Envelope) -> Json {
    let leak = env.leakage(session.universe());
    Json::obj([
        ("trivial", Json::Bool(env.is_trivial())),
        ("predicates", Json::num(env.predicates.len() as u64)),
        (
            "alloy",
            Json::str(env.render_alloy(session.vocab(), session.universe())),
        ),
        (
            "english",
            Json::str(env.render_english(session.vocab(), session.universe())),
        ),
        ("impossible", Json::strs(&env.impossible)),
        ("residual_violations", Json::strs(&env.residual_violations)),
        ("self_satisfied", Json::strs(&env.self_satisfied)),
        (
            "leakage",
            Json::obj([
                ("revealed_atoms", Json::strs(&leak.revealed_atoms)),
                ("formula_size", Json::num(leak.formula_size as u64)),
                ("predicates", Json::num(leak.predicates as u64)),
            ]),
        ),
    ])
}

fn conformance_json(session: &Session<'_>, report: &muppet::conformance::ConformanceReport) -> Json {
    Json::obj([
        ("provider_consistent", Json::Bool(report.provider_consistent)),
        ("success", Json::Bool(report.success)),
        (
            "envelope_trivial",
            match &report.envelope {
                Some(e) => Json::Bool(e.is_trivial()),
                None => Json::Null,
            },
        ),
        (
            "tenant_config",
            match &report.tenant_config {
                Some(c) => instance_json(session, c),
                None => Json::Null,
            },
        ),
        ("blame", Json::strs(&report.blame)),
        (
            "counter_offer_distance",
            match report.counter_offer_distance {
                Some(d) => Json::num(d as u64),
                None => Json::Null,
            },
        ),
        ("log", Json::strs(&report.log)),
        ("exhausted", phase_json(report.exhausted)),
    ])
}

/// The phase a workflow step ran out of budget in, or `null`.
fn phase_json(phase: Option<Phase>) -> Json {
    phase.map_or(Json::Null, |p| Json::str(p.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn in_flight_gauge_is_exact_under_concurrent_stats() {
        let eng = engine();
        // A lone stats request reports zero: stats itself never enters
        // the gauge.
        let r = eng.handle(&Request::new(Op::Stats), None);
        assert!(r.ok);
        assert_eq!(r.result.get("in_flight").and_then(Json::as_u64), Some(0));
        // ...and stays exactly zero no matter how many stats requests
        // overlap. (The old `saturating_sub(1)` fudge under-counted by
        // one per concurrently-running stats request.)
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..50 {
                        let r = eng.handle(&Request::new(Op::Stats), None);
                        assert_eq!(
                            r.result.get("in_flight").and_then(Json::as_u64),
                            Some(0),
                            "overlapping stats requests must not be counted"
                        );
                    }
                });
            }
        });
        // Non-stats work in progress is reported exactly: park two
        // simulated requests mid-handle and read the gauge through the
        // stats op.
        eng.in_flight.fetch_add(2, Ordering::Relaxed);
        let r = eng.handle(&Request::new(Op::Stats), None);
        assert_eq!(r.result.get("in_flight").and_then(Json::as_u64), Some(2));
        eng.in_flight.fetch_sub(2, Ordering::Relaxed);
        // Real requests leave the gauge balanced once they return.
        let done = eng.handle_op(Op::Reconcile, &SessionSpec::paper_strict());
        assert!(done.ok, "{:?}", done.error);
        assert_eq!(eng.in_flight.load(Ordering::Relaxed), 0);
    }

    /// Bucket `i` holds latencies up to `2^i` µs and the last bucket
    /// everything slower; quantiles read a bucket's upper bound.
    #[test]
    fn latency_histogram_buckets_by_powers_of_two() {
        let h = Histogram::default();
        for us in [0, 1, 2, 3, 1_000_000, u64::MAX] {
            h.observe_us(us);
        }
        let bucket = |i: usize| h.buckets[i].load(Ordering::Relaxed);
        assert_eq!((bucket(0), bucket(1), bucket(2)), (2, 1, 1), "0 and 1 share bucket 0");
        assert_eq!(bucket(20), 1, "1 s lands in the 2^20 µs bucket");
        assert_eq!(bucket(31), 1, "the last bucket absorbs the rest");
        assert_eq!(h.quantile_us(0.5), 2);
        assert_eq!(h.quantile_us(0.99), 1 << 31);
        assert_eq!(Histogram::default().quantile_us(0.99), 0);
    }

    #[test]
    fn reconcile_matches_oracle_and_caches() {
        let eng = engine();
        // Strict goals: UNSAT in the paper; relaxed: SAT.
        let strict = eng.handle_op(Op::Reconcile, &SessionSpec::paper_strict());
        assert!(strict.ok, "{:?}", strict.error);
        assert!(!strict.cached);
        assert_eq!(strict.result.get("success").and_then(Json::as_bool), Some(false));
        let again = eng.handle_op(Op::Reconcile, &SessionSpec::paper_strict());
        assert!(again.cached, "identical request must be served from cache");
        assert_eq!(again.result.to_line(), strict.result.to_line());
        let relaxed = eng.handle_op(Op::Reconcile, &SessionSpec::paper_relaxed());
        assert!(relaxed.ok);
        assert!(!relaxed.cached, "different spec must not alias");
        assert_eq!(relaxed.result.get("success").and_then(Json::as_bool), Some(true));
    }

    /// `warm_groups.{encoded,reused}` from the stats op.
    fn warm_groups(eng: &Engine) -> (u64, u64) {
        let stats = eng.handle(&Request::new(Op::Stats), None).result;
        let wg = stats.get("warm_groups").expect("stats carries warm_groups");
        let n = |k: &str| wg.get(k).and_then(Json::as_u64).unwrap();
        (n("encoded"), n("reused"))
    }

    /// Warm-group totals outlive the sessions that produced them: in a
    /// one-session registry, loading spec B evicts spec A's session,
    /// and `warm_groups.encoded` still counts A's groups.
    #[test]
    fn evicted_sessions_keep_their_warm_group_counts() {
        let one_session = || {
            Engine::new(EngineConfig {
                max_sessions: 1,
                ..EngineConfig::default()
            })
        };
        let (a, b) = (SessionSpec::paper_strict(), SessionSpec::paper_relaxed());
        let eng = one_session();
        assert!(eng.handle_op(Op::Reconcile, &a).ok);
        let (encoded_a, _) = warm_groups(&eng);
        assert!(eng.handle_op(Op::Reconcile, &b).ok);
        assert_eq!(relock(&eng.sessions).map.len(), 1, "loading B evicted A");
        let alone = one_session();
        assert!(alone.handle_op(Op::Reconcile, &b).ok);
        let (encoded_b, _) = warm_groups(&alone);
        assert!(encoded_a > 0 && encoded_b > 0);
        assert_eq!(warm_groups(&eng).0, encoded_a + encoded_b);
    }

    /// A request that fails on a warm session — an error raised after
    /// the store was lent to the request's session, or a solve whose
    /// budget is already spent — leaves the session's store in place:
    /// the next same-shape request reuses every group it encoded.
    #[test]
    fn failed_request_keeps_warm_state() {
        let eng = engine();
        let spec = SessionSpec::paper_strict();
        let first = eng.handle_op(Op::Reconcile, &spec);
        assert!(first.ok, "{:?}", first.error);
        let (encoded, reused) = warm_groups(&eng);
        assert!(encoded > 0);

        let mut bad_mode = Request::new(Op::Reconcile).with_spec(spec.clone());
        bad_mode.mode = Some("bogus".into());
        let r = eng.handle(&bad_mode, None);
        assert!(!r.ok, "an unknown mode must fail");
        let mut expired = Request::new(Op::CheckConsistency).with_spec(spec.clone());
        expired.party = Some("k8s".into());
        expired.timeout_ms = Some(0);
        let r = eng.handle(&expired, None);
        assert!(r.ok, "{:?}", r.error);
        assert!(
            r.result.get("exhausted").is_some_and(|e| *e != Json::Null),
            "an expired budget must report exhaustion"
        );
        assert_eq!(warm_groups(&eng).0, encoded, "failed requests must not lose the store");

        let mut again = expired.clone();
        again.timeout_ms = None;
        let r = eng.handle(&again, None);
        assert!(r.ok && !r.cached, "{:?}", r.error);
        let (encoded2, reused2) = warm_groups(&eng);
        assert_eq!(encoded2, encoded, "same-shape request re-encoded groups");
        assert!(reused2 > reused, "same-shape request must reuse warm groups");
    }

    /// Daemon sessions carry no offers, so a consistency check of
    /// either party and a hard reconcile submit the same bounds and
    /// free relations: all three share one warm engine key, and the
    /// session's store lays out one engine for them.
    #[test]
    fn consistency_and_hard_reconcile_share_one_warm_engine() {
        let eng = engine();
        let spec = SessionSpec::paper_strict();
        for party in ["k8s", "istio"] {
            let mut req = Request::new(Op::CheckConsistency).with_spec(spec.clone());
            req.party = Some(party.into());
            let r = eng.handle(&req, None);
            assert!(r.ok && !r.cached, "{:?}", r.error);
        }
        let r = eng.handle_op(Op::Reconcile, &spec);
        assert!(r.ok && !r.cached, "{:?}", r.error);
        let registry = relock(&eng.sessions);
        let ws = relock(&registry.map[&spec.fingerprint()]);
        assert_eq!(ws.prepared.builds(), 1, "the three solves must share one engine");
        assert_eq!(ws.prepared.len(), 1);
    }

    #[test]
    fn tenant_goal_edit_keeps_provider_envelope_hot() {
        let eng = engine();
        let base = SessionSpec::paper_strict();
        let mut req = Request::new(Op::ExtractEnvelope).with_spec(base.clone());
        req.to = Some("istio".into());
        let cold = eng.handle(&req, None);
        assert!(cold.ok, "{:?}", cold.error);
        assert!(!cold.cached);
        // Edit the *tenant's* (istio) goals without touching the port
        // universe: reorder two rows. The provider-side envelope key
        // hashes only provider inputs + the derived port set, so this
        // delta must NOT invalidate the envelope.
        let mut edited = base.clone();
        edited.istio_goals = "srcService,dstService,srcPort,dstPort\n\
                              test-backend,test-frontend,26,23\n\
                              test-frontend,test-backend,24,25\n\
                              test-backend,test-db,14000,16000\n\
                              test-db,test-backend,10000,12000\n"
            .to_string();
        assert_ne!(base.fingerprint(), edited.fingerprint());
        let mut req2 = Request::new(Op::ExtractEnvelope).with_spec(edited.clone());
        req2.to = Some("istio".into());
        let warm = eng.handle(&req2, None);
        assert!(warm.ok, "{:?}", warm.error);
        assert!(warm.cached, "tenant-side delta must keep the provider envelope cached");
        assert_eq!(warm.result.to_line(), cold.result.to_line());
        // But a *provider* goal edit (which changes the hashed inputs)
        // must land on a fresh key.
        let mut pedit = base.clone();
        pedit.k8s_goals = "port,perm,selector\n24,DENY,*\n".to_string();
        let mut req3 = Request::new(Op::ExtractEnvelope).with_spec(pedit);
        req3.to = Some("istio".into());
        let fresh = eng.handle(&req3, None);
        assert!(fresh.ok, "{:?}", fresh.error);
        assert!(!fresh.cached, "provider-side delta must invalidate");
    }

    #[test]
    fn consistency_and_conformance_roundtrip() {
        let eng = engine();
        let mut req = Request::new(Op::CheckConsistency).with_spec(SessionSpec::paper_strict());
        req.party = Some("istio".into());
        let r = eng.handle(&req, None);
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.result.get("ok").and_then(Json::as_bool), Some(true));
        let c = eng.handle_op(Op::CheckConformance, &SessionSpec::paper_relaxed());
        assert!(c.ok, "{:?}", c.error);
        assert!(c.result.get("success").and_then(Json::as_bool).is_some());
        let n = eng.handle_op(Op::NegotiateRound, &SessionSpec::paper_strict());
        assert!(n.ok, "{:?}", n.error);
        assert_eq!(n.result.get("success").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn cached_hit_is_much_faster_than_solving() {
        let eng = engine();
        let spec = SessionSpec::paper_relaxed();
        let t0 = Instant::now();
        let cold = eng.handle_op(Op::CheckConformance, &spec);
        let cold_us = t0.elapsed().as_micros().max(1);
        assert!(cold.ok && !cold.cached);
        // Median of several hits to dodge scheduler noise.
        let mut hits = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let hit = eng.handle_op(Op::CheckConformance, &spec);
            hits.push(t.elapsed().as_micros().max(1));
            assert!(hit.cached);
        }
        hits.sort_unstable();
        let hit_us = hits[hits.len() / 2];
        assert!(
            cold_us >= 10 * hit_us,
            "cache hit must be ≥10× faster: cold {cold_us}µs vs hit {hit_us}µs"
        );
    }

    #[test]
    fn exhausted_results_are_not_cached() {
        // Whether an exhausted solve surfaces as a degraded report or an
        // error, the follow-up full-budget request must be a cache miss
        // that then computes the real verdict.
        for (op, key, want) in [
            (Op::Reconcile, "success", false),
            (Op::CheckConformance, "provider_consistent", true),
            (Op::NegotiateRound, "success", true),
        ] {
            let eng = engine();
            let mut req = Request::new(op).with_spec(SessionSpec::paper_strict());
            req.timeout_ms = Some(0); // fires immediately
            let r = eng.handle(&req, None);
            assert!(!r.cached);
            if r.ok {
                let ex = r.result.get("exhausted");
                assert!(ex.is_some_and(|e| *e != Json::Null), "{op:?}: {}", r.result.to_line());
            }
            let full = eng.handle_op(op, &SessionSpec::paper_strict());
            assert!(full.ok, "{op:?}: {:?}", full.error);
            assert!(!full.cached, "{op:?}: degraded result must not have been cached");
            assert_eq!(full.result.get(key).and_then(Json::as_bool), Some(want), "{op:?}");
        }
    }

    #[test]
    fn cancellation_aborts_a_request() {
        let eng = engine();
        let tok = CancelToken::new();
        tok.cancel();
        let req = Request::new(Op::Reconcile).with_spec(SessionSpec::paper_strict());
        let r = eng.handle(&req, Some(&tok));
        // A pre-cancelled token degrades the solve; either channel is
        // acceptable but the result must not be cached as definite.
        assert!(!r.cached);
        let follow = eng.handle_op(Op::Reconcile, &SessionSpec::paper_strict());
        assert!(!follow.cached);
        assert!(follow.ok);
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        let eng = engine();
        let r = eng.handle(&Request::new(Op::Reconcile), None);
        assert!(!r.ok);
        assert!(r.error.unwrap().contains("spec"));
        let mut req = Request::new(Op::CheckConsistency).with_spec(SessionSpec::paper_strict());
        req.party = Some("marionette".into());
        let r = eng.handle(&req, None);
        assert!(!r.ok);
        let mut req = Request::new(Op::Reconcile);
        req.session = Some("zz".into());
        let r = eng.handle(&req, None);
        assert!(!r.ok, "malformed handle must fail");
    }

    #[test]
    fn open_session_then_handle_reuse() {
        let eng = engine();
        let opened = eng.handle_op(Op::OpenSession, &SessionSpec::paper_strict());
        assert!(opened.ok);
        let handle = opened.session.clone().unwrap();
        let mut req = Request::new(Op::Reconcile);
        req.session = Some(handle);
        let r = eng.handle(&req, None);
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.result.get("success").and_then(Json::as_bool), Some(false));
        let stats = eng.handle(&Request::new(Op::Stats), None);
        assert!(stats.ok);
        assert_eq!(stats.result.get("sessions").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn watch_lifecycle_streams_deltas() {
        let eng = engine();
        let req = Request::new(Op::Watch).with_spec(SessionSpec::paper_relaxed());
        let opened = eng.handle(&req, None);
        assert!(opened.ok, "{:?}", opened.error);
        let id = opened
            .result
            .get("watch")
            .and_then(Json::as_str)
            .expect("watch id")
            .to_string();
        let initial = opened.result.get("initial").expect("initial stats");
        let verdict = initial.get("verdict").and_then(Json::as_str).unwrap();
        assert!(verdict.starts_with("sat"), "relaxed spec must open sat: {verdict}");

        // Banning a port a concrete goal row needs flips the verdict…
        let mut push = Request::new(Op::PushDelta);
        push.watch = Some(id.clone());
        push.delta = Some("upsert-ban 16000 *".into());
        let r = eng.handle(&push, None);
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.result.get("flipped").and_then(Json::as_bool), Some(true));
        assert!(r
            .result
            .get("verdict")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("unsat"));

        assert_eq!(r.result.get("answer_reused").and_then(Json::as_bool), Some(false));

        // …and dropping it flips back to the opening state, reusing the
        // warm groups and the opening answer: nothing is dirtied.
        push.delta = Some("drop-ban 16000".into());
        let r2 = eng.handle(&push, None);
        assert!(r2.ok, "{:?}", r2.error);
        assert_eq!(r2.result.get("flipped").and_then(Json::as_bool), Some(true));
        assert!(r2.result.get("groups_reused").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(r2.result.get("answer_reused").and_then(Json::as_bool), Some(true));
        assert_eq!(r2.result.get("dirtied"), Some(&Json::Arr(Vec::new())));
        assert!(r2.result.get("engine_vars").and_then(Json::as_u64).is_some());
        assert!(r2.result.get("compacted").and_then(Json::as_bool).is_some());

        // A malformed delta is rejected without touching the watch.
        push.delta = Some("remove-service no-such-svc".into());
        let bad = eng.handle(&push, None);
        assert!(!bad.ok);
        let mut sub = Request::new(Op::Subscribe);
        sub.watch = Some(id.clone());
        let s = eng.handle(&sub, None);
        assert!(s.ok, "{:?}", s.error);
        assert_eq!(s.result.get("subscribed").and_then(Json::as_bool), Some(true));
        assert!(s
            .result
            .get("verdict")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("sat"));

        // stats counts the live watch; unwatch tears it down.
        let stats = eng.handle(&Request::new(Op::Stats), None);
        assert_eq!(stats.result.get("watches").and_then(Json::as_u64), Some(1));
        let mut un = Request::new(Op::Unwatch);
        un.watch = Some(id.clone());
        assert!(eng.handle(&un, None).ok);
        assert!(!eng.handle(&un, None).ok, "second unwatch must error");
        assert!(!eng.handle(&sub, None).ok, "subscribe after unwatch must error");
    }

    #[test]
    fn session_eviction_invalidates_its_results() {
        let eng = Engine::new(EngineConfig {
            cache_cap: 64,
            max_sessions: 1,
        });
        let strict = SessionSpec::paper_strict();
        let r = eng.handle_op(Op::Reconcile, &strict);
        assert!(r.ok);
        // Loading a second session evicts the first (max_sessions = 1)
        // and must drop its cached results with it.
        let r2 = eng.handle_op(Op::Reconcile, &SessionSpec::paper_relaxed());
        assert!(r2.ok);
        let back = eng.handle_op(Op::Reconcile, &strict);
        assert!(back.ok);
        assert!(!back.cached, "evicted session's results must not survive");
        assert_eq!(back.result.get("success").and_then(Json::as_bool), Some(false));
    }
}
