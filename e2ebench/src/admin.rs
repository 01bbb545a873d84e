//! `admin-daemon`: a closed loop over two connections to a live
//! `muppet-cli serve`. Each client walks seeded admin sessions over
//! freshly generated unbounded meshes of 12 and 24 services, sat and
//! conflicted: `open_session`, `check_consistency` for both parties,
//! `reconcile`, `extract_envelope`, `check_conformance` and
//! `negotiate_round`. Some sessions revisit a spec either client opened
//! before, so their requests repeat an earlier (spec, op) and hit the
//! daemon's result cache.
//!
//! The daemon keeps every warm session's solver state (up to 64
//! sessions): about 100 MB for a conflicted 12-service mesh and 0.3 to
//! 1.2 GB for a conflicted 24-service one. The loop therefore runs in
//! epochs: each epoch is a fixed plan of sessions on a freshly started
//! daemon, and the next epoch restarts it. Restarts are not timed.
//! Conflicted meshes stay at 12 services (see README.md).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use muppet_daemon::json::Json;
use muppet_scenario::{generate, Expected, ScenarioParams};

use crate::daemon::{at, spec_json, Conn, Daemon, ReplyTimes};
use crate::layers::{self, SpanFold};
use crate::stats::{Outcome, Rng};
use crate::Config;

const CLIENTS: usize = 2;
/// Fresh specs each client opens per epoch: (size index, conflicted).
const FRESH: [(usize, bool); 4] = [(0, false), (0, true), (1, false), (0, false)];
/// Sessions per client that revisit a spec opened earlier in the epoch:
/// about a fifth of the requests repeat an earlier (spec, op).
const REVISITS: usize = 1;
const SETUP_REPEATS: usize = 5;

/// One generated session spec.
struct Spec {
    /// The wire `spec` object.
    wire: Json,
    /// Raw wire content, for timed `ConfigDomain::build` calls.
    content: (String, String, String, Vec<u16>),
    services: usize,
    label: Expected,
}

fn mesh_params(cfg: &Config, size: usize, conflicted: bool, seed: u64) -> ScenarioParams {
    let services = if cfg.tiny { [4, 6] } else { [12, 24] }[size];
    ScenarioParams {
        services,
        istio_goals: services,
        k8s_goals: if conflicted { 2 } else { 1 },
        conflict_fraction: if conflicted { 1.0 } else { 0.0 },
        seed,
        ..ScenarioParams::default()
    }
}

fn make_spec(params: ScenarioParams) -> Spec {
    let s = generate(params);
    let content = s.wire_content();
    Spec {
        wire: spec_json(&content),
        content,
        services: s.mesh.services().len(),
        label: s.expected_label(),
    }
}

/// The inputs of one epoch: its specs and each client's session plan
/// (spec indices).
struct Epoch {
    specs: Vec<Spec>,
    plans: Vec<Vec<usize>>,
}

/// Generate epoch `e`. Client `c`'s fresh specs are disjoint from the
/// other client's; a revisit picks a spec either client opens earlier
/// in the plan, so the clients overlap on some specs.
fn epoch_inputs(cfg: &Config, e: usize) -> Epoch {
    let mut rng = Rng::new(cfg.seed.wrapping_mul(0x1_0000_0001).wrapping_add(e as u64));
    let mut specs = Vec::new();
    for _ in 0..CLIENTS {
        for &(size, conflicted) in &FRESH {
            specs.push(make_spec(mesh_params(cfg, size, conflicted, rng.next_u64())));
        }
    }
    let slots = FRESH.len() + REVISITS;
    // Each client's revisit slots: never the first, where nothing was
    // opened yet.
    let revisits: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|_| {
            let mut free: Vec<usize> = (1..slots).collect();
            (0..REVISITS)
                .map(|_| free.swap_remove(rng.below(free.len())))
                .collect()
        })
        .collect();
    let mut plans = vec![Vec::new(); CLIENTS];
    let mut opened: Vec<usize> = Vec::new();
    let mut next = [0usize; CLIENTS];
    for slot in 0..slots {
        let mut row = [0usize; CLIENTS];
        for c in 0..CLIENTS {
            row[c] = if revisits[c].contains(&slot) {
                opened[rng.below(opened.len())]
            } else {
                next[c] += 1;
                c * FRESH.len() + next[c] - 1
            };
            plans[c].push(row[c]);
        }
        opened.extend(row);
    }
    Epoch { specs, plans }
}

/// The six solver ops of one admin session, after `open_session`.
const OPS: &[(&str, Option<&str>)] = &[
    ("check_consistency", Some("k8s")),
    ("check_consistency", Some("istio")),
    ("reconcile", None),
    ("extract_envelope", None),
    ("check_conformance", None),
    ("negotiate_round", None),
];

/// What the daemon's result cache keys an op on (DESIGN.md, "Result
/// cache"): the manifests, the derived port set and the goal tables the
/// op reads. Specs of one size share their manifests, so two specs with
/// the same k8s table share their k8s consistency and envelope answers.
fn cache_key(spec: &Spec, ports: &str, op: &str, party: Option<&str>) -> String {
    let (manifests, k8s, istio, _) = &spec.content;
    let goals = match (op, party) {
        ("check_consistency", Some("k8s")) | ("extract_envelope", _) => k8s.clone(),
        ("check_consistency", _) => istio.clone(),
        _ => format!("{k8s}\u{1}{istio}"),
    };
    let party = party.unwrap_or("");
    format!("{op}\u{1}{party}\u{1}{manifests}\u{1}{ports}\u{1}{goals}")
}

/// State shared by the client threads of one epoch.
#[derive(Default)]
struct Shared {
    out: Outcome,
    /// Cache key → every uncached result, in arrival order.
    uncached: BTreeMap<String, Vec<Json>>,
    /// Every cached result with its key, spec and op, checked once the
    /// epoch is over.
    cached: Vec<(String, usize, &'static str, Json)>,
    /// Request keys seen so far, to count repeats.
    issued: BTreeSet<String>,
    repeats: u64,
    replies: ReplyTimes,
    end: Option<Instant>,
}

struct Client<'a> {
    specs: &'a [Spec],
    shared: &'a Mutex<Shared>,
    plant_wrong_label: bool,
}

impl Client<'_> {
    /// Issue one request and check its reply. Returns the reply JSON on
    /// success.
    fn request(
        &self,
        conn: &mut Option<Conn>,
        daemon: &Daemon,
        k: usize,
        (op, party): (&'static str, Option<&'static str>),
        key: String,
        body: Json,
    ) -> Option<Json> {
        let reply = match conn.as_mut() {
            Some(c) => c.call(body),
            None => Err("not connected".into()),
        };
        let mut sh = self.shared.lock().unwrap();
        sh.out.attempted += 1;
        if !sh.issued.insert(key.clone()) {
            sh.repeats += 1;
        }
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                // The connection state is unknown after a timeout or a
                // transport error: count it and start a fresh one.
                sh.out.failed += 1;
                eprintln!("e2ebench: {op} on spec {k}: {e}");
                drop(sh);
                *conn = daemon.connect().ok();
                return None;
            }
        };
        let ms = reply.latency.as_secs_f64() * 1000.0;
        sh.replies.note(&reply);
        sh.end = Some(Instant::now());
        if !reply.ok() {
            sh.out.failed += 1;
            eprintln!("e2ebench: {op} on spec {k} failed: {}", reply.error());
            return None;
        }
        let result = reply.result();
        if !matches!(result.get("exhausted"), None | Some(Json::Null)) {
            sh.out.failed += 1;
            return None;
        }
        // `open_session` returns a handle, not a verdict.
        if op != "open_session" {
            sh.out.latencies_ms.push(ms);
        }
        let spec = &self.specs[k];
        match op {
            "open_session" => {
                let n = result.get("services").and_then(Json::as_f64);
                if n != Some(spec.services as f64) {
                    sh.out.mismatch(format!(
                        "open_session on spec {k}: {n:?} services, generated {}",
                        spec.services
                    ));
                }
            }
            "check_consistency" => {
                // Each party's own goal table is satisfiable by
                // construction; only the combination can conflict.
                let ok = result.get("ok").and_then(Json::as_bool);
                if ok != Some(true) {
                    sh.out.mismatch(format!(
                        "check_consistency {} on spec {k}: ok={ok:?}, label sat",
                        party.unwrap_or("")
                    ));
                }
            }
            "reconcile" => {
                let mut label = spec.label;
                if self.plant_wrong_label && k == 0 {
                    label = crate::flip(label);
                }
                let success = result.get("success").and_then(Json::as_bool);
                if success.map(|s| label.matches_success(s)) != Some(true) {
                    sh.out.mismatch(format!(
                        "reconcile on spec {k}: success={success:?}, label {label}"
                    ));
                }
            }
            _ => {}
        }
        if op != "open_session" {
            if reply.cached() {
                sh.cached.push((key, k, op, result.clone()));
            } else {
                sh.uncached.entry(key).or_default().push(result.clone());
            }
        }
        Some(reply.json)
    }

    fn walk(&self, daemon: &Daemon, plan: &[usize]) {
        let mut conn = daemon.connect().ok();
        for &k in plan {
            let open = Json::obj([
                ("op", Json::str("open_session")),
                ("spec", self.specs[k].wire.clone()),
            ]);
            let key = format!("open_session\u{1}{k}");
            let reply = self.request(&mut conn, daemon, k, ("open_session", None), key, open);
            let Some(reply) = reply else { continue };
            let (Some(handle), Some(ports)) = (
                reply.get("session").and_then(Json::as_str),
                at(&reply, &["result", "ports"]).map(Json::to_line),
            ) else {
                continue;
            };
            for &(op, party) in OPS {
                let mut body = vec![("op", Json::str(op)), ("session", Json::str(handle))];
                if let Some(p) = party {
                    body.push(("party", Json::str(p)));
                }
                let key = cache_key(&self.specs[k], &ports, op, party);
                self.request(&mut conn, daemon, k, (op, party), key, Json::obj(body));
            }
        }
    }
}

/// The verdict part of an op's result: everything but models, solver
/// statistics and logs. Models are canonical only below the engine's
/// canonicalization cap, so two computations of one request can return
/// different valid models (see README.md); an envelope carries none.
fn verdict(op: &str, result: &Json) -> Json {
    let fields: &[&str] = match op {
        "check_consistency" => &["ok", "core"],
        "reconcile" => &["success", "core"],
        "check_conformance" => &["provider_consistent", "success", "envelope_trivial", "blame"],
        "negotiate_round" => &["success", "rounds"],
        _ => return result.clone(),
    };
    Json::Obj(
        fields
            .iter()
            .map(|f| (f.to_string(), result.get(f).cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

/// A cached result must be one the daemon computed for the same cache
/// key, and carry the same verdict as the first uncached answer.
fn check_cached(op: &str, cached: &Json, uncached: Option<&Vec<Json>>) -> Option<&'static str> {
    let Some(first) = uncached.and_then(|u| u.first()) else {
        return Some("has no uncached answer");
    };
    if verdict(op, cached) != verdict(op, first) {
        Some("differs from the first uncached verdict")
    } else if !uncached.is_some_and(|u| u.contains(cached)) {
        Some("matches no uncached answer")
    } else {
        None
    }
}

/// Daemon counters, from the `stats` op.
fn daemon_stats(daemon: &Daemon) -> Result<Json, String> {
    let reply = daemon.connect()?.call(Json::obj([("op", Json::str("stats"))]))?;
    Ok(reply.result().clone())
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    at(stats, path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Start a daemon and warm it with one solve on a spec outside the
/// plans.
fn start_warm(cfg: &Config, socket: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
    let daemon = Daemon::start(&cfg.cli, socket, trace)?;
    let warm = make_spec(ScenarioParams {
        seed: cfg.seed ^ 0x5741_524d,
        ..ScenarioParams::default()
    });
    let reply = daemon.connect()?.call(Json::obj([
        ("op", Json::str("reconcile")),
        ("spec", warm.wire),
    ]))?;
    if !reply.ok() {
        return Err(format!("warm-up reconcile failed: {}", reply.error()));
    }
    Ok(daemon)
}

/// Per-layer numbers summed over epochs.
#[derive(Default)]
struct LayerTotals {
    fold: SpanFold,
    stats: BTreeMap<&'static str, f64>,
    highwater: f64,
    domain_ms: Vec<f64>,
}

const STAT_DELTAS: [(&str, &[&str]); 5] = [
    ("hits", &["cache", "hits"]),
    ("misses", &["cache", "misses"]),
    ("reused", &["warm_groups", "reused"]),
    ("encoded", &["warm_groups", "encoded"]),
    ("shed", &["overload", "shed", "total"]),
];

pub fn run(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let socket = cfg.work_dir.join("admin.sock");
    let trace_file = |e: usize| -> Option<PathBuf> {
        traced.then(|| cfg.work_dir.join(format!("admin-trace-{e}.jsonl")))
    };
    let mut out = Outcome::default();
    let mut set_up = None;
    for _ in 0..SETUP_REPEATS {
        drop(set_up.take());
        let t = Instant::now();
        let epoch = epoch_inputs(cfg, 0);
        let daemon = start_warm(cfg, &socket, trace_file(0).as_deref())?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        set_up = Some((daemon, epoch));
    }
    let (mut daemon, mut epoch) = set_up.expect("set up at least once");
    let mut repeats = 0u64;
    let mut replies = ReplyTimes::default();
    let mut totals = LayerTotals::default();
    let mut e = 0;
    loop {
        let trace = trace_file(e);
        let before = daemon_stats(&daemon)?;
        let trace_offset = trace
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        let shared = Mutex::new(Shared::default());
        let start = Instant::now();
        std::thread::scope(|s| {
            for plan in &epoch.plans {
                let client = Client {
                    specs: &epoch.specs,
                    shared: &shared,
                    plant_wrong_label: cfg.plant_wrong_label && e == 0,
                };
                let daemon = &daemon;
                s.spawn(move || client.walk(daemon, plan));
            }
        });
        let after = daemon_stats(&daemon)?;
        let rss = daemon.peak_rss_mb().unwrap_or(0.0);
        out.peak_rss_mb = out.peak_rss_mb.max(rss);
        drop(daemon);

        let mut sh = shared.into_inner().unwrap();
        for (key, k, op, result) in std::mem::take(&mut sh.cached) {
            if let Some(why) = check_cached(op, &result, sh.uncached.get(&key)) {
                sh.out.mismatch(format!("{op} on spec {k}: cached reply {why}"));
            }
        }
        out.attempted += sh.out.attempted;
        out.failed += sh.out.failed;
        out.mismatches.append(&mut sh.out.mismatches);
        out.latencies_ms.append(&mut sh.out.latencies_ms);
        out.window_s += sh.end.map_or(0.0, |end| (end - start).as_secs_f64());
        repeats += sh.repeats;
        replies.add(sh.replies);
        if let Some(path) = &trace {
            let f = layers::fold_trace_file(path, trace_offset)?;
            totals.fold.merge(&f);
            for (name, path) in STAT_DELTAS {
                *totals.stats.entry(name).or_default() += stat(&after, path) - stat(&before, path);
            }
            totals.highwater =
                totals.highwater.max(stat(&after, &["overload", "queue_highwater"]));
            let _ = std::fs::remove_file(path);
            if e == 0 {
                for spec in &epoch.specs {
                    totals.domain_ms.push(layers::domain_build_ms(&spec.content)?);
                }
            }
        }
        e += 1;
        if out.window_s >= cfg.seconds {
            break;
        }
        epoch = epoch_inputs(cfg, e);
        daemon = start_warm(cfg, &socket, trace_file(e).as_deref())?;
    }

    out.provenance.push(("clients".into(), Json::Num(CLIENTS as f64)));
    out.provenance.push(("epochs".into(), Json::Num(e as f64)));
    out.provenance.push((
        "repeated_request_share".into(),
        Json::Num(layers::ratio(repeats as f64, out.attempted as f64)),
    ));
    out.provenance.push(("daemon_flags".into(), Json::str("--workers 2 --threads 1")));
    if traced {
        let mut m = Vec::new();
        let n = out.latencies_ms.len();
        if let Some(why) = layers::daemon_span_metrics(&totals.fold, n, replies, &mut m) {
            out.mismatch(why);
        }
        let st = |k: &str| totals.stats.get(k).copied().unwrap_or(0.0);
        m.push(("domain.build_ms".into(), crate::stats::median(&totals.domain_ms), "ms"));
        m.push((
            "daemon.cache.hit_ratio".into(),
            layers::ratio(st("hits"), st("hits") + st("misses")),
            "ratio",
        ));
        m.push((
            "daemon.warm_groups.reused_ratio".into(),
            layers::ratio(st("reused"), st("reused") + st("encoded")),
            "ratio",
        ));
        m.push(("daemon.queue.highwater".into(), totals.highwater, "count"));
        m.push(("daemon.shed".into(), st("shed"), "count"));
        out.layers = layers::complete(m);
    }
    Ok(out)
}
