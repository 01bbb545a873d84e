//! Per-layer numbers from the program's own spans.
//!
//! A span's self time is its duration minus its direct children. Summed
//! per span name, this needs no tree reconstruction: every closed span
//! adds its duration to its own name and subtracts it from its parent's
//! name (the second-to-last component of its path), so the events of
//! concurrent workers may interleave in the daemon's `--trace-json`
//! file.

use std::collections::BTreeMap;

use muppet_daemon::json::Json;

use crate::daemon::{at, ReplyTimes};

/// Span name → per-layer metric prefix. Spans not listed here are
/// summed under `obs.unlisted`.
const LAYERS: &[(&str, &str)] = &[
    ("request", "daemon.request"),
    ("reconcile", "core.reconcile"),
    ("consistency", "core.consistency"),
    ("envelope", "core.envelope"),
    ("minimal_edit", "core.minimal_edit"),
    ("synthesize", "core.synthesize"),
    ("attempt", "solver.attempt"),
    ("ground", "solver.ground"),
    ("encode", "solver.encode"),
    ("search", "sat.search"),
    ("minimize", "sat.minimize"),
];

/// Self times and counters folded from span-close events.
#[derive(Clone, Debug, Default)]
pub struct SpanFold {
    /// Self time per layer prefix, µs (signed while folding).
    self_us: BTreeMap<&'static str, i64>,
    /// Span count per layer prefix.
    spans: BTreeMap<&'static str, u64>,
    /// Summed counters per `(layer prefix, counter)`.
    counters: BTreeMap<(&'static str, String), u64>,
    /// Summed duration of `request` spans per op, µs, and their count.
    pub request_us_by_op: BTreeMap<String, (u64, u64)>,
}

fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| *l)
        .unwrap_or("obs.unlisted")
}

impl SpanFold {
    /// Fold one `--trace-json` event line: a closed span.
    pub fn add_event(&mut self, ev: &Json) {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        let path = ev.get("path").and_then(Json::as_str).unwrap_or(name);
        let elapsed_us = ev.get("elapsed_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let layer = layer_of(name);
        *self.self_us.entry(layer).or_default() += elapsed_us as i64;
        *self.spans.entry(layer).or_default() += 1;
        if let Some(Json::Obj(pairs)) = ev.get("counters") {
            for (k, v) in pairs {
                let v = v.as_f64().unwrap_or(0.0) as u64;
                *self.counters.entry((layer, k.clone())).or_default() += v;
            }
        }
        if let Some(parent) = path.rsplit('/').nth(1) {
            *self.self_us.entry(layer_of(parent)).or_default() -= elapsed_us as i64;
        }
        if name == "request" {
            if let Some(op) = at(ev, &["attrs", "op"]).and_then(Json::as_str) {
                let slot = self.request_us_by_op.entry(op.to_string()).or_default();
                slot.0 += elapsed_us;
                slot.1 += 1;
            }
        }
    }

    /// Add another fold's totals to this one.
    pub fn merge(&mut self, other: &SpanFold) {
        for (k, v) in &other.self_us {
            *self.self_us.entry(k).or_default() += v;
        }
        for (k, v) in &other.spans {
            *self.spans.entry(k).or_default() += v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (op, (us, n)) in &other.request_us_by_op {
            let slot = self.request_us_by_op.entry(op.clone()).or_default();
            slot.0 += us;
            slot.1 += n;
        }
    }

    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_us.get(layer).copied().unwrap_or(0).max(0) as f64 / 1000.0
    }

    pub fn spans(&self, layer: &str) -> u64 {
        self.spans.get(layer).copied().unwrap_or(0)
    }

    pub fn counter(&self, layer: &str, name: &str) -> u64 {
        self.counters
            .get(&(layer, name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of every layer's self time, ms (equals the root span total).
    pub fn total_self_ms(&self) -> f64 {
        self.self_us.values().sum::<i64>() as f64 / 1000.0
    }

    /// The span-derived per-layer metrics, each divided by `verdicts`
    /// (so runs that completed different amounts of work compare).
    pub fn metrics(&self, verdicts: f64, out: &mut Vec<(String, f64, &'static str)>) {
        let per = |x: f64| if verdicts > 0.0 { x / verdicts } else { 0.0 };
        for layer in [
            "solver.ground",
            "solver.encode",
            "solver.attempt",
            "sat.search",
            "sat.minimize",
            "core.consistency",
            "core.envelope",
            "core.minimal_edit",
            "core.synthesize",
            "core.reconcile",
            "daemon.request",
            "obs.unlisted",
        ] {
            out.push((format!("{layer}.self_ms"), per(self.self_ms(layer)), "ms"));
        }
        let hits = self.counter("solver.ground", "cache_hits") as f64;
        let misses = self.counter("solver.ground", "cache_misses") as f64;
        out.push((
            "solver.ground.groups".into(),
            per(self.counter("solver.ground", "groups") as f64),
            "count",
        ));
        out.push((
            "solver.ground.cache_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ));
        for c in ["conflicts", "propagations"] {
            out.push((
                format!("sat.search.{c}"),
                per(self.counter("sat.search", c) as f64),
                "count",
            ));
        }
        out.push((
            "sat.minimize.calls".into(),
            per(self.spans("sat.minimize") as f64),
            "count",
        ));
    }
}

/// Wall time of one `ConfigDomain::build` of the mesh domain on wire
/// content `(manifests, k8s goals, istio goals, extra ports)`, ms.
pub fn domain_build_ms(content: &(String, String, String, Vec<u16>)) -> Result<f64, String> {
    let domain = muppet_domain::lookup(muppet_domain::DEFAULT_DOMAIN).ok_or("no mesh domain")?;
    let (manifests, k8s, istio, extra_ports) = content.clone();
    let input = muppet_domain::DomainInput {
        manifests,
        goals: vec![k8s, istio],
        mtls: false,
        extra_ports,
    };
    let t = std::time::Instant::now();
    domain.build(&input)?;
    Ok(t.elapsed().as_secs_f64() * 1000.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold the events of a `--trace-json` file written after byte
/// `offset` (set-up traffic comes before it).
pub fn fold_trace_file(path: &std::path::Path, offset: u64) -> Result<SpanFold, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let text = String::from_utf8_lossy(bytes.get(offset as usize..).unwrap_or(&[]));
    let mut fold = SpanFold::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let ev = muppet_daemon::json::parse(line)?;
        // The benchmark's own `stats` probe is not workload traffic.
        if at(&ev, &["attrs", "op"]).and_then(Json::as_str) == Some("stats") {
            continue;
        }
        fold.add_event(&ev);
    }
    Ok(fold)
}

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solver.ground.self_ms", "ms"),
    ("solver.ground.groups", "count"),
    ("solver.ground.cache_hit_ratio", "ratio"),
    ("solver.encode.self_ms", "ms"),
    ("solver.attempt.self_ms", "ms"),
    ("sat.search.self_ms", "ms"),
    ("sat.search.conflicts", "count"),
    ("sat.search.propagations", "count"),
    ("sat.minimize.self_ms", "ms"),
    ("sat.minimize.calls", "count"),
    ("core.consistency.self_ms", "ms"),
    ("core.envelope.self_ms", "ms"),
    ("core.minimal_edit.self_ms", "ms"),
    ("core.synthesize.self_ms", "ms"),
    ("core.reconcile.self_ms", "ms"),
    ("domain.build_ms", "ms"),
    ("stream.groups_reused_ratio", "ratio"),
    ("stream.verdict_flips", "count"),
    ("daemon.request_ms.open_session", "ms"),
    ("daemon.request_ms.check_consistency", "ms"),
    ("daemon.request_ms.reconcile", "ms"),
    ("daemon.request_ms.extract_envelope", "ms"),
    ("daemon.request_ms.check_conformance", "ms"),
    ("daemon.request_ms.negotiate_round", "ms"),
    ("daemon.request_ms.watch", "ms"),
    ("daemon.request_ms.push_delta", "ms"),
    ("daemon.request.self_ms", "ms"),
    ("daemon.outside_request_ms", "ms"),
    ("daemon.cache.hit_ratio", "ratio"),
    ("daemon.warm_groups.reused_ratio", "ratio"),
    ("daemon.queue.highwater", "count"),
    ("daemon.shed", "count"),
    ("obs.unlisted.self_ms", "ms"),
    ("obs.span_coverage_pct", "%"),
    ("obs.tracing_overhead_pct", "%"),
];

/// Order `got` by [`PER_LAYER`], filling layers the run never reached
/// with 0 (`obs.tracing_overhead_pct` is added by the caller).
pub fn complete(got: Vec<(String, f64, &'static str)>) -> Vec<(String, f64, &'static str)> {
    for (name, _, _) in &got {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    PER_LAYER
        .iter()
        .filter(|(n, _)| *n != "obs.tracing_overhead_pct")
        .map(|(name, unit)| {
            let value = got
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (name.to_string(), value, *unit)
        })
        .collect()
}

/// Span metrics of a daemon run: the fold's layers, the `request` span
/// per op (mean ms), and the client time outside the daemon's handling
/// (mean ms per request), from the workload's `replies`.
///
/// The trace is checked against those replies, which it does not
/// produce: there must be one `request` span per reply, and the self
/// times plus the time outside the daemon's handling must add up to the
/// client's time within 5%. A lost, truncated or partly recorded trace
/// fails one of the two; the complaint is returned.
pub fn daemon_span_metrics(
    fold: &SpanFold,
    verdicts: usize,
    replies: ReplyTimes,
    out: &mut Vec<(String, f64, &'static str)>,
) -> Option<String> {
    fold.metrics(verdicts as f64, out);
    for (op, (us, n)) in &fold.request_us_by_op {
        let name = format!("daemon.request_ms.{op}");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            out.push((name, *us as f64 / 1000.0 / (*n).max(1) as f64, "ms"));
        }
    }
    let outside_ms = replies.client_ms - replies.handled_ms;
    out.push((
        "daemon.outside_request_ms".into(),
        outside_ms / replies.count.max(1) as f64,
        "ms",
    ));
    let coverage = 100.0 * ratio(fold.total_self_ms() + outside_ms, replies.client_ms);
    out.push(("obs.span_coverage_pct".into(), coverage, "%"));
    let spans = fold.spans("daemon.request");
    if spans != replies.count as u64 {
        Some(format!("trace has {spans} request spans for {} replies", replies.count))
    } else if (coverage - 100.0).abs() > 5.0 {
        Some(format!("span self times cover {coverage:.1}% of the client's time"))
    } else {
        None
    }
}
