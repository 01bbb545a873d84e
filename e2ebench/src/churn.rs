//! `stream-churn`: replay the committed `stream-policy-churn` edit
//! stream (250 ban edits over a 24-service mesh) through the daemon's
//! `watch`/`push_delta`, a closed loop over one connection: each delta
//! is sent after the previous reply. A run replays whole passes: the
//! first always, and another from a fresh `watch` while it is expected
//! to end within half a pass of the run's time. Every latency sample
//! then covers the same deltas equally often.

use std::time::Instant;

use muppet::ReconcileMode;
use muppet_daemon::json::Json;
use muppet_scenario::corpus::{self, Kind};
use muppet_scenario::{generate_stream, ConfigDelta, EditStream, Expected};
use muppet_stream::{verdict_line, StreamSpec};

use crate::daemon::{at, spec_json, Conn, Daemon, Reply, ReplyTimes};
use crate::layers;
use crate::stats::{Outcome, Rng};
use crate::Config;

const ENTRY: &str = "stream-policy-churn";
const SETUP_REPEATS: usize = 5;
/// Deltas re-solved cold in-process per run.
const COLD_SAMPLE: usize = 6;

struct Inputs {
    stream: EditStream,
    spec: Json,
    content: (String, String, String, Vec<u16>),
    deltas: Vec<String>,
    label: Expected,
}

fn inputs(cfg: &Config) -> Inputs {
    let entry = corpus::entry(ENTRY).expect("corpus has the policy-churn stream");
    let Kind::Stream(mut params) = entry.kind else {
        panic!("{ENTRY} is a stream entry");
    };
    if cfg.tiny {
        params.base.services = 6;
        params.base.istio_goals = 6;
        params.deltas = 12;
    }
    let stream = generate_stream(params);
    let content = stream.base.wire_content();
    let spec = spec_json(&content);
    let deltas = stream.deltas.iter().map(|d| d.to_string()).collect();
    // The committed label is for the full stream; a shortened one is
    // judged by the generator's own replay.
    let label = if cfg.tiny {
        stream.final_expected()
    } else {
        entry.expected
    };
    Inputs {
        stream,
        spec,
        content,
        deltas,
        label,
    }
}

/// Open a watch; returns its id and the reply.
fn watch(conn: &mut Conn, spec: &Json) -> Result<(String, Reply), String> {
    let reply = conn.call(Json::obj([("op", Json::str("watch")), ("spec", spec.clone())]))?;
    if !reply.ok() {
        return Err(format!("watch failed: {}", reply.error()));
    }
    let id = reply
        .result()
        .get("watch")
        .and_then(Json::as_str)
        .ok_or("watch reply has no id")?
        .to_string();
    Ok((id, reply))
}

fn verdict_of(result: &Json) -> Option<String> {
    result.get("verdict").and_then(Json::as_str).map(str::to_string)
}

pub fn run(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let socket = cfg.work_dir.join("churn.sock");
    let trace_path = traced.then(|| cfg.work_dir.join("churn-trace.jsonl"));
    let mut out = Outcome::default();
    let mut set_up = None;
    for _ in 0..SETUP_REPEATS {
        drop(set_up.take());
        let t = Instant::now();
        let inp = inputs(cfg);
        let daemon = Daemon::start(&cfg.cli, &socket, trace_path.as_deref())?;
        let mut conn = daemon.connect()?;
        let (id, reply) = watch(&mut conn, &inp.spec)?;
        let initial = reply
            .result()
            .get("initial")
            .and_then(verdict_of)
            .ok_or("watch reply has no initial verdict")?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        set_up = Some((daemon, conn, inp, (id, initial)));
    }
    let (daemon, mut conn, inp, (mut id, initial)) = set_up.expect("set up at least once");
    let trace_offset = match &trace_path {
        Some(p) => std::fs::metadata(p).map(|m| m.len()).unwrap_or(0),
        None => 0,
    };

    // verdicts[seq]: the first pass's verdict after `seq` deltas.
    let mut verdicts = vec![initial];
    let (mut reused, mut encoded, mut flips) = (0u64, 0u64, 0u64);
    let mut replies = ReplyTimes::default();
    let mut passes = 0usize;
    let mut seq = 0usize;
    let start = Instant::now();
    let mut end = start;
    let mut pass_start = start;
    loop {
        if seq == inp.deltas.len() {
            passes += 1;
            if passes == 1 {
                // Over the first pass only: a later pass adds the
                // memory of its fresh watch, and how many passes fit
                // depends on the host's speed.
                out.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
            }
            let now = Instant::now();
            let pass_s = (now - pass_start).as_secs_f64();
            pass_start = now;
            if (now - start).as_secs_f64() + pass_s / 2.0 > cfg.seconds {
                break;
            }
            let reopened = conn
                .call(Json::obj([("op", Json::str("unwatch")), ("watch", Json::str(&id))]))
                .and_then(|unwatch| {
                    replies.note(&unwatch);
                    watch(&mut conn, &inp.spec)
                });
            let (new_id, reply) = match reopened {
                Ok(r) => r,
                Err(e) => {
                    out.mismatch(format!("re-opening the watch: {e}"));
                    break;
                }
            };
            id = new_id;
            seq = 0;
            let ms = reply.latency.as_secs_f64() * 1000.0;
            replies.note(&reply);
            out.attempted += 1;
            out.latencies_ms.push(ms);
            end = Instant::now();
            let v = reply.result().get("initial").and_then(verdict_of);
            if v.as_deref() != Some(verdicts[0].as_str()) {
                out.mismatch("re-opened watch: initial verdict differs from the first".into());
            }
            continue;
        }
        let reply = conn.call(Json::obj([
            ("op", Json::str("push_delta")),
            ("watch", Json::str(&id)),
            ("delta", Json::str(&inp.deltas[seq])),
        ]));
        seq += 1;
        out.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                // A timeout leaves the watch in an unknown state: the
                // run cannot be checked past this point.
                out.mismatch(format!("push_delta {seq}: {e}; replay abandoned"));
                break;
            }
        };
        let ms = reply.latency.as_secs_f64() * 1000.0;
        replies.note(&reply);
        end = Instant::now();
        let result = reply.result();
        let verdict = if reply.ok() { verdict_of(result) } else { None };
        let Some(verdict) = verdict else {
            // A rejected delta leaves the watch state untouched, so the
            // previous verdict stands for this position.
            out.failed += 1;
            eprintln!("e2ebench: push_delta {seq} rejected: {}", reply.error());
            if passes == 0 {
                let prev = verdicts[seq - 1].clone();
                verdicts.push(prev);
            }
            continue;
        };
        out.latencies_ms.push(ms);
        let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        reused += num("groups_reused");
        encoded += num("groups_encoded");
        flips += u64::from(result.get("flipped").and_then(Json::as_bool) == Some(true));
        if passes == 0 {
            verdicts.push(verdict);
        } else if verdicts[seq] != verdict {
            out.mismatch(format!("delta {seq}: pass {} verdict differs from pass 1", passes + 1));
        }
    }
    out.window_s = (end - start).as_secs_f64();
    let stats = conn.call(Json::obj([("op", Json::str("stats"))]))?;
    drop(conn);
    drop(daemon);

    if verdicts.len() == inp.deltas.len() + 1 {
        check_verdicts(cfg, &inp, &verdicts, &mut out)?;
    }

    out.provenance.push(("stream".into(), Json::str(ENTRY)));
    out.provenance.push(("deltas".into(), Json::Num(inp.deltas.len() as f64)));
    out.provenance.push(("passes".into(), Json::Num(passes as f64)));
    out.provenance.push(("daemon_flags".into(), Json::str("--workers 2 --threads 1")));
    if let Some(path) = trace_path {
        let fold = layers::fold_trace_file(&path, trace_offset)?;
        let mut m = Vec::new();
        let n = out.latencies_ms.len();
        if let Some(why) = layers::daemon_span_metrics(&fold, n, replies, &mut m) {
            out.mismatch(why);
        }
        m.push(("domain.build_ms".into(), layers::domain_build_ms(&inp.content)?, "ms"));
        m.push((
            "stream.groups_reused_ratio".into(),
            layers::ratio(reused as f64, (reused + encoded) as f64),
            "ratio",
        ));
        m.push(("stream.verdict_flips".into(), layers::ratio(flips as f64, n as f64), "count"));
        let s = stats.result();
        let stat = |p: &[&str]| at(s, p).and_then(Json::as_f64).unwrap_or(0.0);
        m.push(("daemon.queue.highwater".into(), stat(&["overload", "queue_highwater"]), "count"));
        m.push(("daemon.shed".into(), stat(&["overload", "shed", "total"]), "count"));
        out.layers = layers::complete(m);
    }
    Ok(out)
}

/// The final verdict against the corpus label, and a seeded sample of
/// warm verdicts against cold in-process re-solves.
fn check_verdicts(
    cfg: &Config,
    inp: &Inputs,
    verdicts: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut label = inp.label;
    if cfg.plant_wrong_label {
        label = crate::flip(label);
    }
    if inp.stream.final_expected() != inp.label {
        out.mismatch(format!("{ENTRY}: corpus label {} disagrees with the generator", inp.label));
    }
    let last = verdicts.last().map(String::as_str).unwrap_or("");
    if !label.matches_success(last.starts_with("sat")) {
        out.mismatch(format!("{ENTRY}: final verdict {last:.40} but the label is {label}"));
    }
    let n = inp.deltas.len();
    let mut rng = Rng::new(cfg.seed);
    let mut sample: Vec<usize> = (0..COLD_SAMPLE).map(|_| 1 + rng.below(n)).collect();
    sample.push(n);
    sample.sort_unstable();
    sample.dedup();
    let (manifests, k8s, istio, extras) = &inp.content;
    let mut spec = StreamSpec::from_wire(manifests, k8s, istio, extras)?;
    let mut applied = 0;
    for &seq in &sample {
        while applied < seq {
            let delta = ConfigDelta::parse(&inp.deltas[applied]).map_err(|e| format!("{e:?}"))?;
            delta
                .apply_parts(&mut spec.mesh, &mut spec.k8s_goals, &mut spec.istio_goals)
                .map_err(|e| format!("{e:?}"))?;
            applied += 1;
        }
        let mv = spec.vocab();
        let rec = spec
            .session(&mv)
            .map_err(|e| format!("{e:?}"))?
            .reconcile(ReconcileMode::HardBounds)
            .map_err(|e| format!("{e:?}"))?;
        // Cores are canonical at any size (ordered deletion); models
        // only below the engine's canonicalization cap, which this
        // unbounded mesh exceeds, so a sat verdict is compared by class.
        let cold = verdict_line(&rec);
        let warm = &verdicts[seq];
        let same = if cold.starts_with("sat") {
            warm.starts_with("sat")
        } else {
            cold == *warm
        };
        if !same {
            out.mismatch(format!(
                "delta {seq}: warm verdict {warm:.200} differs from a cold re-solve {cold:.200}"
            ));
        }
    }
    out.provenance.push((
        "cold_checked".into(),
        Json::Arr(sample.iter().map(|&s| Json::Num(s as f64)).collect()),
    ));
    Ok(())
}
