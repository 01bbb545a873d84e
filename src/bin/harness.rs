//! The experiment harness: regenerates every paper artifact as a text
//! row, in one run.
//!
//! ```text
//! cargo run --release --bin muppet-harness            # all experiments
//! cargo run --release --bin muppet-harness -- --csv   # CSV output
//! cargo run --release --bin muppet-harness -- e4      # one experiment
//! ```
//!
//! Every lane pushes rows — instance, metric, a value (a number with a
//! unit, or a verdict string) and the paper's expectation — into its
//! [`Record`]. The text table, the `--csv` output and the lane's bench
//! file are three renderings of those rows. [`LANES`] names the file
//! each lane's record goes to, and [`write_record`] writes it, once the
//! lane has returned or panicked, as
//! `{schema, lane, commit, host_cores, profile, governance, status,
//! rows}`. The E/A/X lanes share `BENCH_e2e.json`, so only a run that
//! includes all of them (an unfiltered run) writes it; each gated lane
//! owns one file and writes it whenever it runs.
//!
//! Resource governance flags (applied to every session-based
//! experiment): `--timeout-ms <n>` caps each session's wall clock,
//! `--conflict-budget <n>` caps solver conflicts per attempt, and
//! `--retries <n>` allows that many Luby-escalated attempts. When a
//! governed experiment's budget runs out it emits a structured
//! "budget exhausted" row (phase + work counters) instead of results.
//!
//! Observability (DESIGN.md §12): `--trace-json <path>` streams one
//! JSON-Lines event per closed span to a file, and the `O1` lane runs
//! the paper scenarios traced, validates span trees against the
//! schema, gates the disabled-tracing overhead at ≤ 2%, and records
//! per-phase breakdowns.
//!
//! Experiment ids follow `DESIGN.md` §4 and `EXPERIMENTS.md`:
//! E1 conflict detection, E2 relaxation synthesis, E3 envelope shape,
//! E4 latency sweep (the Sec. 5 "< 1 s" claim), E5 baseline comparison,
//! E6 conformance workflow, E7 minimal edits, E8 negotiation rounds,
//! A1–A3 ablations, X1–X3 the Sec. 7 extensions. `S1` is the scale
//! lane (DESIGN.md §15): the
//! committed scenario corpus end to end — verdicts gated against
//! committed labels on up-to-2500-service generated meshes
//! (`MUPPET_SCALE=full` for the full large + hard tiers), per-phase
//! timings per scenario, and a byte-identical regeneration
//! gate. `W1` is the streaming-reconfiguration lane (DESIGN.md §16):
//! it replays a committed edit stream through one warm multi-shot
//! `StreamSession` and a cold re-solve-from-scratch oracle in
//! lockstep, gating byte-identical verdicts at every delta plus a 5x
//! amortized warm-vs-cold speedup floor; a second, unbounded replay
//! gates that the warm engine stays within twice a fresh engine's
//! size and that no ban or goal-row delta dirties the structural
//! axioms.
//! `R1` is the overload/chaos lane (DESIGN.md §14):
//! it floods a real socket daemon past its admission limits with
//! misbehaving clients (plus injected solver faults under
//! `--features fault-inject`) and gates on verdict integrity, shed
//! accounting and drain latency.
//! `K1` is the SAT-kernel speed lane (DESIGN.md §17): the hard-tier
//! CNF corpus solved under the legacy pre-change kernel profile vs the
//! tuned defaults (verdict parity on every entry, a 0.8x wall-clock
//! floor on the gated UNSAT instance), plus the committed minimal-edit
//! scenario solved core-guided vs linear (byte-identical outcomes, a
//! 2x speedup floor).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use muppet::conformance::run_conformance;
use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{baseline, Budget, MuppetError, ReconcileMode, RetryPolicy, Session};
use muppet_daemon::json::Json;
use muppet_logic::{Formula, Instance};
use muppet_obs::PhaseTotals;
use muppet_scenario::paper::{session, vocab, IstioTable};
use muppet_scenario::{corpus, generate, ScenarioParams};

const REPS: usize = 5;

/// The one schema every bench file carries.
const SCHEMA: &str = "muppet-harness-record-v1";

/// The file the E/A/X lanes share.
const E2E: &str = "BENCH_e2e.json";

/// One harness lane: pushes its rows into its record.
type Lane = fn(&mut Record);

/// Every lane in run order, with the bench file its record goes to.
const LANES: &[(&str, Lane, &str)] = &[
    ("E1", e1, E2E),
    ("E2", e2, E2E),
    ("E3", e3, E2E),
    ("E4", e4, E2E),
    ("E5", e5, E2E),
    ("E6", e6, E2E),
    ("E7", e7, E2E),
    ("E8", e8, E2E),
    ("A1", a1, E2E),
    ("A2", a2, E2E),
    ("A3", a3, E2E),
    ("X1", x1, E2E),
    ("X2", x2, E2E),
    ("X3", x3, E2E),
    ("D1", d1, "BENCH_daemon.json"),
    ("O1", o1, "BENCH_obs.json"),
    ("S1", s1, "BENCH_scale.json"),
    ("N1", n1, "BENCH_incremental.json"),
    ("W1", w1, "BENCH_stream.json"),
    ("R1", r1, "BENCH_robustness.json"),
    ("K1", k1, "BENCH_kernel.json"),
    ("M1", m1, "BENCH_domains.json"),
];

/// Resource-governance knobs parsed from the command line, applied to
/// every session-based experiment via [`govern`].
#[derive(Clone, Copy, Default)]
struct Gov {
    timeout_ms: Option<u64>,
    conflict_budget: Option<u64>,
    retries: Option<u32>,
}

static GOV: OnceLock<Gov> = OnceLock::new();

fn gov() -> Gov {
    GOV.get().copied().unwrap_or_default()
}

/// Apply the governance flags to a freshly built session. The deadline
/// (if any) starts now and covers every query the session runs.
fn govern(s: &mut Session<'_>) {
    let g = gov();
    let mut budget = Budget::unlimited();
    if let Some(t) = g.timeout_ms {
        budget = budget.with_timeout(Duration::from_millis(t));
    }
    s.set_budget(budget);
    if g.conflict_budget.is_some() || g.retries.is_some() {
        s.set_retry_policy(RetryPolicy::new(
            g.conflict_budget.unwrap_or(u64::MAX),
            g.retries.unwrap_or(1),
        ));
    }
}

/// Run `f` once and return its result with the wall-clock duration.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `f` `n` times and return the last result with the median duration.
fn timed_median<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut durations = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (out, d) = timed(&mut f);
        durations.push(d);
        last = Some(out);
    }
    durations.sort();
    (last.expect("n >= 1"), durations[n / 2])
}

/// Run `op` on a freshly built, governed session `reps` times and
/// return the last session and result with the median time of `op`
/// alone. A repeat on one session is answered from its warm engine's
/// memo without searching, so each run gets its own session, and each
/// session must have recalled no answer: a row times solves, never a
/// recall.
fn timed_fresh<'u, T>(
    reps: usize,
    build: impl Fn() -> Session<'u>,
    mut op: impl FnMut(&mut Session<'u>) -> T,
) -> (Session<'u>, T, Duration) {
    let mut durations = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let mut s = build();
        govern(&mut s);
        let (out, d) = timed(|| op(&mut s));
        assert_eq!(s.store().answers_reused(), 0, "a timed run recalled a memoized answer");
        durations.push(d);
        last = Some((s, out));
    }
    durations.sort();
    let (s, out) = last.expect("reps >= 1");
    (s, out, durations[reps / 2])
}

/// Milliseconds, for a row.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` traced with a phase accumulator attached and return its
/// result with the per-phase totals; tracing is restored afterwards.
fn profiled<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<&'static str, PhaseTotals>) {
    let was_enabled = muppet_obs::tracing_enabled();
    muppet_obs::clear_profilers();
    let acc = muppet_obs::PhaseAccumulator::new();
    muppet_obs::on_span_close(acc.callback());
    muppet_obs::set_enabled(true);
    let out = f();
    let totals = acc.drain();
    muppet_obs::clear_profilers();
    muppet_obs::set_enabled(was_enabled);
    (out, totals)
}

/// A measured value: a number with its unit, or a verdict string.
enum Value {
    Num(f64, &'static str),
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Num(v, unit) => {
                if v.fract() == 0.0 {
                    write!(f, "{v:.0}")?;
                } else {
                    write!(f, "{v:.3}")?;
                }
                if !unit.is_empty() {
                    write!(f, " {unit}")?;
                }
                Ok(())
            }
        }
    }
}

/// One row of a lane's record.
struct Row {
    lane: &'static str,
    instance: String,
    metric: String,
    value: Value,
    paper: String,
}

impl Row {
    fn cells(&self) -> [String; 5] {
        [
            self.lane.to_string(),
            self.instance.clone(),
            self.metric.clone(),
            self.value.to_string(),
            self.paper.clone(),
        ]
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("lane", Json::str(self.lane)),
            ("instance", Json::str(&self.instance)),
            ("metric", Json::str(&self.metric)),
        ];
        match &self.value {
            Value::Num(v, unit) => {
                pairs.push(("value", Json::Num(*v)));
                pairs.push(("unit", Json::str(*unit)));
            }
            Value::Text(s) => pairs.push(("value", Json::str(s))),
        }
        pairs.push(("paper", Json::str(&self.paper)));
        Json::obj(pairs)
    }
}

/// What one lane measured, and whether it finished.
struct Record {
    lane: &'static str,
    rows: Vec<Row>,
    panicked: bool,
}

impl Record {
    fn push(&mut self, instance: &str, metric: &str, value: Value, paper: &str) {
        self.rows.push(Row {
            lane: self.lane,
            instance: instance.to_string(),
            metric: metric.to_string(),
            value,
            paper: paper.to_string(),
        });
    }

    /// A number with its unit (`""` for a plain count).
    fn num(&mut self, instance: &str, metric: &str, value: f64, unit: &'static str, paper: &str) {
        self.push(instance, metric, Value::Num(value, unit), paper);
    }

    /// A verdict string.
    fn text(&mut self, instance: &str, metric: &str, value: impl fmt::Display, paper: &str) {
        self.push(instance, metric, Value::Text(value.to_string()), paper);
    }

    /// The governed lane's budget ran out: one row saying where,
    /// instead of results.
    fn exhausted(&mut self, instance: &str, why: impl fmt::Display) {
        self.text(
            instance,
            "budget exhausted",
            why,
            "raise --timeout-ms / --conflict-budget / --retries",
        );
    }

    /// Per-phase span totals: calls, total and slowest span.
    fn phases(&mut self, instance: &str, totals: &BTreeMap<&'static str, PhaseTotals>) {
        for (name, p) in totals {
            self.num(instance, &format!("{name} calls"), p.count as f64, "", "-");
            self.num(instance, &format!("{name} total"), p.total_us as f64, "us", "-");
            self.num(instance, &format!("{name} max"), p.max_us as f64, "us", "-");
        }
    }

    /// Every number and flag in `json`, one row each, named by its
    /// dotted path under `path`.
    fn leaves(&mut self, instance: &str, path: &str, json: &Json) {
        match json {
            Json::Num(v) => self.num(instance, path, *v, "", "-"),
            Json::Bool(b) => self.text(instance, path, b, "-"),
            Json::Obj(pairs) => {
                for (key, v) in pairs {
                    self.leaves(instance, &format!("{path}.{key}"), v);
                }
            }
            _ => {}
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let mut g = Gov::default();
    let mut trace_json: Option<String> = None;
    let mut filter: Vec<&String> = Vec::new();
    let usage = |msg: String| -> ! {
        eprintln!("muppet-harness: {msg}");
        eprintln!(
            "usage: muppet-harness [--csv] [--timeout-ms <n>] [--conflict-budget <n>] \
             [--retries <n>] [--trace-json <path>] [experiment-id-prefix...]"
        );
        std::process::exit(2);
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(format!("{flag} needs a value")))
                .clone()
        };
        let num = |flag: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(format!("{flag} needs a number")))
        };
        match a.as_str() {
            "--csv" => {}
            "--timeout-ms" => g.timeout_ms = Some(num("--timeout-ms", value("--timeout-ms"))),
            "--conflict-budget" => {
                g.conflict_budget = Some(num("--conflict-budget", value("--conflict-budget")))
            }
            "--retries" => g.retries = Some(num("--retries", value("--retries")) as u32),
            "--trace-json" => trace_json = Some(value("--trace-json")),
            other if other.starts_with("--") => usage(format!("unknown flag {other:?}")),
            _ => filter.push(a),
        }
    }
    GOV.set(g).ok();
    if let Some(path) = &trace_json {
        if let Err(e) = muppet_obs::set_json_sink(std::path::Path::new(path)) {
            usage(format!("--trace-json {path}: {e}"));
        }
        muppet_obs::set_enabled(true);
    }
    let want = |id: &str| {
        filter.is_empty()
            || filter
                .iter()
                .any(|f| id.to_lowercase().starts_with(&f.to_lowercase()))
    };
    if !LANES.iter().any(|(id, ..)| want(id)) {
        usage(format!("no experiment id starts with any of {filter:?}"));
    }

    // Every lane runs under catch_unwind so one failing lane still
    // leaves its own record and the rest of the table.
    let commit = git_commit();
    let mut records: Vec<Record> = Vec::new();
    for (i, &(id, run, file)) in LANES.iter().enumerate() {
        if !want(id) {
            continue;
        }
        let mut record = Record { lane: id, rows: Vec::new(), panicked: false };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut record)));
        record.panicked = caught.is_err();
        // A daemon engine switches tracing on for the whole process;
        // restore what the flags asked for, so no lane is measured
        // under the tracing state an earlier lane left behind.
        muppet_obs::set_enabled(trace_json.is_some());
        records.push(record);
        // A file is written once the last lane that owns it has run,
        // and only if every lane that owns it ran.
        let owners = || LANES.iter().filter(|l| l.2 == file);
        if owners().all(|l| want(l.0)) && LANES[i + 1..].iter().all(|l| l.2 != file) {
            let mine: Vec<&Record> =
                records.iter().filter(|r| owners().any(|l| l.0 == r.lane)).collect();
            write_record(file, &mine, &commit, g);
        }
    }

    let rows: Vec<[String; 5]> = records
        .iter()
        .flat_map(|r| &r.rows)
        .map(Row::cells)
        .collect();
    let headers = ["lane", "instance", "metric", "value", "paper-expectation"].map(String::from);
    if csv {
        print!("{}", render_csv(&headers, &rows));
    } else {
        print!("{}", render_table(&headers, &rows));
    }
    // Flush the --trace-json sink before exiting either way.
    muppet_obs::clear_json_sink();
    if records.iter().any(|r| r.panicked) {
        std::process::exit(1);
    }
}

/// The commit the harness was built from, `-dirty` when its build
/// inputs differ from it, or `"unknown"` without git. The BENCH files
/// themselves are not build inputs, so the lanes rewriting them do not
/// change the answer mid-run.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let mut status = vec!["status", "--porcelain", "--untracked-files=no", "--"];
    status.extend(["Cargo.toml", "Cargo.lock", "crates", "src", "third_party"]);
    match git(&status) {
        Some(changes) if changes.is_empty() => head,
        Some(_) => format!("{head}-dirty"),
        None => "unknown".to_string(),
    }
}

/// The one place the harness writes a file: the bench record of the
/// lanes that own `file`.
fn write_record(file: &str, records: &[&Record], commit: &str, g: Gov) {
    let opt_num = |v: Option<u64>| v.map_or(Json::Null, Json::num);
    let lanes: Vec<&str> = records.iter().map(|r| r.lane).collect();
    let panicked: Vec<&str> = records.iter().filter(|r| r.panicked).map(|r| r.lane).collect();
    let status = if panicked.is_empty() {
        "ok".to_string()
    } else {
        format!("panicked: {}", panicked.join(" "))
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("lane", Json::str(lanes.join(" "))),
        ("commit", Json::str(commit)),
        ("host_cores", Json::num(host_cores)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        (
            "governance",
            Json::obj([
                ("timeout_ms", opt_num(g.timeout_ms)),
                ("conflict_budget", opt_num(g.conflict_budget)),
                ("retries", opt_num(g.retries.map(u64::from))),
            ]),
        ),
        ("status", Json::str(status)),
        (
            "rows",
            Json::Arr(records.iter().flat_map(|r| &r.rows).map(Row::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(file, doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write {file}: {e}");
    }
}

/// Render rows as a text table with aligned columns.
fn render_table(headers: &[String; 5], rows: &[[String; 5]]) -> String {
    let mut widths = headers.clone().map(|h| h.len());
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String; 5]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:w$}"))
            .collect();
        padded.join("  ").trim_end().to_string() + "\n"
    };
    let mut out = line(headers);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// Render rows as CSV, quoting cells that hold a comma or a quote.
fn render_csv(headers: &[String; 5], rows: &[[String; 5]]) -> String {
    let line = |cells: &[String; 5]| {
        let quoted: Vec<String> = cells
            .iter()
            .map(|c| {
                if c.contains([',', '"']) {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        quoted.join(",") + "\n"
    };
    std::iter::once(headers).chain(rows).map(line).collect()
}

/// E1 — Figs. 1–3: the strict goal tables conflict; the core blames
/// exactly the ban and the backend→frontend:23 goal.
fn e1(r: &mut Record) {
    const INST: &str = "fig2+fig3";
    let mv = vocab();
    let (_, rec, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig3),
        |s| s.reconcile(ReconcileMode::Blameable).unwrap(),
    );
    if let Some(ex) = &rec.exhausted {
        return r.exhausted(INST, ex);
    }
    assert!(!rec.success);
    r.text(INST, "reconcile verdict", "UNSAT", "UNSAT (conflict)");
    r.num(INST, "minimal core size", rec.core.len() as f64, "goals", "2 (ban vs goal row 2)");
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// E2 — Fig. 4: relaxation makes synthesis succeed; every goal verifies
/// against the delivered configurations.
fn e2(r: &mut Record) {
    const INST: &str = "fig2+fig4";
    let mv = vocab();
    let (s, rec, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig4),
        |s| s.reconcile(ReconcileMode::HardBounds).unwrap(),
    );
    if let Some(ex) = &rec.exhausted {
        return r.exhausted(INST, ex);
    }
    assert!(rec.success);
    let mut combined = s.structure().clone();
    for c in rec.configs.values() {
        combined = combined.union(c);
    }
    let verified = s.check_goals(&combined).into_iter().all(|(_, h)| h);
    r.text(INST, "synthesis verdict", "SAT", "SAT (relaxed goals)");
    r.text(INST, "goals verified", verified, "true");
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// The number of top-level disjuncts under an envelope predicate's
/// universal quantifiers, with the quantifier count.
fn envelope_shape(mut f: &Formula) -> (usize, usize) {
    let mut quantifiers = 0;
    while let Formula::Forall(_, _, body) = f {
        quantifiers += 1;
        f = body;
    }
    let disjuncts = match f {
        Formula::Or(ds) => ds.len(),
        _ => 1,
    };
    (disjuncts, quantifiers)
}

/// E3 — Fig. 5: the envelope has exactly the paper's five disjunct
/// families and reveals only port 23.
fn e3(r: &mut Record) {
    const INST: &str = "E_{k8s->istio}";
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let (env, d) = timed_median(REPS, || {
        s.compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap()
    });
    let (disjuncts, quantifiers) = envelope_shape(&env.predicates[0].formula);
    r.num(INST, "predicates", env.predicates.len() as f64, "", "1");
    r.num(INST, "universal quantifiers", quantifiers as f64, "", "2 (src; dst)");
    r.num(INST, "disjunct families", disjuncts as f64, "", "5 (Fig. 5)");
    let revealed = env.leakage(s.universe()).revealed_atoms;
    r.text(INST, "atoms revealed", format!("{revealed:?}"), "only port 23");
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// E4 — Sec. 5: the latency sweep. Modest (paper-scale) rows must stay
/// under 1 second.
fn e4(r: &mut Record) {
    for &n in &[3usize, 6, 12, 24, 48] {
        let scenario = generate(ScenarioParams {
            services: n,
            istio_goals: n,
            k8s_goals: 1,
            conflict_fraction: 0.0,
            ..ScenarioParams::default()
        });
        let reps = if n >= 24 { 3 } else { REPS };
        let inst = format!("{n} services");
        let expect = if n <= 8 {
            "< 1000 (modest)"
        } else {
            "graceful growth"
        };

        let (_, lc, d) = timed_fresh(
            reps,
            || scenario.session(false),
            |s| s.local_consistency(scenario.mv.istio_party).unwrap(),
        );
        if let Some(ex) = &lc.exhausted {
            r.exhausted(&inst, ex);
            continue;
        }
        assert!(lc.ok);
        r.num(&inst, "local consistency", ms(d), "ms", expect);
        let (sess, rec, d) = timed_fresh(
            reps,
            || scenario.session(false),
            |s| s.reconcile(ReconcileMode::HardBounds).unwrap(),
        );
        if let Some(ex) = &rec.exhausted {
            r.exhausted(&inst, ex);
            continue;
        }
        assert!(rec.success);
        r.num(&inst, "reconcile+synthesize", ms(d), "ms", expect);
        let growth = "grows with |Svc|²·|Port|";
        r.num(&inst, "free tuple vars", rec.stats.free_tuple_vars as f64, "", growth);
        r.num(&inst, "conflicts", rec.stats.conflicts as f64, "", "-");
        let (_, d) = timed_median(reps, || {
            sess.compute_envelope(
                scenario.mv.k8s_party,
                scenario.mv.istio_party,
                &Instance::new(),
            )
            .unwrap()
        });
        r.num(&inst, "envelope", ms(d), "ms", expect);
        if n <= 8 {
            assert!(d < Duration::from_secs(1), "modest scenario over budget");
        }
    }
    // A multi-tenant variant: 12 services over 3 namespaces with
    // namespace-scoped bans (the Sec. 1 motivation shape).
    const INST: &str = "12 services, 3 namespaces";
    let scenario = generate(ScenarioParams {
        services: 12,
        istio_goals: 12,
        k8s_goals: 3,
        namespaces: 3,
        conflict_fraction: 0.0,
        ..ScenarioParams::default()
    });
    let (_, rec, d) = timed_fresh(
        3,
        || scenario.session(false),
        |s| s.reconcile(ReconcileMode::HardBounds).unwrap(),
    );
    if let Some(ex) = &rec.exhausted {
        return r.exhausted(INST, ex);
    }
    assert!(rec.success);
    r.num(INST, "reconcile+synthesize", ms(d), "ms", "graceful growth");
}

/// E5 — Fig. 6 baseline: same verdicts, no localization, and the cost
/// premium Muppet pays for blame.
fn e5(r: &mut Record) {
    const INST: &str = "fig2+fig3";
    let mv = vocab();
    let fig3 = || session(&mv, IstioTable::Fig3);
    let (_, b, db) = timed_fresh(REPS, fig3, baseline::monolithic_synthesis);
    let b = match b {
        Err(ex @ MuppetError::Exhausted { .. }) => return r.exhausted(INST, ex),
        b => b.unwrap(),
    };
    let (_, m, dm) = timed_fresh(REPS, fig3, |s| s.reconcile(ReconcileMode::Blameable).unwrap());
    if let Some(ex) = &m.exhausted {
        return r.exhausted(INST, ex);
    }
    assert_eq!(b.success, m.success);
    r.text(INST, "baseline verdict", "UNSAT", "UNSAT; no information");
    r.text(INST, "baseline core", "(none)", "opaque failure");
    r.num(INST, "muppet core", m.core.len() as f64, "goals", "2 goals blamed");
    r.num(INST, "baseline time", ms(db), "ms", "-");
    r.num(INST, "muppet time", ms(dm), "ms", "small premium for blame");
}

/// E6 — Fig. 7 conformance workflow episodes.
fn e6(r: &mut Record) {
    let mv = vocab();
    let preferred = mv.structure_instance();
    const STRICT: &str = "strict tenant";
    let (_, report, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig3),
        |s| run_conformance(s, mv.k8s_party, mv.istio_party, Some(&preferred)).unwrap(),
    );
    if let Some(phase) = report.exhausted {
        return r.exhausted(STRICT, format!("phase {phase}"));
    }
    assert!(!report.success);
    let distance = report.counter_offer_distance.expect("a rejected tenant gets a counter-offer");
    r.text(STRICT, "outcome", "rejected", "tenant must revise");
    r.num(STRICT, "counter-offer distance", distance as f64, "edits", "1 edit");
    r.num(STRICT, "time", ms(d), "ms", "< 1000");

    const RELAXED: &str = "relaxed tenant";
    let (_, report, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig4),
        |s| run_conformance(s, mv.k8s_party, mv.istio_party, None).unwrap(),
    );
    if let Some(phase) = report.exhausted {
        return r.exhausted(RELAXED, format!("phase {phase}"));
    }
    assert!(report.success, "the relaxed tenant conforms");
    r.text(RELAXED, "outcome", "conforming config", "success");
    r.num(RELAXED, "time", ms(d), "ms", "< 1000");
}

/// E7 — Fig. 8 minimal edits: distance of the counter-offer vs free
/// resynthesis.
fn e7(r: &mut Record) {
    const INST: &str = "paper deployment";
    let mv = vocab();
    let env = session(&mv, IstioTable::Fig3)
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    let target = mv.structure_instance();
    let (_, (out, dist), d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig3),
        |s| s.minimal_edit(mv.istio_party, &env, &target).unwrap(),
    );
    if let muppet_solver::Outcome::Unknown { phase, stats, .. } = &out {
        return r.exhausted(INST, format!("phase {phase}; {stats}"));
    }
    assert!(out.is_sat());
    r.num(INST, "minimal edit distance", dist as f64, "tuples", "1 tuple");
    r.num(INST, "target-oriented time", ms(d), "ms", "< 1000");

    let (s4, out, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig4),
        |s| s.synthesize_against(mv.istio_party, &env).unwrap(),
    );
    let free_dist = out
        .solution()
        .map(|sol| {
            sol.restrict_to_domain(s4.vocab(), muppet_logic::Domain::Party(mv.istio_party))
                .distance(&target)
        })
        .unwrap_or(0);
    r.num(INST, "free synthesis distance", free_dist as f64, "tuples", ">= minimal edit");
    r.num(INST, "free synthesis time", ms(d), "ms", "-");
}

/// E8 — Fig. 9 negotiation: rounds to convergence vs conflict count.
fn e8(r: &mut Record) {
    for &bans in &[1usize, 2, 3] {
        let scenario = generate(ScenarioParams {
            services: 6,
            istio_goals: 8,
            k8s_goals: bans,
            conflict_fraction: 1.0,
            seed: 7,
            ..ScenarioParams::default()
        });
        let conflicts = scenario.conflicting_ports().len();
        let inst = format!("{bans} ban(s); {conflicts} conflict(s)");
        // Each episode runs on its own session; rounds within one
        // episode may recall answers, as the negotiation does.
        let (report, d) = timed_median(3, || {
            let mut sess = scenario.session(true);
            govern(&mut sess);
            let mut negs: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> = BTreeMap::new();
            negs.insert(scenario.mv.k8s_party, Box::new(Stubborn));
            negs.insert(scenario.mv.istio_party, Box::new(DropBlamedSoftGoals));
            run_negotiation(&mut sess, &mut negs, 40, Schedule::RoundRobin).unwrap()
        });
        if let Some(phase) = report.exhausted {
            return r.exhausted(&inst, format!("phase {phase}"));
        }
        assert!(report.success, "the negotiation converges");
        r.num(&inst, "rounds to agreement", report.rounds as f64, "rounds", "grows with conflicts");
        r.num(&inst, "time", ms(d), "ms", "< 1000 per episode");
    }
}

/// X1 — Sec. 7 extension: learned envelopes (opaque-goal oracle) agree
/// with the syntactic Alg. 3 envelope.
fn x1(r: &mut Record) {
    use muppet::learn::{learn_envelope, Scope};
    const INST: &str = "8-tuple scope";
    let mv = vocab();
    let fe = mv.svc_atom("test-frontend").unwrap();
    let be = mv.svc_atom("test-backend").unwrap();
    let db = mv.svc_atom("test-db").unwrap();
    let p23 = mv.port_atom(23).unwrap();
    let scope = Scope::new(vec![
        (mv.listens, vec![fe, p23]),
        (mv.istio_eg_deny, vec![fe, p23]),
        (mv.istio_eg_deny, vec![be, p23]),
        (mv.istio_eg_deny, vec![db, p23]),
        (mv.istio_in_guard, vec![fe]),
        (mv.istio_in_deny, vec![fe, fe]),
        (mv.istio_in_deny, vec![fe, be]),
        (mv.istio_in_deny, vec![fe, db]),
    ]);
    let (s, learned, d) = timed_fresh(
        3,
        || session(&mv, IstioTable::Fig3),
        |s| learn_envelope(s, mv.k8s_party, &Instance::new(), mv.istio_party, &scope, 128),
    );
    let learned = match learned {
        Err(ex @ MuppetError::Exhausted { .. }) => return r.exhausted(INST, ex),
        learned => learned.unwrap(),
    };
    assert!(learned.complete);
    let syntactic = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    let mut agree = 0u32;
    for mask in 0..(1u32 << scope.len()) {
        let mut config = Instance::new();
        for (bit, (rel, tuple)) in scope.tuples.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                config.insert(*rel, tuple.clone());
            }
        }
        if learned.check(&config) == syntactic.check(&config, s.universe()).is_empty() {
            agree += 1;
        }
    }
    r.num(INST, "prime implicant cubes", learned.cubes.len() as f64, "", "few, general");
    r.num(INST, "solver queries", learned.queries as f64, "", "≪ 2^8 configs");
    r.text(
        INST,
        "agreement with Alg. 3",
        format!("{agree}/256"),
        "256/256 (both are the envelope)",
    );
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// X2 — Sec. 7 extension: mTLS/PeerAuthentication adds a sixth escape
/// hatch to the Fig. 5 envelope.
fn x2(r: &mut Record) {
    use muppet_goals::K8sGoal;
    use muppet_mesh::{Mesh, MeshVocab, Service};
    const INST: &str = "mTLS extension on";
    let mut mesh = Mesh::paper_example();
    mesh.add_service(Service::new("legacy-batch", [9000]).without_sidecar());
    let mv = MeshVocab::new_with_features(
        &mesh,
        [24, 26, 10000, 14000],
        muppet_logic::PartyId(0),
        muppet_logic::PartyId(1),
        true,
    );
    let ban = K8sGoal::parse_csv("23,DENY,*\n").unwrap();
    let session = muppet_domain::mesh::session(&mv, &ban, &[], None).unwrap();
    let (env, d) = timed_median(REPS, || {
        session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap()
    });
    let (disjuncts, _) = envelope_shape(&env.predicates[0].formula);
    r.num(INST, "disjunct families", disjuncts as f64, "", "6 (Fig. 5 + mTLS)");
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// X3 — Sec. 7 extension: why-not explanation of the deployed
/// configuration against the Fig. 5 envelope, from a fresh session
/// (envelope extraction plus the explanation).
fn x3(r: &mut Record) {
    use muppet::explain::explain_predicate;
    const INST: &str = "paper deployment";
    let mv = vocab();
    let deployment = mv.structure_instance();
    let (_, explanation, d) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig3),
        |s| {
            let env = s
                .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
                .unwrap();
            explain_predicate(&env.predicates[0], &deployment, s.vocab(), s.universe(), 10)
        },
    );
    assert!(!explanation.holds, "the deployment violates the Fig. 5 envelope");
    r.text(INST, "envelope holds", explanation.holds, "false (port 23 reachable)");
    r.num(INST, "violating witnesses", explanation.witnesses.len() as f64, "", ">= 1");
    r.num(INST, "time", ms(d), "ms", "< 1000");
}

/// A1 — envelope simplification ablation.
fn a1(r: &mut Record) {
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let senders = [(mv.k8s_party, Instance::new())];
    let on = s
        .compute_multi_envelope_opt(&senders, mv.istio_party, true)
        .unwrap();
    let off = s
        .compute_multi_envelope_opt(&senders, mv.istio_party, false)
        .unwrap();
    let lk_on = on.leakage(s.universe());
    let lk_off = off.leakage(s.universe());
    r.num("simplify=on", "formula size", lk_on.formula_size as f64, "nodes", "smaller");
    r.num("simplify=off", "formula size", lk_off.formula_size as f64, "nodes", "larger");
    let revealed = "atoms revealed";
    r.num("simplify=on", revealed, lk_on.revealed_atoms.len() as f64, "", "<= unsimplified");
    r.num("simplify=off", revealed, lk_off.revealed_atoms.len() as f64, "", "-");
}

/// A2 — core minimization on a many-goal conflict: the minimal core's
/// size and the time to reach it.
fn a2(r: &mut Record) {
    use muppet_logic::PartialInstance;
    use muppet_solver::{FormulaGroup, IncrementalQuery, Outcome};
    const INST: &str = "10-goal conflict";
    let scenario = generate(ScenarioParams {
        services: 8,
        istio_goals: 10,
        k8s_goals: 2,
        conflict_fraction: 1.0,
        seed: 11,
        ..ScenarioParams::default()
    });
    let sess = scenario.session(false);
    let axioms = FormulaGroup::new("axioms", sess.axioms().to_vec());
    let groups: Vec<FormulaGroup> = std::iter::once(axioms)
        .chain(sess.parties().iter().flat_map(|p| {
            p.goals
                .iter()
                .map(|g| FormulaGroup::new(g.name.clone(), vec![g.formula.clone()]))
        }))
        .collect();
    let free: Vec<_> = scenario
        .mv
        .k8s_rels()
        .into_iter()
        .chain(scenario.mv.istio_rels())
        .collect();
    let run = || {
        let mut q = IncrementalQuery::new(
            sess.vocab(),
            sess.universe(),
            &free,
            &PartialInstance::new(),
            Instance::new(),
        );
        match q.solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Unsat { core, .. } => core.len(),
            other => panic!("expected conflict, got {other:?}"),
        }
    };
    let (min_size, d_min) = timed_median(3, run);
    r.num(INST, "minimized core size", min_size as f64, "goals", "minimal");
    r.num(INST, "minimized time", ms(d_min), "ms", "-");
}

/// A3 — bounds tightness ablation: free-variable counts and solve time.
fn a3(r: &mut Record) {
    use muppet_logic::PartialInstance;
    use muppet_solver::{FormulaGroup, IncrementalQuery};
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig4);
    let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success);
    let mut tight = PartialInstance::new();
    for rel in mv.istio_rels().into_iter().chain(mv.k8s_rels()) {
        tight.bound(rel);
        for cfg in rec.configs.values() {
            for tuple in cfg.tuples(rel) {
                tight.permit(rel, tuple.clone());
            }
        }
    }
    let axioms = FormulaGroup::new("axioms", s.axioms().to_vec());
    let groups: Vec<FormulaGroup> = std::iter::once(axioms)
        .chain(s.parties().iter().flat_map(|p| {
            p.goals
                .iter()
                .map(|g| FormulaGroup::new(g.name.clone(), vec![g.formula.clone()]))
        }))
        .collect();
    let free: Vec<_> = mv.istio_rels().into_iter().chain(mv.k8s_rels()).collect();
    let run = |bounds: PartialInstance| {
        let mut q = IncrementalQuery::new(s.vocab(), s.universe(), &free, &bounds, Instance::new());
        match q.solve(&groups, Budget::unlimited()).unwrap() {
            muppet_solver::Outcome::Sat { stats, .. } => stats.free_tuple_vars,
            _ => panic!("expected SAT"),
        }
    };
    let (vars_loose, d_loose) = timed_median(REPS, || run(PartialInstance::new()));
    let (vars_tight, d_tight) = timed_median(REPS, || run(tight.clone()));
    const LOOSE: &str = "holes (unbounded)";
    const TIGHT: &str = "tight upper bounds";
    r.num(LOOSE, "free tuple vars", vars_loose as f64, "", "large");
    r.num(TIGHT, "free tuple vars", vars_tight as f64, "", "small");
    r.num(LOOSE, "time", ms(d_loose), "ms", "-");
    r.num(TIGHT, "time", ms(d_tight), "ms", "<= unbounded");
}

/// D1 — daemon mode: warm sessions + the content-addressed result
/// cache. Drives the `muppetd` engine in-process (no sockets, so the
/// numbers isolate the caching layers) and measures a cold conformance
/// solve against cached hits.
fn d1(r: &mut Record) {
    use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};
    const INST: &str = "paper (fig4)";

    let engine = Engine::new(EngineConfig::default());
    let spec = SessionSpec::paper_relaxed();

    // Cold: load + ground + encode + solve.
    let t0 = Instant::now();
    let cold = engine.handle(&Request::new(Op::CheckConformance).with_spec(spec.clone()), None);
    let cold_us = t0.elapsed().as_micros().max(1) as u64;
    assert!(cold.ok, "daemon conformance failed: {:?}", cold.error);
    assert!(!cold.cached);

    // Cached: the identical request, median of several hits.
    let mut hits = Vec::new();
    for _ in 0..9 {
        let t1 = Instant::now();
        let hit = engine.handle(&Request::new(Op::CheckConformance).with_spec(spec.clone()), None);
        hits.push(t1.elapsed().as_micros().max(1) as u64);
        assert!(hit.cached, "repeat request must hit the cache");
    }
    hits.sort_unstable();
    let hit_us = hits[hits.len() / 2];
    let speedup = cold_us as f64 / hit_us as f64;

    // Warm-session effect: a reconcile on the same session reuses the
    // already-loaded core (no re-parse), and repeat reconciles reuse
    // encoded groups.
    let strict = SessionSpec::paper_strict();
    let r1 = engine.handle(&Request::new(Op::Reconcile).with_spec(strict.clone()), None);
    assert!(r1.ok && r1.result.get("success").and_then(Json::as_bool) == Some(false));
    let r2 = engine.handle(&Request::new(Op::Reconcile).with_spec(spec.clone()), None);
    assert!(r2.ok && r2.result.get("success").and_then(Json::as_bool) == Some(true));

    // Cached-hit throughput over a short burst.
    let burst = 500u64;
    let t2 = Instant::now();
    for _ in 0..burst {
        let hit = engine.handle(&Request::new(Op::CheckConformance).with_spec(spec.clone()), None);
        assert!(hit.cached);
    }
    let rps = burst as f64 / t2.elapsed().as_secs_f64().max(1e-9);

    r.num(INST, "cold conformance", cold_us as f64 / 1e3, "ms", "-");
    r.num(INST, "cached hit", hit_us as f64 / 1e3, "ms", "-");
    r.num(INST, "cache speedup", speedup, "x", ">= 10x");
    r.num(INST, "cached throughput", rps, "req/s", "-");
    let stats = engine.stats_json();
    for key in ["requests", "errors", "sessions", "cache", "warm_groups"] {
        if let Some(v) = stats.get(key) {
            r.leaves("daemon stats", key, v);
        }
    }
    assert!(
        speedup >= 10.0,
        "cache hit must be >= 10x faster than cold: cold {cold_us}us vs hit {hit_us}us"
    );
}

/// R1 — the robustness / chaos lane (DESIGN.md §14). Runs a real
/// socket daemon with deliberately tiny overload limits and drives it
/// past them while misbehaving clients share the socket:
///
/// - *good* clients issue conformance checks through the retrying
///   [`muppet_daemon::Endpoint::roundtrip_retry`] path and must all
///   reach the sequential-oracle verdict (zero wrong verdicts, ever);
/// - *flooding* clients pipeline far past the per-connection cap
///   without reading, and every pipelined request must still receive
///   exactly one response (shed or terminal), correlated by id;
/// - *vanishing* clients disconnect with requests in flight
///   (exercising per-connection cancel tokens);
/// - *malformed* clients send garbage frames and partial lines;
/// - a *stalling* client writes half a request line and hangs, and the
///   server must kill it at the read timeout (slow-loris);
/// - with `--features fault-inject`, global failpoints force solver
///   exhaustion and worker panics mid-burst.
///
/// Finally the server drains: `stop()` plus `wait()` must return
/// within the drain deadline (+ scheduling slack) even with work in
/// flight.
fn r1(r: &mut Record) {
    use muppet_daemon::{
        serve, Endpoint, Engine, EngineConfig, Op, OverloadConfig, Request, RetryPolicy,
        ServerConfig, SessionSpec,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const GOOD_CLIENTS: usize = 4;
    const VARIANTS: usize = 8;
    const FLOODERS: usize = 2;
    const PIPELINED: usize = 8;

    // Distinct extra ports give distinct fingerprints, so every variant
    // is a real cold solve the first time the daemon sees it — cache
    // hits would sidestep the queue and nothing would ever overload.
    let variant = |port: u16| -> SessionSpec {
        let mut s = SessionSpec::paper_relaxed();
        s.extra_ports.push(port);
        s
    };
    let variants: Vec<SessionSpec> = (0..VARIANTS).map(|i| variant(40_000 + i as u16)).collect();

    // Sequential oracle: the same engine code, in-process, one request
    // at a time, no admission control in the way.
    let oracle = Engine::new(EngineConfig::default());
    let expected: Vec<bool> = variants
        .iter()
        .map(|s| {
            let r = oracle.handle(&Request::new(Op::CheckConformance).with_spec(s.clone()), None);
            assert!(r.ok, "oracle conformance failed: {:?}", r.error);
            r.result
                .get("success")
                .and_then(Json::as_bool)
                .expect("oracle verdict")
        })
        .collect();

    // Tiny limits so a test-sized burst genuinely trips admission.
    let overload = OverloadConfig {
        max_queue_depth: 4,
        max_inflight_per_conn: 2,
        retry_after_ms: 10,
        drain_deadline_ms: 3_000,
        read_timeout_ms: 500,
    };
    let sock = std::env::temp_dir().join(format!("muppet-r1-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let handle = serve(ServerConfig {
        socket: Some(sock.clone()),
        tcp: None,
        workers: 2,
        engine: EngineConfig::default(),
        overload,
    })
    .expect("serve");
    let ep = Endpoint::Unix(sock.clone());
    let io_timeout = Some(Duration::from_secs(30));

    let wrong = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let attempts_total = Arc::new(AtomicU64::new(0));
    let unanswered = Arc::new(AtomicU64::new(0));
    let shed_seen = Arc::new(AtomicU64::new(0));

    // Phase 1: everyone at once.
    let mut threads = Vec::new();
    for c in 0..GOOD_CLIENTS {
        let (ep, variants, expected) = (ep.clone(), variants.clone(), expected.clone());
        let (wrong, completed, attempts_total) =
            (wrong.clone(), completed.clone(), attempts_total.clone());
        threads.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                attempts: 12,
                base_delay: Duration::from_millis(5),
                deadline: Duration::from_secs(30),
                jitter_seed: Some(c as u64 + 1),
                ..RetryPolicy::default()
            };
            for (i, spec) in variants.iter().enumerate() {
                let req = Request::new(Op::CheckConformance).with_spec(spec.clone());
                let report = ep
                    .roundtrip_retry(&req, io_timeout, &policy)
                    .expect("good client transport error");
                attempts_total.fetch_add(report.attempts as u64, Ordering::Relaxed);
                let resp = report.response;
                if resp.overloaded {
                    // Retry budget ran out while the daemon was
                    // shedding: no verdict, but also no wrong verdict.
                    continue;
                }
                completed.fetch_add(1, Ordering::Relaxed);
                let verdict = resp.result.get("success").and_then(Json::as_bool);
                if !resp.ok || verdict != Some(expected[i]) {
                    wrong.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for f in 0..FLOODERS {
        let (ep, unanswered, shed_seen) = (ep.clone(), unanswered.clone(), shed_seen.clone());
        let spec_base = 41_000 + (f * PIPELINED) as u16;
        threads.push(std::thread::spawn(move || {
            // Pipeline far past the per-connection cap without reading;
            // every request must still get exactly one response.
            let mut client = ep.connect(io_timeout).expect("flooder connect");
            let mut want: std::collections::BTreeMap<String, ()> = Default::default();
            for k in 0..PIPELINED {
                let mut req =
                    Request::new(Op::CheckConformance).with_spec(variant(spec_base + k as u16));
                req.id = Some(format!("flood-{f}-{k}"));
                want.insert(req.id.clone().unwrap(), ());
                client.send(&req).expect("flooder send");
            }
            for _ in 0..PIPELINED {
                match client.recv() {
                    Ok(resp) => {
                        if resp.overloaded {
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                            assert!(
                                resp.retry_after_ms.is_some(),
                                "shed responses must carry retry_after_ms"
                            );
                        }
                        if let Some(id) = resp.id {
                            want.remove(&id);
                        }
                    }
                    Err(_) => break,
                }
            }
            unanswered.fetch_add(want.len() as u64, Ordering::Relaxed);
        }));
    }
    // Vanishing clients: requests in flight, then a dead socket.
    for v in 0..2u16 {
        let ep = ep.clone();
        threads.push(std::thread::spawn(move || {
            if let Ok(mut client) = ep.connect(io_timeout) {
                let mut req = Request::new(Op::CheckConformance).with_spec(variant(42_000 + v));
                req.id = Some(format!("vanish-{v}"));
                let _ = client.send(&req);
                // Drop without reading: the reader must cancel the
                // in-flight request and the worker must not write to a
                // dead socket in any harmful way.
            }
        }));
    }
    // Malformed frames: parse failures must answer, not kill the server.
    {
        let ep = ep.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = ep.connect(io_timeout).expect("malformed connect");
            for frame in ["{\"op\":", "nonsense", "[1,2,3]", "{\"op\":\"no_such_op\"}"] {
                client.send_raw(frame).expect("malformed send");
                let resp = client.recv().expect("malformed frames still get responses");
                assert!(!resp.ok, "garbage must not succeed: {frame}");
            }
        }));
    }
    for th in threads {
        th.join().expect("chaos thread panicked");
    }

    // Phase 2: slow-loris. Half a request line, then silence — the
    // server must kill the connection at the read timeout instead of
    // pinning a reader thread forever.
    let stall_killed = {
        use std::io::{Read as _, Write as _};
        let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("stall connect");
        raw.write_all(b"{\"op\":\"stats\"").expect("stall write");
        raw.flush().ok();
        raw.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let t0 = Instant::now();
        let mut buf = Vec::new();
        // The server writes one failure line, then closes; read_to_end
        // returns once the close lands.
        let got = raw.read_to_end(&mut buf);
        let line = String::from_utf8_lossy(&buf).to_string();
        got.is_ok()
            && line.contains("read timeout")
            && t0.elapsed() < Duration::from_secs(4)
    };

    // Phase 3: injected solver faults (needs --features fault-inject).
    #[cfg(feature = "fault-inject")]
    let (fault_exhausted_terminal, fault_panic_terminal) = {
        use muppet_solver::fault::{ArmedGlobal, Mode};
        use muppet_solver::Phase;
        let exhausted = {
            let _g = ArmedGlobal::new(Phase::Search, 2, Mode::Exhaust);
            let mut all_terminal = true;
            for i in 0..3u16 {
                let req = Request::new(Op::CheckConformance).with_spec(variant(43_000 + i));
                // Any response is fine — exhausted, error, or success —
                // as long as one terminal line comes back.
                all_terminal &= ep.roundtrip(&req, io_timeout).is_ok();
            }
            all_terminal
        };
        let panicked = {
            let _g = ArmedGlobal::new(Phase::Ground, 1, Mode::Panic);
            let req = Request::new(Op::CheckConformance).with_spec(variant(43_100));
            // Grounding runs on a daemon worker thread; the injected
            // panic must surface as an error response, not a hang.
            matches!(ep.roundtrip(&req, io_timeout), Ok(r) if !r.ok)
        };
        // Disarmed again: the daemon still answers correctly.
        let r = ep
            .roundtrip(
                &Request::new(Op::CheckConformance).with_spec(variants[0].clone()),
                io_timeout,
            )
            .expect("post-fault roundtrip");
        assert_eq!(
            r.result.get("success").and_then(Json::as_bool),
            Some(expected[0]),
            "daemon must recover fully once faults are disarmed"
        );
        (exhausted, panicked)
    };
    #[cfg(not(feature = "fault-inject"))]
    let (fault_exhausted_terminal, fault_panic_terminal) = (true, true);

    // Overload counters as the daemon reports them (`stats` op).
    let stats = ep
        .roundtrip(&Request::new(Op::Stats), io_timeout)
        .expect("stats roundtrip");
    let overload_stats = stats.result.get("overload").cloned().unwrap_or(Json::Null);

    // Phase 4: graceful drain with work still in flight. Park fresh
    // requests in the queue, never read them, then stop: wait() must
    // come back within the drain deadline plus scheduling slack.
    let mut parked = ep.connect(io_timeout).expect("drain connect");
    for i in 0..2u16 {
        let mut req = Request::new(Op::CheckConformance).with_spec(variant(44_000 + i));
        req.id = Some(format!("drain-{i}"));
        parked.send(&req).expect("drain send");
    }
    let t_drain = Instant::now();
    handle.stop();
    handle.wait();
    let drain_ms = ms(t_drain.elapsed());
    drop(parked);
    let _ = std::fs::remove_file(&sock);

    let total_good = (GOOD_CLIENTS * VARIANTS) as u64;
    let wrong = wrong.load(Ordering::Relaxed);
    let completed = completed.load(Ordering::Relaxed);
    let attempts = attempts_total.load(Ordering::Relaxed);
    let unanswered = unanswered.load(Ordering::Relaxed);
    let sheds = shed_seen.load(Ordering::Relaxed);
    let drain_budget_ms = (overload.drain_deadline_ms + 2_000) as f64;

    let inst = "paper conformance variants under chaos";
    r.num(inst, "good-client requests", total_good as f64, "", "-");
    r.num(inst, "completed with a verdict", completed as f64, "", "-");
    r.num(inst, "wrong verdicts", wrong as f64, "", "0");
    r.num(inst, "retry attempts (total)", attempts as f64, "", ">= requests");
    r.num(inst, "pipelined requests unanswered", unanswered as f64, "", "0");
    r.num(inst, "sheds observed by flooders", sheds as f64, "", ">= 1");
    r.text(inst, "slow-loris killed at timeout", stall_killed, "true");
    r.text(inst, "fault injection compiled", cfg!(feature = "fault-inject"), "-");
    r.text(inst, "fault: exhaustion stays terminal", fault_exhausted_terminal, "true");
    r.text(inst, "fault: worker panic answered", fault_panic_terminal, "true");
    r.num(inst, "drain wall", drain_ms, "ms", &format!("<= {drain_budget_ms:.0}"));
    r.leaves(inst, "overload", &overload_stats);

    assert_eq!(wrong, 0, "chaos must never produce a wrong verdict");
    assert!(
        completed >= total_good.saturating_sub(2),
        "almost every retried request must reach a verdict: {completed}/{total_good}"
    );
    assert_eq!(unanswered, 0, "every pipelined request must be answered");
    assert!(sheds >= 1, "the flood must trip admission control at least once");
    assert!(stall_killed, "the stalling connection must die at the read timeout");
    assert!(fault_exhausted_terminal && fault_panic_terminal, "faults must stay terminal");
    assert!(
        drain_ms <= drain_budget_ms,
        "drain took {drain_ms:.0} ms, budget {drain_budget_ms:.0} ms"
    );
}

/// O1 — the observability lane (DESIGN.md §12). Three honest checks:
///
/// 1. *Traced scenarios*: the paper tables run end-to-end with
///    tracing on and a [`muppet_obs::PhaseAccumulator`] registered;
///    the profiler must see every solve phase (`ground` → `encode` →
///    `search`) and the per-phase totals become rows.
/// 2. *Schema validation*: every span tree in the ring round-trips
///    through the daemon's hardened JSON parser and carries the
///    `name`/`start_us`/`elapsed_us`/`counters`/`attrs` fields at
///    every node.
/// 3. *Overhead gate*: the disabled-tracing span call is
///    micro-benched (it must cost one relaxed atomic load); the
///    implied per-solve overhead against an untraced paper reconcile
///    must stay ≤ 2%.
fn o1(r: &mut Record) {
    use muppet_daemon::json::parse;
    const SCENARIOS: &str = "paper scenarios";

    // 1. Traced scenario set: the paper tables, end to end. The span
    // ring is process-wide and may hold earlier lanes' trees, so count
    // the root spans these solves close: those are the trees to check.
    let mv = vocab();
    let roots = Arc::new(AtomicUsize::new(0));
    let (exhausted, totals) = profiled(|| {
        let own = Arc::clone(&roots);
        muppet_obs::on_span_close(move |e| {
            if e.depth == 0 {
                own.fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut strict = session(&mv, IstioTable::Fig3);
        govern(&mut strict);
        let rec = strict.reconcile(ReconcileMode::Blameable).unwrap();
        if rec.exhausted.is_some() {
            return rec.exhausted;
        }
        assert!(!rec.success, "strict paper tables must conflict");
        let mut relaxed = session(&mv, IstioTable::Fig4);
        govern(&mut relaxed);
        let rec = relaxed.reconcile(ReconcileMode::HardBounds).unwrap();
        if rec.exhausted.is_some() {
            return rec.exhausted;
        }
        assert!(rec.success, "relaxed paper tables must synthesize");
        let lc = relaxed.local_consistency(mv.istio_party).unwrap();
        if lc.exhausted.is_some() {
            return lc.exhausted;
        }
        assert!(lc.ok);
        strict
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        None
    });
    if let Some(ex) = exhausted {
        return r.exhausted(SCENARIOS, ex);
    }
    for phase in ["reconcile", "ground", "encode", "search"] {
        assert!(totals.contains_key(phase), "profiler must see phase {phase:?}");
    }

    // 2. Schema validation through the daemon's own JSON parser.
    let traces = muppet_obs::recent_traces(roots.load(Ordering::Relaxed));
    assert!(!traces.is_empty(), "traced run must record span trees");
    fn validate(node: &Json, validated: &mut u64) {
        for key in ["name", "start_us", "elapsed_us", "counters", "attrs"] {
            assert!(node.get(key).is_some(), "span node missing {key:?}");
        }
        assert!(node.get("name").unwrap().as_str().is_some(), "name is a string");
        assert!(node.get("elapsed_us").unwrap().as_u64().is_some(), "elapsed_us is integral");
        *validated += 1;
        if let Some(children) = node.get("children").and_then(Json::as_arr) {
            for child in children {
                validate(child, validated);
            }
        }
    }
    let mut spans_validated = 0u64;
    for tree in &traces {
        let parsed = parse(&tree.to_json()).expect("span tree must serialize to valid JSON");
        validate(&parsed, &mut spans_validated);
    }
    let spans_per_solve = traces
        .iter()
        .find(|tr| tr.name == "reconcile")
        .map(|tr| tr.span_count() as u64)
        .expect("ring must hold a reconcile trace");

    // 3. Overhead gate: with tracing disabled a span call is one
    // relaxed atomic load + an inert guard drop.
    let was_enabled = muppet_obs::tracing_enabled();
    muppet_obs::set_enabled(false);
    let probes = 4_000_000u64;
    let t0 = Instant::now();
    for _ in 0..probes {
        drop(std::hint::black_box(muppet_obs::span("overhead-probe")));
    }
    let disabled_ns = t0.elapsed().as_nanos() as f64 / probes as f64;
    let (_, rec, d_solve) = timed_fresh(
        REPS,
        || session(&mv, IstioTable::Fig4),
        |s| s.reconcile(ReconcileMode::HardBounds).unwrap(),
    );
    muppet_obs::set_enabled(was_enabled);
    assert!(rec.success);
    let overhead_pct =
        spans_per_solve as f64 * disabled_ns / (d_solve.as_secs_f64() * 1e9).max(1.0) * 100.0;

    r.phases(SCENARIOS, &totals);
    const SCHEMA_INST: &str = "span schema";
    r.num(SCHEMA_INST, "trees validated", traces.len() as f64, "", "each solve's tree parses");
    r.num(SCHEMA_INST, "spans validated", spans_validated as f64, "", "-");
    r.num(SCHEMA_INST, "ring capacity", muppet_obs::ring_capacity() as f64, "", "-");
    r.num("overhead", "disabled span", disabled_ns, "ns", "one relaxed atomic load");
    r.num("overhead", "spans per solve", spans_per_solve as f64, "", "-");
    r.num("overhead", "untraced solve", ms(d_solve), "ms", "-");
    r.num("overhead", "implied per-solve", overhead_pct, "%", "<= 2");
    assert!(
        overhead_pct <= 2.0,
        "disabled-tracing overhead {overhead_pct:.4}% breaks the 2% budget: \
         {spans_per_solve} spans x {disabled_ns:.1}ns against a {:.1}ms solve",
        ms(d_solve)
    );
}

/// S1 — the scale lane (DESIGN.md §15). Runs the committed scenario
/// corpus end to end and gates every observed verdict against its
/// committed label: always the `smoke` + `paper` tiers plus the two
/// headline 1000-service `large` entries; the full `large` and `hard`
/// tiers when `MUPPET_SCALE=full`. Every entry runs with the obs
/// profiler attached, so each carries per-phase timings. The lane also
/// regenerates the headline scenario twice and gates byte-identical
/// output (manifests, goal tables, provenance JSON).
fn s1(r: &mut Record) {
    use corpus::{Kind, Tier};

    let full = std::env::var("MUPPET_SCALE").map(|v| v == "full").unwrap_or(false);
    let headline = ["large-1000-sat", "large-1000-unsat"];
    r.text("corpus", "mode", if full { "full" } else { "headline" }, "-");
    let mut mismatches: Vec<String> = Vec::new();
    let mut largest: Option<(usize, &str, BTreeMap<&'static str, PhaseTotals>)> = None;
    for entry in corpus::CORPUS.iter().filter(|e| match e.tier {
        Tier::Smoke | Tier::Paper => true,
        Tier::Large => full || headline.contains(&e.name),
        Tier::Hard => full,
    }) {
        let ((got, wall), totals) = profiled(|| timed(|| corpus::solver_verdict(entry)));
        if got != entry.expected {
            mismatches.push(format!("{}: expected {}, got {got}", entry.name, entry.expected));
        }
        r.text(entry.name, "verdict", got.label(), entry.expected.label());
        r.num(entry.name, "wall", ms(wall), "ms", "-");
        r.phases(entry.name, &totals);
        if let Kind::Mesh(params) = entry.kind {
            if largest.as_ref().is_none_or(|l| params.services > l.0) {
                largest = Some((params.services, entry.name, totals));
            }
        }
    }

    // Determinism gate: the headline scenario regenerated from scratch
    // must be byte-identical — manifests, goal tables and provenance.
    let head = corpus::entry("large-1000-sat").expect("headline entry exists");
    let Kind::Mesh(params) = head.kind else {
        panic!("headline entry must be a mesh scenario")
    };
    let a = generate(params);
    let b = generate(params);
    let regen_identical = a.wire_content() == b.wire_content()
        && a.provenance_json(head.name) == b.provenance_json(head.name);
    r.text(head.name, "regeneration byte-identical", regen_identical, "true (seeded determinism)");

    assert!(mismatches.is_empty(), "corpus label mismatches: {mismatches:?}");
    assert!(regen_identical, "same seed + params must regenerate byte-identically");
    let (services, name, phases) = largest.expect("lane must run a mesh scenario");
    assert!(services >= 1000, "scale lane must solve a >= 1000-service mesh (got {services})");
    for phase in ["ground", "encode", "search"] {
        assert!(phases.contains_key(phase), "{name}: no {phase} phase recorded");
    }
}

/// N1 — the incremental-engine lane (DESIGN.md §13). The paper's
/// K8s/Istio negotiation (Fig. 2 vs Fig. 3, the mesh admin's rows soft
/// so blamed ones can be conceded) runs as repeated episodes the way
/// the daemon replays `NegotiateRound`: the **warm** path lends one
/// `PreparedStore` to every episode's session, the **cold** path runs
/// every episode on a fresh `Session`. Two gates:
///
/// 1. *Byte identity*: every episode's verdict, round count, delivered
///    configs and full trace (the counter-offer sequence) must be
///    identical between the two paths.
/// 2. *Work ratio*: the fresh sessions must re-encode >= 3x more CNF
///    groups than the shared store, counted by the stores themselves
///    ([`muppet_solver::PreparedStore::group_counters`]).
fn n1(r: &mut Record) {
    use muppet_solver::PreparedStore;

    const EPISODES: usize = 4;
    const MAX_ROUNDS: usize = 8;

    let mv = vocab();
    // The daemon's NegotiateRound shape (Fig. 9 roles): the cluster
    // admin holds firm, the mesh admin's strict Fig. 3 rows are soft.
    let build = || {
        let mut s = session(&mv, IstioTable::Fig3);
        govern(&mut s);
        if let Ok(p) = s.party_mut(mv.istio_party) {
            for g in &mut p.goals {
                g.hard = false;
            }
        }
        s
    };
    let negs = || {
        let mut n: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        n.insert(mv.k8s_party, Box::new(Stubborn));
        n.insert(mv.istio_party, Box::new(DropBlamedSoftGoals));
        n
    };

    // Warm: one store lent to every episode, the daemon's lifetime shape.
    let mut store = PreparedStore::new();
    let (warm_reports, warm_wall) = timed(|| {
        (0..EPISODES)
            .map(|_| {
                let mut s = build();
                std::mem::swap(s.store_mut(), &mut store);
                let report =
                    run_negotiation(&mut s, &mut negs(), MAX_ROUNDS, Schedule::RoundRobin)
                        .unwrap();
                std::mem::swap(s.store_mut(), &mut store);
                report
            })
            .collect::<Vec<_>>()
    });
    let warm_encoded = store.group_counters().0;

    // Cold: identical episodes, each on a fresh session.
    let mut cold_encoded = 0;
    let (cold_reports, cold_wall) = timed(|| {
        (0..EPISODES)
            .map(|_| {
                let mut s = build();
                let report =
                    run_negotiation(&mut s, &mut negs(), MAX_ROUNDS, Schedule::RoundRobin)
                        .unwrap();
                cold_encoded += s.store().group_counters().0;
                report
            })
            .collect::<Vec<_>>()
    });
    let inst = format!("paper fig2/fig3, {EPISODES} episodes");
    if let Some(phase) = warm_reports.iter().chain(&cold_reports).find_map(|r| r.exhausted) {
        return r.exhausted(&inst, format!("phase {phase}"));
    }

    // Gate 1: byte-identical verdicts and counter-offer sequences.
    let render = |r: &muppet::negotiate::NegotiationReport| {
        format!(
            "success={} rounds={} configs={:?} trace={:?}",
            r.success, r.rounds, r.configs, r.trace
        )
    };
    let mut identical = true;
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        if render(w) != render(c) {
            identical = false;
        }
        assert!(w.success, "paper negotiation must converge");
    }
    assert!(
        identical,
        "warm and cold negotiations diverged:\n  warm: {}\n  cold: {}",
        render(&warm_reports[0]),
        render(&cold_reports[0]),
    );

    // Gate 2: fresh sessions re-encode >= 3x more groups.
    let ratio = cold_encoded as f64 / (warm_encoded.max(1)) as f64;
    r.text(&inst, "verdicts + traces byte-identical", identical, "true");
    r.num(&inst, "rounds per episode", warm_reports[0].rounds as f64, "rounds", "-");
    r.num(&inst, "groups encoded (warm)", warm_encoded as f64, "", "-");
    r.num(&inst, "groups encoded (cold)", cold_encoded as f64, "", "-");
    r.num(&inst, "cold/warm encode ratio", ratio, "x", ">= 3x");
    r.num(&inst, "warm wall", ms(warm_wall), "ms", "-");
    r.num(&inst, "cold wall", ms(cold_wall), "ms", "-");
    assert!(
        ratio >= 3.0,
        "fresh sessions must re-encode >= 3x more groups than a shared store: \
         cold {cold_encoded} vs warm {warm_encoded}"
    );
}

/// W1 — the streaming-reconfiguration lane (DESIGN.md §16). Replays
/// the committed `stream-policy-churn` edit stream (250 ban
/// upserts/retractions over a fixed 24-service mesh) through two
/// engines in lockstep:
///
/// - **warm**: one [`muppet_stream::StreamSession`] ingests every
///   delta multi-shot — unchanged CNF groups are reused by content
///   fingerprint;
/// - **cold oracle**: after every delta the accumulated configuration
///   state is rebuilt and re-solved on a fresh `Session` (fresh
///   vocabulary, fresh grounding, fresh encoding, fresh solver).
///
/// It then replays the unbounded `stream-policy-churn` entry the same
/// way ([`w1_unbounded`]). Three gates:
///
/// 1. *Byte identity*: the warm verdict line (canonical lex-min model
///    or ordered-deletion minimal core) equals the cold oracle's at
///    the initial state and after every one of the >= 200 deltas;
/// 2. *Amortized speedup*: total cold wall over total warm wall must
///    be >= 5x — multi-shot solving has to beat re-solving from
///    scratch by a wide margin, not a rounding error;
/// 3. *Bounded warm state* on the unbounded replay: byte-identical
///    verdicts, sat and unsat, a warm engine never holding more than
///    twice a fresh engine's variables, and no ban or goal-row delta
///    dirtying the structural axioms.
fn w1(r: &mut Record) {
    use muppet_stream::{verdict_line, StreamSession, StreamSpec};

    // The bounded-offer churn entry: tight offers keep the free tuple
    // count small, so grounding plus encoding dominate each cold solve,
    // which is exactly the work the multi-shot session amortizes.
    let entry = corpus::entry("stream-bounded-churn").expect("committed stream entry");
    let corpus::Kind::Stream(params) = entry.kind else {
        panic!("stream-bounded-churn must be a stream corpus entry")
    };
    assert!(params.deltas >= 200, "the speedup gate needs a >= 200-delta stream");
    let stream = muppet_scenario::generate_stream(params);

    // Warm: one multi-shot session across the whole stream.
    let t0 = Instant::now();
    let (mut warm, initial) =
        StreamSession::new(StreamSpec::from(&stream.base)).expect("initial state solves");
    let mut warm_verdicts: Vec<String> = vec![initial.verdict.clone()];
    let mut flips = 0u64;
    let mut max_delta_us = initial.elapsed_us;
    let mut engine_vars_max = initial.engine_vars;
    let mut compactions = 0u64;
    let mut answers_reused = 0u64;
    for d in &stream.deltas {
        let s = warm.push(d).expect("committed stream replays warm");
        flips += u64::from(s.flipped);
        answers_reused += u64::from(s.answer_reused);
        max_delta_us = max_delta_us.max(s.elapsed_us);
        engine_vars_max = engine_vars_max.max(s.engine_vars);
        compactions += u64::from(s.compacted);
        warm_verdicts.push(s.verdict);
    }
    let warm_ms = ms(t0.elapsed());
    let (encoded, reused) = warm.group_counters();

    // Cold oracle: the identical state sequence, each solved from
    // scratch. Same session construction as the warm path, so any
    // divergence is the multi-shot engine's fault.
    let mut cold_spec = StreamSpec::from(&stream.base);
    let cold_solve = |spec: &StreamSpec| -> String {
        let mv = spec.vocab();
        let mut s = spec.session(&mv).expect("cold session builds");
        let rec = s.reconcile(ReconcileMode::HardBounds).expect("cold reconcile");
        assert!(rec.exhausted.is_none(), "cold oracle must not exhaust");
        verdict_line(&rec)
    };
    let t1 = Instant::now();
    let mut cold_verdicts: Vec<String> = vec![cold_solve(&cold_spec)];
    for d in &stream.deltas {
        d.apply_parts(
            &mut cold_spec.mesh,
            &mut cold_spec.k8s_goals,
            &mut cold_spec.istio_goals,
        )
        .expect("committed stream replays cold");
        cold_verdicts.push(cold_solve(&cold_spec));
    }
    let cold_ms = ms(t1.elapsed());

    let solves = warm_verdicts.len();
    let identical = warm_verdicts
        .iter()
        .zip(&cold_verdicts)
        .filter(|(w, c)| w == c)
        .count();
    let first_divergence = warm_verdicts
        .iter()
        .zip(&cold_verdicts)
        .position(|(w, c)| w != c);
    let speedup = cold_ms / warm_ms.max(1e-9);

    let inst = format!("{} ({} deltas)", entry.name, stream.deltas.len());
    r.text(&inst, "profile", params.profile.name(), "-");
    r.text(&inst, "verdicts byte-identical", format!("{identical}/{solves}"), "all");
    let divergence = first_divergence.map_or("none".to_string(), |i| format!("seq {i}"));
    r.text(&inst, "first divergence", divergence, "none");
    r.num(&inst, "amortized speedup", speedup, "x", ">= 5x");
    r.num(&inst, "warm wall", warm_ms, "ms", "-");
    r.num(&inst, "cold wall", cold_ms, "ms", "-");
    r.num(&inst, "warm amortized per delta", warm_ms / solves as f64, "ms", "-");
    r.num(&inst, "cold amortized per delta", cold_ms / solves as f64, "ms", "-");
    r.num(&inst, "warm max delta", max_delta_us as f64 / 1e3, "ms", "-");
    r.num(&inst, "verdict flips observed", flips as f64, "", "-");
    r.num(&inst, "groups encoded", encoded as f64, "", "-");
    r.num(&inst, "groups reused", reused as f64, "", "reuse dominates");
    r.num(&inst, "warm engine vars max", engine_vars_max as f64, "", "-");
    r.num(&inst, "compactions", compactions as f64, "", "-");
    r.num(&inst, "answers reused", answers_reused as f64, "", "-");
    let unbounded_failures = w1_unbounded(r);

    assert_eq!(
        identical,
        solves,
        "warm and cold verdicts diverged first at seq {:?}:\n  warm: {}\n  cold: {}",
        first_divergence,
        first_divergence.map(|i| warm_verdicts[i].as_str()).unwrap_or(""),
        first_divergence.map(|i| cold_verdicts[i].as_str()).unwrap_or(""),
    );
    assert!(
        speedup >= 5.0,
        "multi-shot solving must amortize >= 5x over cold re-solves: \
         warm {warm_ms:.0} ms vs cold {cold_ms:.0} ms over {solves} solves"
    );
    assert!(
        unbounded_failures.is_empty(),
        "unbounded stream replay failed:\n  {}",
        unbounded_failures.join("\n  ")
    );
}

/// W1's bounded-warm-state check: replay the unbounded
/// `stream-policy-churn` entry (the stream the repo benchmark drives
/// through the daemon) on one warm [`muppet_stream::StreamSession`],
/// re-solving every state on a fresh session. Verdicts (canonical
/// models and ordered-deletion cores) must match byte for byte, sat
/// and unsat alike; after every delta the warm store may hold at most
/// twice the solver variables the fresh session's engine needs; no ban
/// or goal-row delta may dirty the `structural axioms` group, whose
/// meaning such an edit never changes (group keys ignore names and
/// bound-variable ids, so re-translating the goal tables must not
/// re-ground the axioms; a delta right after a compaction rebuilds the
/// axioms with the engine and is not counted); and every delta that
/// submits the same encoding-key list as the delta before it must be
/// answered from the warm engine's memo, without searching (again
/// except right after a compaction, which drops the memo with the
/// engine). Returns the gate failures.
fn w1_unbounded(r: &mut Record) -> Vec<String> {
    use muppet_stream::{verdict_line, StreamSession, StreamSpec};

    let entry = corpus::entry("stream-policy-churn").expect("committed stream entry");
    let corpus::Kind::Stream(params) = entry.kind else {
        panic!("stream-policy-churn must be a stream corpus entry")
    };
    assert!(!params.base.bounded, "the leak check needs the unbounded entry");
    let stream = muppet_scenario::generate_stream(params);
    let (mut warm, initial) =
        StreamSession::new(StreamSpec::from(&stream.base)).expect("initial state solves");
    let mut spec = StreamSpec::from(&stream.base);
    let mut failures = Vec::new();
    let (mut unsat, mut unsat_identical, mut sat, mut sat_identical) = (0u64, 0u64, 0u64, 0u64);
    let (mut engine_vars_max, mut compactions, mut worst_ratio) = (0u64, 0u64, 0f64);
    let mut axioms_dirtied = 0u64;
    let (mut answers_reused, mut repeats, mut repeats_reused) = (0u64, 0u64, 0u64);
    let mut prev_keys: Vec<u128> = Vec::new();
    let mut prev_compacted = false;
    for (seq, delta) in std::iter::once(None).chain(stream.deltas.iter().map(Some)).enumerate() {
        let stats = match delta {
            None => initial.clone(),
            Some(d) => {
                d.apply_parts(&mut spec.mesh, &mut spec.k8s_goals, &mut spec.istio_goals)
                    .expect("committed stream replays cold");
                warm.push(d).expect("committed stream replays warm")
            }
        };
        let mv = spec.vocab();
        let mut fresh = spec.session(&mv).expect("cold session builds");
        let keys: Vec<u128> = fresh
            .reconcile_group_signatures(ReconcileMode::HardBounds)
            .into_iter()
            .map(|sig| sig.key)
            .collect();
        answers_reused += u64::from(stats.answer_reused);
        if delta.is_some() && !prev_compacted && keys == prev_keys {
            repeats += 1;
            repeats_reused += u64::from(stats.answer_reused);
            if !stats.answer_reused && failures.len() < 3 {
                let kind = stats.kind;
                failures.push(format!("seq {seq}: {kind} delta repeated its state but searched"));
            }
        }
        prev_keys = keys;
        let rec = fresh.reconcile(ReconcileMode::HardBounds).expect("cold reconcile");
        assert!(rec.exhausted.is_none(), "cold oracle must not exhaust");
        let cold = verdict_line(&rec);
        let identical = u64::from(stats.verdict == cold);
        if rec.success {
            sat += 1;
            sat_identical += identical;
        } else {
            unsat += 1;
            unsat_identical += identical;
        }
        if identical == 0 && failures.len() < 3 {
            failures.push(format!("seq {seq}: warm {:.120} vs cold {cold:.120}", stats.verdict));
        }
        let fresh_vars = fresh.store().num_vars() as u64;
        worst_ratio = worst_ratio.max(stats.engine_vars as f64 / fresh_vars.max(1) as f64);
        if stats.engine_vars > 2 * fresh_vars && failures.len() < 3 {
            failures.push(format!(
                "seq {seq}: warm engine holds {} vars, a fresh one {fresh_vars}",
                stats.engine_vars
            ));
        }
        engine_vars_max = engine_vars_max.max(stats.engine_vars);
        compactions += u64::from(stats.compacted);
        let table_edit = delta.is_some_and(|d| !d.touches_mesh()) && !prev_compacted;
        prev_compacted = stats.compacted;
        if table_edit && stats.dirtied.iter().any(|n| n == "structural axioms") {
            axioms_dirtied += 1;
            if failures.len() < 3 {
                let kind = stats.kind;
                failures.push(format!("seq {seq}: {kind} delta dirtied the structural axioms"));
            }
        }
    }

    let inst = format!("{} ({} deltas)", entry.name, stream.deltas.len());
    r.text(&inst, "unsat cores byte-identical", format!("{unsat_identical}/{unsat}"), "all");
    r.text(&inst, "sat verdicts byte-identical", format!("{sat_identical}/{sat}"), "all");
    r.num(&inst, "max warm/fresh engine vars", worst_ratio, "x", "<= 2");
    r.num(&inst, "warm engine vars max", engine_vars_max as f64, "", "-");
    r.num(&inst, "compactions", compactions as f64, "", "-");
    r.num(&inst, "ban/goal deltas dirtying the axioms", axioms_dirtied as f64, "", "0");
    r.num(&inst, "answers reused", answers_reused as f64, "", "-");
    r.text(
        &inst,
        "repeated states answered without search",
        format!("{repeats_reused}/{repeats}"),
        "all",
    );
    failures
}

/// K1 — the SAT-kernel speed lane (DESIGN.md §17).
///
/// **Part A** solves every hard-tier CNF corpus entry sequentially
/// under two in-binary kernel profiles: the legacy pre-change kernel
/// ([`muppet_sat::Solver::set_legacy_kernel`] — one-step minimization,
/// fixed decay: the pre-upgrade oracle) and the tuned defaults
/// (recursive minimization, decay ramp). Each entry is also solved
/// under two ablation profiles, the tuned kernel with exactly one of
/// those features switched off, so the rows show what each kept
/// feature buys. Work counters are deterministic per
/// profile; wall clock is not, so timings are best-of-3. Every profile
/// must reproduce the committed verdict on every entry, and on
/// `hard-pup-unsat-5` — the refutation the speed program is gated on —
/// the tuned kernel must finish in ≤ 0.8x the legacy wall time.
///
/// **Part B** solves the committed minimal-edit scenario
/// (`minedit(400, 50, 8)`: optimal distance 50 by construction, 800
/// free tuples, one-of-16 goals) with the core-guided `solve_target`,
/// gating the constructed optimum. Work counters and the canonical
/// model are deterministic (the model is recorded as a digest, so two
/// records can be compared); wall clock is best-of-3.
fn k1(r: &mut Record) {
    use muppet_logic::fingerprint::{hex, Fingerprinter};
    use muppet_sat::{SolveResult, Solver, SolverStats};
    use muppet_scenario::minedit::minedit;
    use muppet_solver::Outcome;

    const BEST_OF: usize = 3;
    const GATED: &str = "hard-pup-unsat-5";
    const WALL_CEILING: f64 = 0.8;

    // ---- Part A: hard-tier CNF corpus, legacy vs tuned kernel ----
    let counters = |r: &mut Record, inst: &str, kernel: &str, s: &SolverStats| {
        for (name, v) in [
            ("conflicts", s.conflicts),
            ("propagations", s.propagations),
            ("restarts", s.restarts),
            ("learned", s.learned_clauses),
            ("deleted", s.deleted_clauses),
        ] {
            r.num(inst, &format!("{kernel} {name}"), v as f64, "", "-");
        }
    };
    // The tuned kernel with exactly one kept feature switched off.
    type Ablation = (&'static str, fn(&mut Solver));
    let ablations: [Ablation; 2] = [
        ("minimization off", |s| s.set_deep_minimization(false)),
        ("decay ramp off", |s| s.set_decay_ramp(false)),
    ];
    let mut parity_failures: Vec<String> = Vec::new();
    let mut gated_ratio: Option<f64> = None;
    for entry in corpus::entries(corpus::Tier::Hard) {
        let inst = corpus::cnf_instance(entry.kind).expect("hard tier is CNF-backed");
        let profile = |configure: fn(&mut Solver)| -> (f64, bool, SolverStats) {
            let mut best: Option<(f64, bool, SolverStats)> = None;
            for _ in 0..BEST_OF {
                let mut s: Solver = inst.solver();
                configure(&mut s);
                let (sat, wall) = timed(|| matches!(s.solve(), SolveResult::Sat(_)));
                if best.as_ref().is_none_or(|(w, _, _)| ms(wall) < *w) {
                    best = Some((ms(wall), sat, s.stats));
                }
            }
            best.expect("BEST_OF > 0")
        };
        let (legacy_ms, legacy_sat, legacy_stats) = profile(Solver::set_legacy_kernel);
        let (tuned_ms, tuned_sat, tuned_stats) = profile(|_| {});
        let ablated: Vec<(&str, f64, bool, SolverStats)> = ablations
            .iter()
            .map(|&(label, configure)| {
                let (ms, sat, stats) = profile(configure);
                (label, ms, sat, stats)
            })
            .collect();
        let verdicts = [("legacy", legacy_sat), ("tuned", tuned_sat)]
            .into_iter()
            .chain(ablated.iter().map(|a| (a.0, a.2)));
        let mut parity = true;
        for (kernel, sat) in verdicts {
            if !entry.expected.matches_success(sat) {
                parity = false;
                parity_failures.push(format!(
                    "{} under the {kernel} kernel: expected {}, got {}",
                    entry.name,
                    entry.expected,
                    if sat { "sat" } else { "unsat" },
                ));
            }
        }
        let ratio = tuned_ms / legacy_ms.max(1e-9);
        if entry.name == GATED {
            gated_ratio = Some(ratio);
        }
        let name = entry.name;
        r.text(name, "verdict parity", parity, &format!("{} under every kernel", entry.expected));
        r.num(name, "legacy wall", legacy_ms, "ms", "-");
        r.num(name, "tuned wall", tuned_ms, "ms", "-");
        let gate = if name == GATED { "<= 0.8 (speed gate)" } else { "-" };
        r.num(name, "tuned/legacy wall", ratio, "x", gate);
        counters(r, name, "legacy", &legacy_stats);
        counters(r, name, "tuned", &tuned_stats);
        for (label, ms, _, st) in &ablated {
            r.num(name, &format!("{label} wall"), *ms, "ms", "-");
            r.num(name, &format!("{label} conflicts"), st.conflicts as f64, "", "-");
            r.num(name, &format!("{label} propagations"), st.propagations as f64, "", "-");
        }
    }

    // ---- Part B: minedit, core-guided solve_target ----
    let sc = minedit(400, 50, 8);
    const MINEDIT: &str = "minedit-400-50x8";
    let mut best: Option<(f64, usize, Outcome, BTreeMap<&'static str, PhaseTotals>)> = None;
    for _ in 0..BEST_OF {
        let mut q = sc.engine();
        let (((out, d), wall), totals) = profiled(|| {
            timed(|| {
                q.solve_target(&sc.groups, &sc.target, Budget::unlimited())
                    .expect("minedit groups ground")
            })
        });
        assert!(out.is_sat(), "minedit must be satisfiable");
        if best.as_ref().is_none_or(|b| ms(wall) < b.0) {
            best = Some((ms(wall), d, out, totals));
        }
    }
    let (wall, distance, out, totals) = best.expect("BEST_OF > 0");
    let model = out.solution().expect("checked sat");
    let digest = hex(Fingerprinter::new().add_instance(model).digest());
    r.num(MINEDIT, "optimum", sc.optimum as f64, "tuples", "-");
    r.num(MINEDIT, "distance", distance as f64, "tuples", "50");
    r.num(MINEDIT, "wall", wall, "ms", "-");
    r.num(MINEDIT, "propagations", out.stats().propagations as f64, "", "-");
    r.num(MINEDIT, "conflicts", out.stats().conflicts as f64, "", "-");
    r.num(MINEDIT, "oll cores", out.stats().oll_cores as f64, "", "-");
    r.text(MINEDIT, "canonical model digest", digest, "-");
    r.phases(MINEDIT, &totals);

    assert!(
        parity_failures.is_empty(),
        "hard-tier verdicts diverged: {parity_failures:?}"
    );
    let ratio = gated_ratio.expect("gated entry must be in the hard tier");
    assert!(
        ratio <= WALL_CEILING,
        "tuned kernel must finish {GATED} in <= {WALL_CEILING}x the legacy \
         wall time, measured {ratio:.2}x"
    );
    assert_eq!(distance, sc.optimum, "solve_target missed the constructed optimum");
}

/// M1 — the ConfigDomain plugin lane (DESIGN.md §18). Two parts:
///
/// * **Part A** drives the committed `linkerd-shop` corpus scenario
///   end-to-end through the daemon engine: `open_session` (registry
///   dispatch on the spec's `domain` field), per-party consistency,
///   blameable reconciliation (the committed verdict is unsat, with
///   blame naming both administrators), and a negotiation round that
///   must converge once the Linkerd side's soft rows drop.
/// * **Part B** runs an N=3 round-robin negotiation (Fig. 9
///   generalized) to its fixpoint: converge, then re-negotiate and
///   verify the second run is a one-round no-op.
fn m1(r: &mut Record) {
    use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};

    const INST: &str = "linkerd-shop";

    // ---- Part A: the Linkerd domain through the daemon ----
    let entry = corpus::entry(INST).expect("linkerd corpus entry is committed");
    let engine = Engine::new(EngineConfig::default());
    let spec = SessionSpec::linkerd_example();

    let (open, open_wall) =
        timed(|| engine.handle(&Request::new(Op::OpenSession).with_spec(spec.clone()), None));
    assert!(open.ok, "open_session failed: {:?}", open.error);
    let domain = open
        .result
        .get("domain")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();

    let consistent = |party: &str| -> bool {
        let mut req = Request::new(Op::CheckConsistency).with_spec(spec.clone());
        req.party = Some(party.to_string());
        let resp = engine.handle(&req, None);
        assert!(resp.ok, "consistency({party}) failed: {:?}", resp.error);
        resp.result.get("ok").and_then(Json::as_bool) == Some(true)
    };
    let platform_ok = consistent("platform");
    let linkerd_ok = consistent("linkerd");

    let mut rec_req = Request::new(Op::Reconcile).with_spec(spec.clone());
    rec_req.mode = Some("blameable".to_string());
    let (rec, rec_wall) = timed(|| engine.handle(&rec_req, None));
    assert!(rec.ok, "reconcile failed: {:?}", rec.error);
    let rec_success = rec.result.get("success").and_then(Json::as_bool) == Some(true);
    let core_len = rec.result.get("core").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let core_text = rec
        .result
        .get("core")
        .map(Json::to_line)
        .unwrap_or_default();
    let blames_both =
        core_text.contains("platform-admin") && core_text.contains("linkerd-admin");

    let mut neg_req = Request::new(Op::NegotiateRound).with_spec(spec.clone());
    neg_req.max_rounds = Some(12);
    let (neg, neg_wall) = timed(|| engine.handle(&neg_req, None));
    assert!(neg.ok, "negotiate_round failed: {:?}", neg.error);
    let neg_success = neg.result.get("success").and_then(Json::as_bool) == Some(true);
    let neg_rounds = neg
        .result
        .get("rounds")
        .and_then(Json::as_u64)
        .unwrap_or(0);

    // ---- Part B: N=3 round-robin negotiation to fixpoint ----
    use muppet::{NamedGoal, Party};
    use muppet_logic::{Domain, PartyId, Term, Universe, Vocabulary};

    let mut universe = Universe::new();
    let sort = universe.add_sort("F");
    let x = universe.add_atom(sort, "x");
    let mut vocab = Vocabulary::new();
    let parties = [PartyId(0), PartyId(1), PartyId(2)];
    let rels = [
        vocab.add_simple_rel("en_a", vec![sort], Domain::Party(parties[0])),
        vocab.add_simple_rel("en_b", vec![sort], Domain::Party(parties[1])),
        vocab.add_simple_rel("en_c", vec![sort], Domain::Party(parties[2])),
    ];
    let lit = |r: usize| Formula::pred(rels[r], [Term::Const(x)]);
    let mut s = Session::new(&universe, vocab.clone(), Instance::new());
    govern(&mut s);
    s.add_party(Party::new(parties[0], "A").with_goals([NamedGoal::hard("require c-x", lit(2))]));
    s.add_party(Party::new(parties[1], "B").with_goals([NamedGoal::hard(
        "c-x implies b-x",
        Formula::implies(lit(2), lit(1)),
    )]));
    s.add_party(
        Party::new(parties[2], "C")
            .with_goals([NamedGoal::soft("forbid b-x", Formula::not(lit(1)))]),
    );
    let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    negs.insert(parties[0], Box::new(Stubborn));
    negs.insert(parties[1], Box::new(Stubborn));
    negs.insert(parties[2], Box::new(DropBlamedSoftGoals));
    let (first, neg3_wall) = timed(|| {
        run_negotiation(&mut s, &mut negs, 12, Schedule::RoundRobin)
            .expect("3-party negotiation runs")
    });
    // Fixpoint: negotiating again from the converged goal state must
    // agree immediately (one round, nothing revised).
    let second = run_negotiation(&mut s, &mut negs, 12, Schedule::RoundRobin)
        .expect("fixpoint negotiation runs");
    const THREE: &str = "three-party";
    if let Some(phase) = first.exhausted.or(second.exhausted) {
        return r.exhausted(THREE, format!("phase {phase}"));
    }

    let verdict = |sat: bool| if sat { "sat" } else { "unsat" };
    let converged = |ok: bool| if ok { "converged" } else { "stuck" };
    r.text(INST, "domain (open_session)", &domain, "linkerd");
    r.num(INST, "open_session", ms(open_wall), "ms", "-");
    r.text(INST, "platform consistent", platform_ok, "true");
    r.text(INST, "linkerd consistent", linkerd_ok, "true");
    let label = format!("{} (committed label)", entry.expected.label());
    r.text(INST, "reconcile verdict", verdict(rec_success), &label);
    r.num(INST, "reconcile", ms(rec_wall), "ms", "-");
    r.num(INST, "core size", core_len as f64, "goals", "-");
    r.text(INST, "core blames both admins", blames_both, "true");
    r.text(INST, "negotiation (soft linkerd rows)", converged(neg_success), "converges");
    r.num(INST, "negotiation rounds", neg_rounds as f64, "rounds", "-");
    r.num(INST, "negotiation", ms(neg_wall), "ms", "-");

    r.text(THREE, "round-robin negotiation", converged(first.success), "converges");
    r.num(THREE, "rounds", first.rounds as f64, "rounds", "-");
    r.num(THREE, "negotiation", ms(neg3_wall), "ms", "-");
    r.text(THREE, "re-run", converged(second.success), "converged");
    r.num(THREE, "re-run rounds", second.rounds as f64, "rounds", "1 (fixpoint)");

    assert_eq!(domain, "linkerd", "open_session must dispatch through the registry");
    assert!(platform_ok && linkerd_ok, "each party must be self-consistent");
    assert!(
        entry.expected.matches_success(rec_success),
        "daemon verdict must match the committed corpus label"
    );
    assert!(blames_both, "blame must name both administrators: {core_text}");
    assert!(neg_success, "soft Linkerd rows must negotiate to convergence");
    assert!(first.success, "3-party round-robin must converge");
    assert!(
        second.success && second.rounds == 1,
        "converged state must be a fixpoint (got {} round(s))",
        second.rounds
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        let mut r = Record { lane: "T1", rows: Vec::new(), panicked: false };
        r.num("inst", "time", 1.5, "ms", "-");
        r.text("inst", "verdict", "a, b", "-");
        r.num("inst", "ratio", 4.0, "x", ">= 3x");
        r
    }

    #[test]
    fn values_render_with_their_unit() {
        assert_eq!(Value::Num(2.0, "ms").to_string(), "2 ms");
        assert_eq!(Value::Num(0.5126, "ms").to_string(), "0.513 ms");
        assert_eq!(Value::Num(7.0, "").to_string(), "7");
        assert_eq!(Value::Text("UNSAT".into()).to_string(), "UNSAT");
    }

    #[test]
    fn table_and_csv_render_the_same_rows() {
        let rows: Vec<[String; 5]> = record().rows.iter().map(Row::cells).collect();
        let headers = ["lane", "instance", "metric", "value", "paper"].map(String::from);
        let text = render_table(&headers, &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2].find("1.500 ms"), lines[3].find("a, b"), "aligned columns");
        let csv = render_csv(&headers, &rows);
        assert_eq!(csv.lines().next(), Some("lane,instance,metric,value,paper"));
        assert_eq!(csv.lines().nth(2), Some("T1,inst,verdict,\"a, b\",-"));
    }

    #[test]
    fn rows_serialize_numbers_as_numbers() {
        let r = record();
        assert_eq!(
            r.rows[2].to_json().to_line(),
            r#"{"lane":"T1","instance":"inst","metric":"ratio","value":4,"unit":"x","paper":">= 3x"}"#
        );
        assert_eq!(
            r.rows[1].to_json().to_line(),
            r#"{"lane":"T1","instance":"inst","metric":"verdict","value":"a, b","paper":"-"}"#
        );
    }
}
