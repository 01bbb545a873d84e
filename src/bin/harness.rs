//! The experiment harness: regenerates every paper artifact as a text
//! row, in one run.
//!
//! ```text
//! cargo run --release --bin muppet-harness            # all experiments
//! cargo run --release --bin muppet-harness -- --csv   # CSV output
//! cargo run --release --bin muppet-harness -- e4      # one experiment
//! ```
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
//! schema, gates the disabled-tracing overhead at ≤ 2%, and emits
//! `BENCH_obs.json` with per-phase breakdowns.
//!
//! Experiment ids follow `DESIGN.md` §4 and `EXPERIMENTS.md`:
//! E1 conflict detection, E2 relaxation synthesis, E3 envelope shape,
//! E4 latency sweep (the Sec. 5 "< 1 s" claim), E5 baseline comparison,
//! E6 conformance workflow, E7 minimal edits, E8 negotiation rounds,
//! A1–A3 ablations. `S1` is the scale lane (DESIGN.md §15): the
//! committed scenario corpus end to end — verdicts gated against
//! committed labels on up-to-2500-service generated meshes
//! (`MUPPET_SCALE=full` for the full large + hard tiers), per-phase
//! timings in `BENCH_scale.json`, and a byte-identical regeneration
//! gate. `W1` is the streaming-reconfiguration lane (DESIGN.md §16):
//! it replays a committed edit stream through one warm multi-shot
//! `StreamSession` and a cold re-solve-from-scratch oracle in
//! lockstep, gating byte-identical verdicts at every delta plus a 5x
//! amortized warm-vs-cold speedup floor, and emits `BENCH_stream.json`.
//! `R1` is the overload/chaos lane (DESIGN.md §14):
//! it floods a real socket daemon past its admission limits with
//! misbehaving clients (plus injected solver faults under
//! `--features fault-inject`) and gates on verdict integrity, shed
//! accounting and drain latency, emitting `BENCH_robustness.json`.
//! `K1` is the SAT-kernel speed lane (DESIGN.md §17): the hard-tier
//! CNF corpus solved under the legacy pre-change kernel profile vs the
//! tuned defaults (verdict parity on every entry, a 0.8x wall-clock
//! floor on the gated UNSAT instance), plus the committed minimal-edit
//! scenario solved core-guided vs linear (byte-identical outcomes, a
//! 2x speedup floor), emitting `BENCH_kernel.json` before any gate.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Duration;

use muppet::conformance::run_conformance;
use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{baseline, Budget, ExhaustionReport, ReconcileMode, Reconciliation, RetryPolicy, Session};
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_bench::scenario::{generate, ScenarioParams};
use muppet_bench::timing::{ms, timed_median, Table};
use muppet_logic::{Formula, Instance};

const REPS: usize = 5;

/// Resource-governance knobs parsed from the command line, applied to
/// every session-based experiment via [`govern`].
#[derive(Clone, Copy, Default)]
struct Gov {
    timeout_ms: Option<u64>,
    conflict_budget: Option<u64>,
    retries: Option<u32>,
    threads: Option<usize>,
}

static GOV: OnceLock<Gov> = OnceLock::new();

/// One harness lane: fills its rows into the shared result table.
type Experiment = fn(&mut Table);

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
    if let Some(n) = g.threads {
        s.set_threads(n);
    }
    if g.conflict_budget.is_some() || g.retries.is_some() {
        s.set_retry_policy(RetryPolicy::new(
            g.conflict_budget.unwrap_or(u64::MAX),
            g.retries.unwrap_or(1),
        ));
    }
}

/// Structured exhaustion row: where the budget died and what it cost.
fn exhausted_row(t: &mut Table, exp: &str, instance: &str, ex: &ExhaustionReport) {
    row(
        t,
        exp,
        instance,
        "budget exhausted",
        format!(
            "phase {} after {} attempt(s); {}",
            ex.phase, ex.attempts, ex.stats
        ),
        "raise --timeout-ms / --conflict-budget / --retries",
    );
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
             [--retries <n>] [--threads <n>] [--trace-json <path>] [experiment-id-prefix...]"
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
            "--threads" => g.threads = Some(num("--threads", value("--threads")) as usize),
            "--trace-json" => trace_json = Some(value("--trace-json")),
            other if other.starts_with("--") => usage(format!("unknown flag {other:?}")),
            _ => filter.push(a),
        }
    }
    if g.threads.is_none() {
        g.threads = std::env::var("MUPPET_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok());
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

    let mut table = Table::new(&["exp", "instance", "metric", "value", "paper-expectation"]);

    // Every experiment runs under catch_unwind so one failing lane
    // still leaves a machine-readable record of the rest.
    let experiments: &[(&str, Experiment)] = &[
        ("E1", e1),
        ("E2", e2),
        ("E3", e3),
        ("E4", e4),
        ("E5", e5),
        ("E6", e6),
        ("E7", e7),
        ("E8", e8),
        ("A1", a1),
        ("A2", a2),
        ("A3", a3),
        ("A4", a4),
        ("X1", x1),
        ("X2", x2),
        ("D1", d1),
        ("P1", p1),
        ("O1", o1),
        ("S1", s1),
        ("N1", n1),
        ("W1", w1),
        ("R1", r1),
        ("K1", k1),
        ("M1", m1),
    ];
    let mut runs: Vec<(String, f64, &'static str)> = Vec::new();
    for (id, f) in experiments {
        if !want(id) {
            continue;
        }
        let start = std::time::Instant::now();
        let status = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(&mut table)
        })) {
            Ok(()) => "ok",
            Err(_) => "panicked",
        };
        runs.push((id.to_string(), start.elapsed().as_secs_f64() * 1e3, status));
    }

    if csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }
    write_bench_e2e(&table, &runs, g);
    // Flush the --trace-json sink before exiting either way.
    muppet_obs::clear_json_sink();
    if runs.iter().any(|(_, _, s)| *s == "panicked") {
        std::process::exit(1);
    }
}

/// Always emit `BENCH_e2e.json`: per-experiment wall-clock + verdict
/// plus the full result table, machine-readable for CI trend lines.
fn write_bench_e2e(table: &Table, runs: &[(String, f64, &'static str)], g: Gov) {
    use muppet_daemon::json::Json;
    let experiments = Json::Arr(
        runs.iter()
            .map(|(id, wall_ms, status)| {
                Json::obj([
                    ("id", Json::str(id)),
                    ("wall_ms", Json::Num(*wall_ms)),
                    ("status", Json::str(*status)),
                ])
            })
            .collect(),
    );
    let headers = Json::strs(table.headers());
    let rows = Json::Arr(table.rows().iter().map(Json::strs).collect());
    let opt_num = |v: Option<u64>| match v {
        Some(n) => Json::num(n),
        None => Json::Null,
    };
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-e2e-v1")),
        (
            "governance",
            Json::obj([
                ("timeout_ms", opt_num(g.timeout_ms)),
                ("conflict_budget", opt_num(g.conflict_budget)),
                ("retries", opt_num(g.retries.map(u64::from))),
            ]),
        ),
        ("experiments", experiments),
        (
            "table",
            Json::obj([("headers", headers), ("rows", rows)]),
        ),
    ]);
    if let Err(e) = std::fs::write("BENCH_e2e.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_e2e.json: {e}");
    }
}

fn row(t: &mut Table, exp: &str, instance: &str, metric: &str, value: String, paper: &str) {
    t.row(&[
        exp.to_string(),
        instance.to_string(),
        metric.to_string(),
        value,
        paper.to_string(),
    ]);
}

/// E1 — Figs. 1–3: the strict goal tables conflict; the core blames
/// exactly the ban and the backend→frontend:23 goal.
fn e1(t: &mut Table) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);
    govern(&mut s);
    let (rec, d) = timed_median(REPS, || s.reconcile(ReconcileMode::Blameable).unwrap());
    if let Some(ex) = &rec.exhausted {
        exhausted_row(t, "E1", "fig2+fig3", ex);
        return;
    }
    assert!(!rec.success);
    row(t, "E1", "fig2+fig3", "reconcile verdict", "UNSAT".into(), "UNSAT (conflict)");
    row(
        t,
        "E1",
        "fig2+fig3",
        "minimal core size",
        rec.core.len().to_string(),
        "2 (ban vs goal row 2)",
    );
    row(t, "E1", "fig2+fig3", "time (ms)", ms(d), "< 1000");
}

/// E2 — Fig. 4: relaxation makes synthesis succeed; every goal verifies
/// against the delivered configurations.
fn e2(t: &mut Table) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig4);
    govern(&mut s);
    let (rec, d) = timed_median(REPS, || s.reconcile(ReconcileMode::HardBounds).unwrap());
    if let Some(ex) = &rec.exhausted {
        exhausted_row(t, "E2", "fig2+fig4", ex);
        return;
    }
    assert!(rec.success);
    let mut combined = s.structure().clone();
    for c in rec.configs.values() {
        combined = combined.union(c);
    }
    let verified = s.check_goals(&combined).into_iter().all(|(_, h)| h);
    row(t, "E2", "fig2+fig4", "synthesis verdict", "SAT".into(), "SAT (relaxed goals)");
    row(
        t,
        "E2",
        "fig2+fig4",
        "goals verified",
        verified.to_string(),
        "true",
    );
    row(t, "E2", "fig2+fig4", "time (ms)", ms(d), "< 1000");
}

/// E3 — Fig. 5: the envelope has exactly the paper's five disjunct
/// families and reveals only port 23.
fn e3(t: &mut Table) {
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let (env, d) = timed_median(REPS, || {
        s.compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap()
    });
    let mut inner: &Formula = &env.predicates[0].formula;
    let mut quantifiers = 0;
    while let Formula::Forall(_, _, body) = inner {
        quantifiers += 1;
        inner = body;
    }
    let disjuncts = match inner {
        Formula::Or(ds) => ds.len(),
        _ => 1,
    };
    row(t, "E3", "E_{k8s->istio}", "predicates", env.predicates.len().to_string(), "1");
    row(
        t,
        "E3",
        "E_{k8s->istio}",
        "universal quantifiers",
        quantifiers.to_string(),
        "2 (src; dst)",
    );
    row(t, "E3", "E_{k8s->istio}", "disjunct families", disjuncts.to_string(), "5 (Fig. 5)");
    row(
        t,
        "E3",
        "E_{k8s->istio}",
        "atoms revealed",
        format!("{:?}", env.leakage(s.universe()).revealed_atoms),
        "only port 23",
    );
    row(t, "E3", "E_{k8s->istio}", "time (ms)", ms(d), "< 1000");
}

/// E4 — Sec. 5: the latency sweep. Modest (paper-scale) rows must stay
/// under 1 second.
fn e4(t: &mut Table) {
    for &n in &[3usize, 6, 12, 24, 48] {
        let scenario = generate(ScenarioParams {
            services: n,
            istio_goals: n,
            k8s_goals: 1,
            conflict_fraction: 0.0,
            ..ScenarioParams::default()
        });
        let mut sess = scenario.session(false);
        govern(&mut sess);
        let reps = if n >= 24 { 3 } else { REPS };
        let inst = format!("{n} services");
        let expect = if n <= 8 {
            "< 1000 (modest)"
        } else {
            "graceful growth"
        };

        let (r, d) = timed_median(reps, || {
            sess.local_consistency(scenario.mv.istio_party).unwrap()
        });
        if let Some(ex) = &r.exhausted {
            exhausted_row(t, "E4", &inst, ex);
            continue;
        }
        assert!(r.ok);
        row(t, "E4", &inst, "local consistency (ms)", ms(d), expect);
        let (r, d) = timed_median(reps, || sess.reconcile(ReconcileMode::HardBounds).unwrap());
        if let Some(ex) = &r.exhausted {
            exhausted_row(t, "E4", &inst, ex);
            continue;
        }
        assert!(r.success);
        row(t, "E4", &inst, "reconcile+synthesize (ms)", ms(d), expect);
        row(
            t,
            "E4",
            &inst,
            "free tuple vars / conflicts",
            format!("{} / {}", r.stats.free_tuple_vars, r.stats.conflicts),
            "grows with |Svc|²·|Port|",
        );
        let (_, d) = timed_median(reps, || {
            sess.compute_envelope(
                scenario.mv.k8s_party,
                scenario.mv.istio_party,
                &Instance::new(),
            )
            .unwrap()
        });
        row(t, "E4", &inst, "envelope (ms)", ms(d), expect);
        if n <= 8 {
            assert!(d < Duration::from_secs(1), "modest scenario over budget");
        }
    }
    // A multi-tenant variant: 12 services over 3 namespaces with
    // namespace-scoped bans (the Sec. 1 motivation shape).
    let scenario = generate(ScenarioParams {
        services: 12,
        istio_goals: 12,
        k8s_goals: 3,
        namespaces: 3,
        conflict_fraction: 0.0,
        ..ScenarioParams::default()
    });
    let mut sess = scenario.session(false);
    govern(&mut sess);
    let (r, d) = timed_median(3, || sess.reconcile(ReconcileMode::HardBounds).unwrap());
    if let Some(ex) = &r.exhausted {
        exhausted_row(t, "E4", "12 services, 3 namespaces", ex);
        return;
    }
    assert!(r.success);
    row(
        t,
        "E4",
        "12 services, 3 namespaces",
        "reconcile+synthesize (ms)",
        ms(d),
        "graceful growth",
    );
}

/// E5 — Fig. 6 baseline: same verdicts, no localization, and the cost
/// premium Muppet pays for blame.
fn e5(t: &mut Table) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);
    govern(&mut s);
    let (b, db) = timed_median(REPS, || baseline::monolithic_synthesis(&mut s).unwrap());
    let (m, dm) = timed_median(REPS, || s.reconcile(ReconcileMode::Blameable).unwrap());
    if let Some(ex) = &m.exhausted {
        exhausted_row(t, "E5", "fig2+fig3", ex);
        return;
    }
    assert_eq!(b.success, m.success);
    row(t, "E5", "fig2+fig3", "baseline verdict", "UNSAT".into(), "UNSAT; no information");
    row(t, "E5", "fig2+fig3", "baseline core", "(none)".into(), "opaque failure");
    row(
        t,
        "E5",
        "fig2+fig3",
        "muppet core",
        format!("{} goals", m.core.len()),
        "2 goals blamed",
    );
    row(t, "E5", "fig2+fig3", "baseline time (ms)", ms(db), "-");
    row(t, "E5", "fig2+fig3", "muppet time (ms)", ms(dm), "small premium for blame");
}

/// E6 — Fig. 7 conformance workflow episodes.
fn e6(t: &mut Table) {
    let mv = vocab();
    let mut strict = session(&mv, IstioTable::Fig3);
    govern(&mut strict);
    let mut strict = strict;
    let preferred = mv.structure_instance();
    let (report, d) = timed_median(REPS, || {
        run_conformance(&mut strict, mv.k8s_party, mv.istio_party, Some(&preferred)).unwrap()
    });
    assert!(!report.success);
    row(t, "E6", "strict tenant", "outcome", "rejected".into(), "tenant must revise");
    row(
        t,
        "E6",
        "strict tenant",
        "counter-offer distance",
        report.counter_offer_distance.unwrap().to_string(),
        "1 edit",
    );
    row(t, "E6", "strict tenant", "time (ms)", ms(d), "< 1000");

    let mut relaxed = session(&mv, IstioTable::Fig4);
    govern(&mut relaxed);
    let mut relaxed = relaxed;
    let (report, d) = timed_median(REPS, || {
        run_conformance(&mut relaxed, mv.k8s_party, mv.istio_party, None).unwrap()
    });
    assert!(report.success);
    row(t, "E6", "relaxed tenant", "outcome", "conforming config".into(), "success");
    row(t, "E6", "relaxed tenant", "time (ms)", ms(d), "< 1000");
}

/// E7 — Fig. 8 minimal edits: distance of the counter-offer vs free
/// resynthesis.
fn e7(t: &mut Table) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);
    govern(&mut s);
    let mut s = s;
    let env = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    let target = mv.structure_instance();
    let ((out, dist), d) = timed_median(REPS, || {
        s.minimal_edit(mv.istio_party, &env, &target).unwrap()
    });
    if let muppet_solver::Outcome::Unknown { phase, stats, .. } = &out {
        row(
            t,
            "E7",
            "paper deployment",
            "budget exhausted",
            format!("phase {phase}; {stats}"),
            "raise --timeout-ms / --conflict-budget / --retries",
        );
        return;
    }
    assert!(out.is_sat());
    row(t, "E7", "paper deployment", "minimal edit distance", dist.to_string(), "1 tuple");
    row(t, "E7", "paper deployment", "target-oriented time (ms)", ms(d), "< 1000");

    let mut s4 = session(&mv, IstioTable::Fig4);
    let (out, d) = timed_median(REPS, || {
        s4.synthesize_against(mv.istio_party, &env).unwrap()
    });
    let free_dist = out
        .solution()
        .map(|sol| {
            sol.restrict_to_domain(s4.vocab(), muppet_logic::Domain::Party(mv.istio_party))
                .distance(&target)
        })
        .unwrap_or(0);
    row(
        t,
        "E7",
        "paper deployment",
        "free synthesis distance",
        free_dist.to_string(),
        ">= minimal edit",
    );
    row(t, "E7", "paper deployment", "free synthesis time (ms)", ms(d), "-");
}

/// E8 — Fig. 9 negotiation: rounds to convergence vs conflict count.
fn e8(t: &mut Table) {
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
        let (report, d) = timed_median(3, || {
            let mut sess = scenario.session(true);
            govern(&mut sess);
            let mut negs: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> = BTreeMap::new();
            negs.insert(scenario.mv.k8s_party, Box::new(Stubborn));
            negs.insert(scenario.mv.istio_party, Box::new(DropBlamedSoftGoals));
            run_negotiation(&mut sess, &mut negs, 40, Schedule::RoundRobin).unwrap()
        });
        assert!(report.success);
        let inst = format!("{bans} ban(s); {conflicts} conflict(s)");
        row(
            t,
            "E8",
            &inst,
            "rounds to agreement",
            report.rounds.to_string(),
            "grows with conflicts",
        );
        row(t, "E8", &inst, "time (ms)", ms(d), "< 1000 per episode");
    }
}

/// A4 — symmetry-breaking ablation. Two honest measurements: on
/// easily-satisfiable mesh scenarios the lex-leader overhead is pure
/// loss; on symmetric UNSAT search (relational pigeonhole, where every
/// atom is interchangeable) it collapses the conflict count — the same
/// trade Kodkod documents.
fn a4(t: &mut Table) {
    use muppet_logic::PartialInstance;
    use muppet_solver::{FormulaGroup, IncrementalQuery, Outcome};

    // Easy-SAT mesh scenario: SB is overhead.
    let scenario = generate(ScenarioParams {
        services: 12,
        istio_goals: 12,
        k8s_goals: 1,
        conflict_fraction: 0.0,
        flexible_fraction: 0.5,
        extra_ports: 8,
        ..ScenarioParams::default()
    });
    let mut sess = scenario.session(false);
    let (r, d_off) = timed_median(3, || sess.reconcile(ReconcileMode::HardBounds).unwrap());
    assert!(r.success);
    sess.set_symmetry_breaking(true);
    let (r, d_on) = timed_median(3, || sess.reconcile(ReconcileMode::HardBounds).unwrap());
    assert!(r.success);
    row(t, "A4", "easy-SAT mesh (12 svc)", "SB off (ms)", ms(d_off), "-");
    row(t, "A4", "easy-SAT mesh (12 svc)", "SB on (ms)", ms(d_on), "overhead on easy SAT");

    // Symmetric UNSAT: relational pigeonhole PHP(9,8), from the shared
    // corpus fixture (same instance `php-9-8` gates in the S1 lane).
    let (u, v, sits, formulas) = muppet_bench::paper::php_relational(9, 8);
    let groups = [FormulaGroup::new("php", formulas)];
    let run = |sb: bool| {
        let mut q =
            IncrementalQuery::new(&v, &u, &[sits], &PartialInstance::new(), Instance::new());
        q.set_minimize_cores(false);
        if sb {
            q.add_symmetry_breaking();
        }
        match q.solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Unsat { stats, .. } => stats.conflicts,
            other => panic!("PHP(9,8) must be unsat, got {other:?}"),
        }
    };
    let ((c_off, c_on), d) = timed_median(1, || (run(false), run(true)));
    let _ = d;
    row(t, "A4", "PHP(9,8) UNSAT", "conflicts, SB off", c_off.to_string(), "large");
    row(
        t,
        "A4",
        "PHP(9,8) UNSAT",
        "conflicts, SB on",
        c_on.to_string(),
        "far fewer (symmetry pruned)",
    );
}

/// X1 — Sec. 7 extension: learned envelopes (opaque-goal oracle) agree
/// with the syntactic Alg. 3 envelope.
fn x1(t: &mut Table) {
    use muppet::learn::{learn_envelope, Scope};
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);
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
    let (learned, d) = timed_median(3, || {
        learn_envelope(&mut s, mv.k8s_party, &Instance::new(), mv.istio_party, &scope, 128)
            .unwrap()
    });
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
    row(t, "X1", "8-tuple scope", "prime implicant cubes", learned.cubes.len().to_string(), "few, general");
    row(t, "X1", "8-tuple scope", "solver queries", learned.queries.to_string(), "≪ 2^8 configs");
    row(
        t,
        "X1",
        "8-tuple scope",
        "agreement with Alg. 3",
        format!("{agree}/256"),
        "256/256 (both are the envelope)",
    );
    row(t, "X1", "8-tuple scope", "time (ms)", ms(d), "< 1000");
}

/// X2 — Sec. 7 extension: mTLS/PeerAuthentication adds a sixth escape
/// hatch to the Fig. 5 envelope.
fn x2(t: &mut Table) {
    use muppet::{NamedGoal, Party, Session};
    use muppet_goals::{translate_k8s_goals, K8sGoal};
    use muppet_mesh::{Mesh, MeshVocab, Service};
    let mut mesh = Mesh::paper_example();
    mesh.add_service(Service::new("legacy-batch", [9000]).without_sidecar());
    let mv = MeshVocab::new_with_features(
        &mesh,
        [24, 26, 10000, 14000],
        muppet_logic::PartyId(0),
        muppet_logic::PartyId(1),
        true,
    );
    let mut vocab = mv.vocab.clone();
    let k8s_goals =
        translate_k8s_goals(&K8sGoal::parse_csv("23,DENY,*\n").unwrap(), &mv, &mut vocab)
            .unwrap();
    let axioms = mv.well_formedness_axioms(&mut vocab);
    let mut session = Session::new(&mv.universe, vocab, mv.sidecar_instance());
    session.add_axioms(axioms);
    session.add_party(
        Party::new(mv.k8s_party, "k8s-admin")
            .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
    );
    session.add_party(Party::new(mv.istio_party, "istio-admin"));
    let (env, d) = timed_median(REPS, || {
        session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap()
    });
    let mut inner = &env.predicates[0].formula;
    while let Formula::Forall(_, _, body) = inner {
        inner = body;
    }
    let disjuncts = match inner {
        Formula::Or(ds) => ds.len(),
        _ => 1,
    };
    row(t, "X2", "mTLS extension on", "disjunct families", disjuncts.to_string(), "6 (Fig. 5 + mTLS)");
    row(t, "X2", "mTLS extension on", "time (ms)", ms(d), "< 1000");
}

/// A1 — envelope simplification ablation.
fn a1(t: &mut Table) {
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
    row(t, "A1", "simplify=on", "formula size", lk_on.formula_size.to_string(), "smaller");
    row(t, "A1", "simplify=off", "formula size", lk_off.formula_size.to_string(), "larger");
    row(
        t,
        "A1",
        "simplify=on",
        "atoms revealed",
        lk_on.revealed_atoms.len().to_string(),
        "<= unsimplified",
    );
    row(
        t,
        "A1",
        "simplify=off",
        "atoms revealed",
        lk_off.revealed_atoms.len().to_string(),
        "-",
    );
}

/// A2 — core minimization ablation on a many-goal conflict.
fn a2(t: &mut Table) {
    use muppet_logic::PartialInstance;
    use muppet_solver::{FormulaGroup, IncrementalQuery, Outcome};
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
    let run = |minimize: bool| {
        let mut q = IncrementalQuery::new(
            sess.vocab(),
            sess.universe(),
            &free,
            &PartialInstance::new(),
            Instance::new(),
        );
        q.set_minimize_cores(minimize);
        match q.solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Unsat { core, .. } => core.len(),
            other => panic!("expected conflict, got {other:?}"),
        }
    };
    let (min_size, d_min) = timed_median(3, || run(true));
    let (raw_size, d_raw) = timed_median(3, || run(false));
    assert!(min_size <= raw_size);
    row(t, "A2", "10-goal conflict", "minimized core size", min_size.to_string(), "minimal");
    row(t, "A2", "10-goal conflict", "first core size", raw_size.to_string(), ">= minimized");
    row(t, "A2", "10-goal conflict", "minimized time (ms)", ms(d_min), "slower");
    row(t, "A2", "10-goal conflict", "first-core time (ms)", ms(d_raw), "faster");
}

/// A3 — bounds tightness ablation: free-variable counts and solve time.
fn a3(t: &mut Table) {
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
    row(t, "A3", "holes (unbounded)", "free tuple vars", vars_loose.to_string(), "large");
    row(t, "A3", "tight upper bounds", "free tuple vars", vars_tight.to_string(), "small");
    row(t, "A3", "holes (unbounded)", "time (ms)", ms(d_loose), "-");
    row(t, "A3", "tight upper bounds", "time (ms)", ms(d_tight), "<= unbounded");
}

/// D1 — daemon mode: warm sessions + the content-addressed result
/// cache. Drives the `muppetd` engine in-process (no sockets, so the
/// numbers isolate the caching layers), measures a cold conformance
/// solve against cached hits, and emits `BENCH_daemon.json`.
fn d1(t: &mut Table) {
    use muppet_daemon::json::Json;
    use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};

    let engine = Engine::new(EngineConfig::default());
    let spec = SessionSpec::paper_relaxed();

    // Cold: load + ground + encode + solve.
    let t0 = std::time::Instant::now();
    let cold = engine.handle(&Request::new(Op::CheckConformance).with_spec(spec.clone()), None);
    let cold_us = t0.elapsed().as_micros().max(1) as u64;
    assert!(cold.ok, "daemon conformance failed: {:?}", cold.error);
    assert!(!cold.cached);

    // Cached: the identical request, median of several hits.
    let mut hits = Vec::new();
    for _ in 0..9 {
        let t1 = std::time::Instant::now();
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
    let t2 = std::time::Instant::now();
    for _ in 0..burst {
        let hit = engine.handle(&Request::new(Op::CheckConformance).with_spec(spec.clone()), None);
        assert!(hit.cached);
    }
    let burst_s = t2.elapsed().as_secs_f64().max(1e-9);
    let rps = burst as f64 / burst_s;

    let stats = engine.stats_json();
    row(t, "D1", "paper (fig4)", "cold conformance (ms)", format!("{:.3}", cold_us as f64 / 1e3), "-");
    row(t, "D1", "paper (fig4)", "cached hit (ms)", format!("{:.3}", hit_us as f64 / 1e3), "-");
    row(t, "D1", "paper (fig4)", "cache speedup", format!("{speedup:.0}x"), ">= 10x");
    row(t, "D1", "paper (fig4)", "cached throughput (req/s)", format!("{rps:.0}"), "-");
    assert!(
        speedup >= 10.0,
        "cache hit must be >= 10x faster than cold: cold {cold_us}us vs hit {hit_us}us"
    );

    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-daemon-v1")),
        ("cold_us", Json::num(cold_us)),
        ("cached_us_median", Json::num(hit_us)),
        ("speedup", Json::Num(speedup)),
        ("cached_rps", Json::Num(rps)),
        ("stats", stats),
    ]);
    if let Err(e) = std::fs::write("BENCH_daemon.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_daemon.json: {e}");
    }
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
/// flight. Emits `BENCH_robustness.json` before gating so the
/// artifact exists even on a failed gate.
fn r1(t: &mut Table) {
    use muppet_daemon::json::Json;
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
    let oracle = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
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
        engine: EngineConfig { threads: 1, ..EngineConfig::default() },
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
        let t0 = std::time::Instant::now();
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
    let overload_stats =
        stats.result.get("overload").cloned().unwrap_or(Json::Null);

    // Phase 4: graceful drain with work still in flight. Park fresh
    // requests in the queue, never read them, then stop: wait() must
    // come back within the drain deadline plus scheduling slack.
    let mut parked = ep.connect(io_timeout).expect("drain connect");
    for i in 0..2u16 {
        let mut req = Request::new(Op::CheckConformance).with_spec(variant(44_000 + i));
        req.id = Some(format!("drain-{i}"));
        parked.send(&req).expect("drain send");
    }
    let t_drain = std::time::Instant::now();
    handle.stop();
    handle.wait();
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
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
    row(t, "R1", inst, "good-client requests", total_good.to_string(), "-");
    row(t, "R1", inst, "completed with a verdict", completed.to_string(), "-");
    row(t, "R1", inst, "wrong verdicts", wrong.to_string(), "0");
    row(t, "R1", inst, "retry attempts (total)", attempts.to_string(), ">= requests");
    row(t, "R1", inst, "pipelined requests unanswered", unanswered.to_string(), "0");
    row(t, "R1", inst, "sheds observed by flooders", sheds.to_string(), ">= 1");
    row(t, "R1", inst, "slow-loris killed at timeout", stall_killed.to_string(), "true");
    row(t, "R1", inst, "fault: exhaustion stays terminal", fault_exhausted_terminal.to_string(), "true");
    row(t, "R1", inst, "fault: worker panic answered", fault_panic_terminal.to_string(), "true");
    row(t, "R1", inst, "drain wall (ms)", format!("{drain_ms:.0}"), &format!("<= {drain_budget_ms:.0}"));

    // The artifact is written before any gate fires, so CI trend lines
    // survive a red run.
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-robustness-v1")),
        ("instance", Json::str(inst)),
        (
            "limits",
            Json::obj([
                ("max_queue_depth", Json::num(overload.max_queue_depth as u64)),
                ("max_inflight_per_conn", Json::num(overload.max_inflight_per_conn as u64)),
                ("retry_after_ms", Json::num(overload.retry_after_ms)),
                ("drain_deadline_ms", Json::num(overload.drain_deadline_ms)),
                ("read_timeout_ms", Json::num(overload.read_timeout_ms)),
            ]),
        ),
        ("good_requests", Json::num(total_good)),
        ("completed", Json::num(completed)),
        ("wrong_verdicts", Json::num(wrong)),
        ("retry_attempts", Json::num(attempts)),
        ("pipelined_unanswered", Json::num(unanswered)),
        ("sheds_seen_by_flooders", Json::num(sheds)),
        ("stall_killed", Json::Bool(stall_killed)),
        ("fault_exhaustion_terminal", Json::Bool(fault_exhausted_terminal)),
        ("fault_panic_terminal", Json::Bool(fault_panic_terminal)),
        ("fault_inject_compiled", Json::Bool(cfg!(feature = "fault-inject"))),
        ("drain_ms", Json::Num(drain_ms)),
        ("drain_budget_ms", Json::Num(drain_budget_ms)),
        ("overload_stats", overload_stats),
    ]);
    if let Err(e) = std::fs::write("BENCH_robustness.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_robustness.json: {e}");
    }

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

/// P1 — the portfolio lane. Three honest measurements, always written
/// to `BENCH_portfolio.json`:
///
/// 1. *Verdict parity*: the hardest UNSAT reconcile in the suite runs
///    sequentially and with a 4-worker portfolio; the rendered verdicts
///    (success, minimal blame core, degradation marker, configs) must
///    be byte-identical.
/// 2. *Search behaviour*: a symmetric UNSAT CNF (pigeonhole) solved by
///    `solve_portfolio` at 1 and 4 workers, with wall clock and clause-
///    sharing counters. The speedup field reports whatever the host
///    actually delivers — on a single hardware thread, 4 workers are
///    legitimately *slower* (diversification without parallelism).
/// 3. *Determinism*: two lockstep-mode runs must agree on verdict,
///    winner and every aggregate counter.
fn p1(t: &mut Table) {
    use muppet_daemon::json::Json;
    use muppet_portfolio::{solve_portfolio, PortfolioConfig};

    // 1. Verdict parity on a fully-conflicted (UNSAT) scenario.
    // Blameable mode so the minimal core is part of the verdict.
    let scenario = generate(ScenarioParams {
        services: 12,
        istio_goals: 14,
        k8s_goals: 3,
        conflict_fraction: 1.0,
        seed: 11,
        ..ScenarioParams::default()
    });
    let render = |rec: &Reconciliation| {
        format!(
            "success={} core={:?} exhausted={} configs={:?}",
            rec.success,
            rec.core,
            rec.exhausted.is_some(),
            rec.configs,
        )
    };
    let run = |threads: usize| {
        let mut sess = scenario.session(false);
        govern(&mut sess);
        sess.set_threads(threads);
        timed_median(3, || sess.reconcile(ReconcileMode::Blameable).unwrap())
    };
    let (seq, d_seq) = run(1);
    let (par, d_par) = run(4);
    assert!(!seq.success, "parity scenario must be UNSAT");
    let identical = render(&seq) == render(&par);
    assert!(identical, "thread counts diverged:\n  1: {}\n  4: {}", render(&seq), render(&par));
    let rec_speedup = d_seq.as_secs_f64() / d_par.as_secs_f64().max(1e-9);
    row(t, "P1", "UNSAT reconcile (12 svc)", "verdicts byte-identical", identical.to_string(), "true");
    row(t, "P1", "UNSAT reconcile (12 svc)", "threads=1 (ms)", ms(d_seq), "-");
    row(t, "P1", "UNSAT reconcile (12 svc)", "threads=4 (ms)", ms(d_par), "host-dependent");
    let pf = par.stats.portfolio;

    // 2. Portfolio search on symmetric UNSAT CNF: pigeonhole PHP(8,7),
    // the shared corpus instance `hard-php-8-7`.
    let base = muppet_bench::scenario::hard::php_cnf(8, 7).solver();
    let search = |threads: usize| {
        timed_median(3, || {
            let mut s = base.clone();
            let (r, summary) = solve_portfolio(&mut s, &[], &PortfolioConfig::with_threads(threads));
            assert!(r.is_unsat(), "PHP(8,7) must be UNSAT");
            summary
        })
    };
    let (_, d_s1) = search(1);
    let (sum4, d_s4) = search(4);
    let search_speedup = d_s1.as_secs_f64() / d_s4.as_secs_f64().max(1e-9);
    row(t, "P1", "PHP(8,7) UNSAT", "threads=1 (ms)", ms(d_s1), "-");
    row(t, "P1", "PHP(8,7) UNSAT", "threads=4 (ms)", ms(d_s4), ">= 1.5x faster on >= 4 cores");
    row(
        t,
        "P1",
        "PHP(8,7) UNSAT",
        "shared clauses exported/imported",
        format!("{} / {}", sum4.exported, sum4.imported),
        "> 0 (pool is live)",
    );

    // 3. Deterministic lockstep mode: bitwise-reproducible statistics.
    let det_cfg = PortfolioConfig {
        deterministic: true,
        slice_conflicts: 256,
        ..PortfolioConfig::with_threads(3)
    };
    let det = || {
        let mut s = base.clone();
        let (r, summary) = solve_portfolio(&mut s, &[], &det_cfg);
        assert!(r.is_unsat());
        summary
    };
    let (da, db) = (det(), det());
    assert_eq!(da, db, "deterministic mode must reproduce exactly");
    row(t, "P1", "PHP(8,7) deterministic", "two runs identical", (da == db).to_string(), "true");

    let threads_obj = |s: &muppet::PortfolioSummary| {
        Json::obj([
            ("workers", Json::num(u64::from(s.workers))),
            (
                "winner",
                s.winner.map(|w| Json::num(u64::from(w))).unwrap_or(Json::Null),
            ),
            ("exported", Json::num(s.exported)),
            ("imported", Json::num(s.imported)),
            ("restarts", Json::num(s.restarts)),
            ("conflicts", Json::num(s.conflicts)),
        ])
    };
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-portfolio-v1")),
        ("host_cores", Json::num(std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1))),
        (
            "reconcile_parity",
            Json::obj([
                ("instance", Json::str("12 services, fully conflicted, blameable")),
                ("verdicts_identical", Json::Bool(identical)),
                ("verdict", Json::str(render(&seq))),
                ("threads1_ms", Json::Num(d_seq.as_secs_f64() * 1e3)),
                ("threads4_ms", Json::Num(d_par.as_secs_f64() * 1e3)),
                ("speedup", Json::Num(rec_speedup)),
                (
                    "portfolio",
                    pf.as_ref().map(threads_obj).unwrap_or(Json::Null),
                ),
            ]),
        ),
        (
            "search",
            Json::obj([
                ("instance", Json::str("PHP(8,7)")),
                ("threads1_ms", Json::Num(d_s1.as_secs_f64() * 1e3)),
                ("threads4_ms", Json::Num(d_s4.as_secs_f64() * 1e3)),
                ("speedup", Json::Num(search_speedup)),
                ("threads4", threads_obj(&sum4)),
            ]),
        ),
        (
            "deterministic",
            Json::obj([
                ("instance", Json::str("PHP(8,7), 3 workers, lockstep")),
                ("reproducible", Json::Bool(da == db)),
                ("summary", threads_obj(&da)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write("BENCH_portfolio.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_portfolio.json: {e}");
    }
}

/// O1 — the observability lane (DESIGN.md §12). Four honest checks,
/// always written to `BENCH_obs.json`:
///
/// 1. *Traced scenarios*: the paper tables run end-to-end with
///    tracing on and a [`muppet_obs::PhaseAccumulator`] registered;
///    the profiler must see every solve phase (`ground` → `encode` →
///    `search`) and the per-phase totals become the breakdown table.
/// 2. *Schema validation*: every span tree in the ring round-trips
///    through the daemon's hardened JSON parser and carries the
///    `name`/`start_us`/`elapsed_us`/`counters`/`attrs` fields at
///    every node.
/// 3. *Overhead gate*: the disabled-tracing span call is
///    micro-benched (it must cost one relaxed atomic load); the
///    implied per-solve overhead against an untraced paper reconcile
///    must stay ≤ 2%.
/// 4. The per-phase breakdown lands in `BENCH_obs.json`.
fn o1(t: &mut Table) {
    use muppet_daemon::json::{parse, Json};
    use muppet_obs::PhaseAccumulator;

    let was_enabled = muppet_obs::tracing_enabled();
    muppet_obs::clear_profilers();
    let acc = PhaseAccumulator::new();
    muppet_obs::on_span_close(acc.callback());
    muppet_obs::set_enabled(true);

    // 1. Traced scenario set: the paper tables, end to end.
    let mv = vocab();
    let mut strict = session(&mv, IstioTable::Fig3);
    govern(&mut strict);
    let rec = strict.reconcile(ReconcileMode::Blameable).unwrap();
    assert!(!rec.success, "strict paper tables must conflict");
    let mut relaxed = session(&mv, IstioTable::Fig4);
    govern(&mut relaxed);
    let rec = relaxed.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success, "relaxed paper tables must synthesize");
    let lc = relaxed.local_consistency(mv.istio_party).unwrap();
    assert!(lc.ok);
    strict
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();

    // 2. Schema validation through the daemon's own JSON parser.
    let traces = muppet_obs::recent_traces(muppet_obs::ring_capacity());
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

    let totals = acc.drain();
    muppet_obs::clear_profilers();
    for phase in ["reconcile", "ground", "encode", "search"] {
        assert!(totals.contains_key(phase), "profiler must see phase {phase:?}");
    }

    // 3. Overhead gate: with tracing disabled a span call is one
    // relaxed atomic load + an inert guard drop.
    muppet_obs::set_enabled(false);
    let probes = 4_000_000u64;
    let t0 = std::time::Instant::now();
    for _ in 0..probes {
        drop(std::hint::black_box(muppet_obs::span("overhead-probe")));
    }
    let disabled_ns = t0.elapsed().as_nanos() as f64 / probes as f64;
    let mut sess = session(&mv, IstioTable::Fig4);
    govern(&mut sess);
    let (rec, d_solve) =
        timed_median(REPS, || sess.reconcile(ReconcileMode::HardBounds).unwrap());
    assert!(rec.success);
    let overhead_pct =
        spans_per_solve as f64 * disabled_ns / (d_solve.as_secs_f64() * 1e9).max(1.0) * 100.0;
    assert!(
        overhead_pct <= 2.0,
        "disabled-tracing overhead {overhead_pct:.4}% breaks the 2% budget: \
         {spans_per_solve} spans x {disabled_ns:.1}ns against a {:.1}ms solve",
        d_solve.as_secs_f64() * 1e3
    );
    muppet_obs::set_enabled(was_enabled);

    for (name, p) in &totals {
        row(
            t,
            "O1",
            "paper scenarios",
            &format!("phase {name}"),
            format!("{}x / {}us total / {}us max", p.count, p.total_us, p.max_us),
            "per-phase breakdown",
        );
    }
    row(
        t,
        "O1",
        "span schema",
        "trees / spans validated",
        format!("{} / {spans_validated}", traces.len()),
        "all ring trees parse",
    );
    row(
        t,
        "O1",
        "overhead",
        "disabled span (ns)",
        format!("{disabled_ns:.1}"),
        "one relaxed atomic load",
    );
    row(
        t,
        "O1",
        "overhead",
        "implied per-solve (%)",
        format!("{overhead_pct:.4}"),
        "<= 2",
    );

    let phases = Json::Obj(
        totals
            .iter()
            .map(|(name, p)| {
                (
                    (*name).to_string(),
                    Json::obj([
                        ("count", Json::num(p.count)),
                        ("total_us", Json::num(p.total_us)),
                        ("max_us", Json::num(p.max_us)),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-obs-v1")),
        ("phases", phases),
        (
            "traces",
            Json::obj([
                ("trees", Json::num(traces.len() as u64)),
                ("spans_validated", Json::num(spans_validated)),
                ("ring_capacity", Json::num(muppet_obs::ring_capacity() as u64)),
            ]),
        ),
        (
            "overhead",
            Json::obj([
                ("disabled_span_ns", Json::Num(disabled_ns)),
                ("spans_per_solve", Json::num(spans_per_solve)),
                ("solve_ms", Json::Num(d_solve.as_secs_f64() * 1e3)),
                ("overhead_pct", Json::Num(overhead_pct)),
                ("budget_pct", Json::Num(2.0)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write("BENCH_obs.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_obs.json: {e}");
    }
}

/// S1 — the scale lane (DESIGN.md §15). Runs the committed scenario
/// corpus end to end and gates every observed verdict against its
/// committed label: always the `smoke` + `paper` tiers plus the two
/// headline 1000-service `large` entries; the full `large` and `hard`
/// tiers when `MUPPET_SCALE=full`. Mesh entries run the whole
/// ground → encode → search pipeline with the obs profiler attached,
/// so `BENCH_scale.json` carries per-phase timings for every scenario.
/// The lane also regenerates the headline scenario twice and gates
/// byte-identical output (manifests, goal tables, provenance JSON).
/// `BENCH_scale.json` is always written before any gate fires.
fn s1(t: &mut Table) {
    use muppet_bench::scenario::corpus::{self, Kind, Tier};
    use muppet_daemon::json::Json;
    use muppet_obs::PhaseAccumulator;

    let full = std::env::var("MUPPET_SCALE").map(|v| v == "full").unwrap_or(false);
    let headline = ["large-1000-sat", "large-1000-unsat"];
    let selected: Vec<&corpus::CorpusEntry> = corpus::CORPUS
        .iter()
        .filter(|e| match e.tier {
            Tier::Smoke | Tier::Paper => true,
            Tier::Large => full || headline.contains(&e.name),
            Tier::Hard => full,
        })
        .collect();

    let was_enabled = muppet_obs::tracing_enabled();
    let mut scenarios: Vec<Json> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    let mut largest_phases: Option<(String, BTreeMap<&'static str, muppet_obs::PhaseTotals>)> =
        None;
    let mut largest_services = 0usize;
    for entry in &selected {
        muppet_obs::clear_profilers();
        let acc = PhaseAccumulator::new();
        muppet_obs::on_span_close(acc.callback());
        muppet_obs::set_enabled(true);
        let start = std::time::Instant::now();
        let got = corpus::solver_verdict(entry);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let totals = acc.drain();
        muppet_obs::clear_profilers();
        muppet_obs::set_enabled(was_enabled);

        let ok = got == entry.expected;
        if !ok {
            mismatches.push(format!(
                "{}: expected {}, got {got}",
                entry.name, entry.expected
            ));
        }
        row(
            t,
            "S1",
            entry.name,
            "verdict",
            format!("{got} in {wall_ms:.0} ms"),
            entry.expected.label(),
        );
        if let Kind::Mesh(params) = entry.kind {
            if params.services > largest_services {
                largest_services = params.services;
                largest_phases = Some((entry.name.to_string(), totals.clone()));
            }
        }
        let phases = Json::Obj(
            totals
                .iter()
                .map(|(name, p)| {
                    (
                        (*name).to_string(),
                        Json::obj([
                            ("count", Json::num(p.count)),
                            ("total_us", Json::num(p.total_us)),
                            ("max_us", Json::num(p.max_us)),
                        ]),
                    )
                })
                .collect(),
        );
        scenarios.push(Json::obj([
            ("name", Json::str(entry.name)),
            ("tier", Json::str(entry.tier.name())),
            ("expected", Json::str(entry.expected.label())),
            ("got", Json::str(got.label())),
            ("ok", Json::Bool(ok)),
            ("wall_ms", Json::Num(wall_ms)),
            ("phases", phases),
        ]));
    }

    // Determinism gate: the headline scenario regenerated from scratch
    // must be byte-identical — manifests, goal tables and provenance.
    let head = corpus::entry("large-1000-sat").expect("headline entry exists");
    let Kind::Mesh(params) = head.kind else {
        panic!("headline entry must be a mesh scenario")
    };
    let a = muppet_bench::scenario::generate(params);
    let b = muppet_bench::scenario::generate(params);
    let regen_identical = a.wire_content() == b.wire_content()
        && a.provenance_json(head.name) == b.provenance_json(head.name);
    row(
        t,
        "S1",
        head.name,
        "regeneration byte-identical",
        regen_identical.to_string(),
        "true (seeded determinism)",
    );

    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-scale-v1")),
        ("mode", Json::str(if full { "full" } else { "headline" })),
        ("regeneration_identical", Json::Bool(regen_identical)),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    if let Err(e) = std::fs::write("BENCH_scale.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_scale.json: {e}");
    }

    // Gates fire only after BENCH_scale.json is on disk.
    assert!(mismatches.is_empty(), "corpus label mismatches: {mismatches:?}");
    assert!(regen_identical, "same seed + params must regenerate byte-identically");
    let (largest_name, phases) = largest_phases.expect("lane must run a mesh scenario");
    assert!(
        largest_services >= 1000,
        "scale lane must solve a >= 1000-service mesh (got {largest_services})"
    );
    for phase in ["ground", "encode", "search"] {
        let p = match phases.get(phase) {
            Some(p) => p,
            None => panic!("{largest_name}: no {phase} phase recorded"),
        };
        row(
            t,
            "S1",
            &largest_name,
            &format!("phase {phase}"),
            format!("{}x / {}us total / {}us max", p.count, p.total_us, p.max_us),
            "per-phase breakdown",
        );
    }
}

/// N1 — the incremental-engine lane (DESIGN.md §13). The paper's
/// K8s/Istio negotiation (Fig. 2 vs Fig. 3, the mesh admin's rows soft
/// so blamed ones can be conceded) runs as repeated episodes the way
/// the daemon replays `NegotiateRound`: the **warm** path lends one
/// `PreparedStore` to every episode's session, the **cold** path runs
/// every episode on a fresh `Session`. Two gates, always written to
/// `BENCH_incremental.json`:
///
/// 1. *Byte identity*: every episode's verdict, round count, delivered
///    configs and full trace (the counter-offer sequence) must be
///    identical between the two paths.
/// 2. *Work ratio*: the fresh sessions must re-encode >= 3x more CNF
///    groups than the shared store, measured as deltas of the global
///    `engine.groups.encoded` counter around each phase.
fn n1(t: &mut Table) {
    use muppet_daemon::json::Json;
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
    let encoded = || {
        muppet_obs::registry()
            .snapshot()
            .counter("engine.groups.encoded")
            .unwrap_or(0)
    };

    // Warm: one store lent to every episode, the daemon's lifetime shape.
    let mut store = PreparedStore::new();
    let warm_before = encoded();
    let t0 = std::time::Instant::now();
    let warm_reports: Vec<_> = (0..EPISODES)
        .map(|_| {
            let mut s = build();
            std::mem::swap(s.store_mut(), &mut store);
            let report =
                run_negotiation(&mut s, &mut negs(), MAX_ROUNDS, Schedule::RoundRobin).unwrap();
            std::mem::swap(s.store_mut(), &mut store);
            report
        })
        .collect();
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_encoded = encoded() - warm_before;

    // Cold: identical episodes, each on a fresh session.
    let cold_before = encoded();
    let t1 = std::time::Instant::now();
    let cold_reports: Vec<_> = (0..EPISODES)
        .map(|_| {
            run_negotiation(&mut build(), &mut negs(), MAX_ROUNDS, Schedule::RoundRobin).unwrap()
        })
        .collect();
    let cold_ms = t1.elapsed().as_secs_f64() * 1e3;
    let cold_encoded = encoded() - cold_before;

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
    let inst = format!("paper fig2/fig3, {EPISODES} episodes");
    row(t, "N1", &inst, "verdicts + traces byte-identical", identical.to_string(), "true");
    row(t, "N1", &inst, "rounds per episode", warm_reports[0].rounds.to_string(), "-");
    row(t, "N1", &inst, "groups encoded (warm)", warm_encoded.to_string(), "-");
    row(t, "N1", &inst, "groups encoded (cold)", cold_encoded.to_string(), "-");
    row(t, "N1", &inst, "cold/warm encode ratio", format!("{ratio:.1}x"), ">= 3x");
    row(t, "N1", &inst, "warm wall (ms)", format!("{warm_ms:.1}"), "-");
    row(t, "N1", &inst, "cold wall (ms)", format!("{cold_ms:.1}"), "-");
    assert!(
        ratio >= 3.0,
        "fresh sessions must re-encode >= 3x more groups than a shared store: \
         cold {cold_encoded} vs warm {warm_encoded}"
    );

    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-incremental-v1")),
        ("instance", Json::str("paper fig2 vs fig3, istio rows soft")),
        ("episodes", Json::num(EPISODES as u64)),
        ("rounds_per_episode", Json::num(warm_reports[0].rounds as u64)),
        ("verdicts_identical", Json::Bool(identical)),
        ("verdict", Json::str(render(&warm_reports[0]))),
        (
            "warm",
            Json::obj([
                ("groups_encoded", Json::num(warm_encoded)),
                ("wall_ms", Json::Num(warm_ms)),
            ]),
        ),
        (
            "cold",
            Json::obj([
                ("groups_encoded", Json::num(cold_encoded)),
                ("wall_ms", Json::Num(cold_ms)),
            ]),
        ),
        ("encode_ratio", Json::Num(ratio)),
        ("gate_ratio", Json::Num(3.0)),
    ]);
    if let Err(e) = std::fs::write("BENCH_incremental.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_incremental.json: {e}");
    }
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
/// Two gates, applied only after `BENCH_stream.json` is on disk:
///
/// 1. *Byte identity*: the warm verdict line (canonical lex-min model
///    or ordered-deletion minimal core) equals the cold oracle's at
///    the initial state and after every one of the >= 200 deltas;
/// 2. *Amortized speedup*: total cold wall over total warm wall must
///    be >= 5x — multi-shot solving has to beat re-solving from
///    scratch by a wide margin, not a rounding error.
fn w1(t: &mut Table) {
    use muppet_bench::scenario::corpus::{self, Kind};
    use muppet_daemon::json::Json;
    use muppet_stream::{verdict_line, StreamSession, StreamSpec};

    // The bounded-offer churn entry: tight offers keep the free tuple
    // count under the solver's canonicalization cap, so warm and cold
    // SAT answers are both canonical (byte-comparable) — and grounding
    // plus encoding dominate each cold solve, which is exactly the work
    // the multi-shot session amortizes.
    let entry = corpus::entry("stream-bounded-churn").expect("committed stream entry");
    let Kind::Stream(params) = entry.kind else {
        panic!("stream-bounded-churn must be a stream corpus entry")
    };
    assert!(params.deltas >= 200, "the speedup gate needs a >= 200-delta stream");
    let stream = muppet_bench::scenario::generate_stream(params);

    // Warm: one multi-shot session across the whole stream.
    let t0 = std::time::Instant::now();
    let (mut warm, initial) =
        StreamSession::new(StreamSpec::from(&stream.base)).expect("initial state solves");
    let mut warm_verdicts: Vec<String> = vec![initial.verdict.clone()];
    let mut flips = 0u64;
    let mut max_delta_us = initial.elapsed_us;
    for d in &stream.deltas {
        let s = warm.push(d).expect("committed stream replays warm");
        flips += u64::from(s.flipped);
        max_delta_us = max_delta_us.max(s.elapsed_us);
        warm_verdicts.push(s.verdict);
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (encoded, reused) = warm.group_counters();

    // Cold oracle: the identical state sequence, each solved from
    // scratch. Same session construction and thread count as the warm
    // path, so any divergence is the multi-shot engine's fault.
    let mut cold_spec = StreamSpec::from(&stream.base);
    let cold_solve = |spec: &StreamSpec| -> String {
        let mv = spec.vocab();
        let mut s = spec.session(&mv).expect("cold session builds");
        s.set_threads(1);
        let rec = s.reconcile(ReconcileMode::HardBounds).expect("cold reconcile");
        assert!(rec.exhausted.is_none(), "cold oracle must not exhaust");
        verdict_line(&rec)
    };
    let t1 = std::time::Instant::now();
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
    let cold_ms = t1.elapsed().as_secs_f64() * 1e3;

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
    let warm_amortized_us = warm_ms * 1e3 / solves as f64;
    let cold_amortized_us = cold_ms * 1e3 / solves as f64;

    let inst = format!("{} ({} deltas)", entry.name, stream.deltas.len());
    row(t, "W1", &inst, "verdicts byte-identical", format!("{identical}/{solves}"), "all");
    row(t, "W1", &inst, "amortized speedup", format!("{speedup:.1}x"), ">= 5x");
    row(
        t,
        "W1",
        &inst,
        "warm amortized per delta (ms)",
        format!("{:.2}", warm_amortized_us / 1e3),
        "-",
    );
    row(
        t,
        "W1",
        &inst,
        "cold amortized per delta (ms)",
        format!("{:.2}", cold_amortized_us / 1e3),
        "-",
    );
    row(t, "W1", &inst, "warm max delta (ms)", format!("{:.2}", max_delta_us as f64 / 1e3), "-");
    row(t, "W1", &inst, "verdict flips observed", flips.to_string(), "-");
    row(
        t,
        "W1",
        &inst,
        "groups encoded / reused",
        format!("{encoded} / {reused}"),
        "reuse dominates",
    );

    // The artifact is written before any gate fires, so CI trend lines
    // survive a red run.
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-stream-v1")),
        ("entry", Json::str(entry.name)),
        ("profile", Json::str(params.profile.name())),
        ("deltas", Json::num(stream.deltas.len() as u64)),
        ("solves", Json::num(solves as u64)),
        ("verdicts_identical", Json::num(identical as u64)),
        (
            "first_divergence_seq",
            match first_divergence {
                Some(i) => Json::num(i as u64),
                None => Json::Null,
            },
        ),
        ("verdict_flips", Json::num(flips)),
        (
            "warm",
            Json::obj([
                ("wall_ms", Json::Num(warm_ms)),
                ("amortized_us_per_delta", Json::Num(warm_amortized_us)),
                ("max_delta_us", Json::num(max_delta_us)),
                ("groups_encoded", Json::num(encoded)),
                ("groups_reused", Json::num(reused)),
            ]),
        ),
        (
            "cold",
            Json::obj([
                ("wall_ms", Json::Num(cold_ms)),
                ("amortized_us_per_delta", Json::Num(cold_amortized_us)),
            ]),
        ),
        ("amortized_speedup", Json::Num(speedup)),
        ("gate_speedup", Json::Num(5.0)),
    ]);
    if let Err(e) = std::fs::write("BENCH_stream.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_stream.json: {e}");
    }

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
}

/// K1 — the SAT-kernel speed lane (DESIGN.md §17).
///
/// **Part A** solves every hard-tier CNF corpus entry sequentially
/// under two in-binary kernel profiles: the legacy pre-change kernel
/// ([`muppet_sat::Solver::set_legacy_kernel`] — flat reduction, Luby
/// schedule, no inprocessing, one-step minimization, fixed decay: the
/// pre-upgrade oracle) and the tuned defaults (tiered clause DB,
/// inprocessing with geometric backoff, recursive minimization, decay
/// ramp). Work counters are deterministic per profile; wall clock is
/// not, so timings are best-of-3. Both profiles must reproduce the
/// committed verdict on every entry, and on `hard-pup-unsat-5` — the
/// refutation the speed program is gated on — the tuned kernel must
/// finish in ≤ 0.8x the legacy wall time.
///
/// **Part B** solves the committed minimal-edit scenario
/// (`minedit(400, 50, 8)`: optimal distance 50 by construction, 800
/// free tuples, one-of-16 goals) with the core-guided (OLL) and
/// linear-search `solve_target` strategies. Two measurements: a
/// *timed* pass with the canonical walk disabled (it costs the same in
/// both arms and would only blur the optimization-search comparison)
/// gating core-guided at ≥ 2x less deterministic solver work
/// (propagations) than linear, wall clock reported best-of-3; and a
/// *parity* pass with unconditional canonicalization gating
/// byte-identical solutions at the constructed optimum.
///
/// `BENCH_kernel.json` — per-entry walls + verdicts + kernel work
/// counters (conflicts, inprocessing passes, subsumed / strengthened /
/// vivified clauses, tier churn) and per-phase minedit timings — is
/// always written before any gate fires.
fn k1(t: &mut Table) {
    use muppet_bench::scenario::corpus::{self, Tier};
    use muppet_bench::scenario::minedit::minedit;
    use muppet_daemon::json::Json;
    use muppet_obs::PhaseAccumulator;
    use muppet_sat::{SolveResult, Solver, SolverStats};
    use muppet_solver::TargetStrategy;

    const BEST_OF: usize = 3;
    const GATED: &str = "hard-pup-unsat-5";
    const WALL_CEILING: f64 = 0.8;
    const OLL_FLOOR: f64 = 2.0;

    // ---- Part A: hard-tier CNF corpus, legacy vs tuned kernel ----
    let stats_json = |s: &SolverStats| {
        Json::obj([
            ("conflicts", Json::num(s.conflicts)),
            ("propagations", Json::num(s.propagations)),
            ("restarts", Json::num(s.restarts)),
            ("learned", Json::num(s.learned_clauses)),
            ("deleted", Json::num(s.deleted_clauses)),
            ("inprocessings", Json::num(s.inprocessings)),
            ("subsumed", Json::num(s.subsumed_clauses)),
            ("strengthened", Json::num(s.strengthened_clauses)),
            ("vivified", Json::num(s.vivified_clauses)),
            ("tier_demotions", Json::num(s.tier_demotions)),
            ("tier_promotions", Json::num(s.tier_promotions)),
        ])
    };
    let mut entries: Vec<Json> = Vec::new();
    let mut parity_failures: Vec<String> = Vec::new();
    let mut gated_ratio: Option<f64> = None;
    for entry in corpus::entries(Tier::Hard) {
        let inst = corpus::cnf_instance(entry.kind).expect("hard tier is CNF-backed");
        let profile = |legacy: bool| -> (f64, bool, SolverStats) {
            let mut best: Option<(f64, bool, SolverStats)> = None;
            for _ in 0..BEST_OF {
                let mut s: Solver = inst.solver();
                if legacy {
                    s.set_legacy_kernel();
                }
                let start = std::time::Instant::now();
                let sat = matches!(s.solve(), SolveResult::Sat(_));
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                if best.as_ref().is_none_or(|(w, _, _)| wall_ms < *w) {
                    best = Some((wall_ms, sat, s.stats));
                }
            }
            best.expect("BEST_OF > 0")
        };
        let (legacy_ms, legacy_sat, legacy_stats) = profile(true);
        let (tuned_ms, tuned_sat, tuned_stats) = profile(false);
        for (kernel, sat) in [("legacy", legacy_sat), ("tuned", tuned_sat)] {
            if !entry.expected.matches_success(sat) {
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
        row(
            t,
            "K1",
            entry.name,
            "tuned vs legacy kernel",
            format!(
                "{tuned_ms:.0} ms vs {legacy_ms:.0} ms (ratio {ratio:.2}, \
                 {} vs {} conflicts)",
                tuned_stats.conflicts, legacy_stats.conflicts
            ),
            if entry.name == GATED {
                "ratio <= 0.8 (speed gate)"
            } else {
                "verdict parity"
            },
        );
        entries.push(Json::obj([
            ("name", Json::str(entry.name)),
            ("expected", Json::str(entry.expected.label())),
            ("verdict_parity", Json::Bool(
                entry.expected.matches_success(legacy_sat)
                    && entry.expected.matches_success(tuned_sat),
            )),
            ("legacy_wall_ms", Json::Num(legacy_ms)),
            ("tuned_wall_ms", Json::Num(tuned_ms)),
            ("ratio", Json::Num(ratio)),
            ("gated", Json::Bool(entry.name == GATED)),
            ("legacy", stats_json(&legacy_stats)),
            ("tuned", stats_json(&tuned_stats)),
        ]));
    }

    // ---- Part B: minedit, core-guided vs linear solve_target ----
    let sc = minedit(400, 50, 8);
    const MINEDIT: &str = "minedit-400-50x8";
    let was_enabled = muppet_obs::tracing_enabled();
    // Timed pass: canonical walk off (it costs the same in both arms),
    // so wall + work counters measure the optimization search alone.
    // Work counters are deterministic; wall is best-of-3.
    let timed_run = |strategy: TargetStrategy| {
        let mut best: Option<(f64, usize, u64, u64, Json)> = None;
        for _ in 0..BEST_OF {
            let mut q = sc.engine();
            q.set_target_strategy(strategy);
            q.set_canonical_cap(0);
            muppet_obs::clear_profilers();
            let acc = PhaseAccumulator::new();
            muppet_obs::on_span_close(acc.callback());
            muppet_obs::set_enabled(true);
            let start = std::time::Instant::now();
            let (out, d) = q
                .solve_target(&sc.groups, &sc.target, Budget::unlimited())
                .expect("minedit groups ground");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let totals = acc.drain();
            muppet_obs::clear_profilers();
            muppet_obs::set_enabled(was_enabled);
            let stats = out.stats();
            let (props, confl) = (stats.propagations, stats.conflicts);
            assert!(out.is_sat(), "minedit must be satisfiable");
            let phases = Json::Obj(
                totals
                    .iter()
                    .map(|(name, p)| {
                        (
                            (*name).to_string(),
                            Json::obj([
                                ("count", Json::num(p.count)),
                                ("total_us", Json::num(p.total_us)),
                                ("max_us", Json::num(p.max_us)),
                            ]),
                        )
                    })
                    .collect(),
            );
            if best.as_ref().is_none_or(|(w, _, _, _, _)| wall_ms < *w) {
                best = Some((wall_ms, d, props, confl, phases));
            }
        }
        best.expect("BEST_OF > 0")
    };
    let (oll_ms, oll_d, oll_props, oll_confl, oll_phases) =
        timed_run(TargetStrategy::CoreGuided);
    let (lin_ms, lin_d, lin_props, lin_confl, lin_phases) =
        timed_run(TargetStrategy::Linear);
    let wall_speedup = lin_ms / oll_ms.max(1e-9);
    let work_speedup = lin_props as f64 / oll_props.max(1) as f64;
    // Parity pass: unconditional canonicalization (800 free tuples is
    // past the default cap), so both strategies must land on the same
    // byte-identical distance-minimal model.
    let parity_run = |strategy: TargetStrategy| {
        let mut q = sc.engine();
        q.set_target_strategy(strategy);
        q.set_canonical_cap(usize::MAX);
        let (out, d) = q
            .solve_target(&sc.groups, &sc.target, Budget::unlimited())
            .expect("minedit groups ground");
        format!("{:?} at distance {d}", out.solution())
    };
    let identical =
        parity_run(TargetStrategy::CoreGuided) == parity_run(TargetStrategy::Linear);
    row(
        t,
        "K1",
        MINEDIT,
        "core-guided vs linear",
        format!(
            "{oll_ms:.0} ms / {oll_props} props vs {lin_ms:.0} ms / {lin_props} \
             props ({work_speedup:.1}x work, {wall_speedup:.1}x wall), \
             distance {oll_d} vs {lin_d}, canonical-identical {identical}"
        ),
        "work >= 2x, distance 50, byte-identical",
    );

    // BENCH_kernel.json lands before any gate fires, so a red gate
    // still leaves the full measurement on disk.
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-kernel-v1")),
        ("best_of", Json::num(BEST_OF as u64)),
        ("entries", Json::Arr(entries)),
        (
            "minedit",
            Json::obj([
                ("name", Json::str(MINEDIT)),
                ("optimum", Json::num(sc.optimum as u64)),
                (
                    "core_guided",
                    Json::obj([
                        ("wall_ms", Json::Num(oll_ms)),
                        ("distance", Json::num(oll_d as u64)),
                        ("propagations", Json::num(oll_props)),
                        ("conflicts", Json::num(oll_confl)),
                        ("phases", oll_phases),
                    ]),
                ),
                (
                    "linear",
                    Json::obj([
                        ("wall_ms", Json::Num(lin_ms)),
                        ("distance", Json::num(lin_d as u64)),
                        ("propagations", Json::num(lin_props)),
                        ("conflicts", Json::num(lin_confl)),
                        ("phases", lin_phases),
                    ]),
                ),
                ("wall_speedup", Json::Num(wall_speedup)),
                ("work_speedup", Json::Num(work_speedup)),
                ("identical", Json::Bool(identical)),
            ]),
        ),
        (
            "gates",
            Json::obj([
                ("wall_ceiling", Json::Num(WALL_CEILING)),
                ("oll_floor", Json::Num(OLL_FLOOR)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write("BENCH_kernel.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_kernel.json: {e}");
    }

    // Gates fire only after BENCH_kernel.json is on disk.
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
    assert_eq!(oll_d, sc.optimum, "core-guided missed the constructed optimum");
    assert_eq!(lin_d, sc.optimum, "linear search missed the constructed optimum");
    assert!(identical, "strategies must canonicalize to the same model");
    assert!(
        work_speedup >= OLL_FLOOR,
        "core-guided solve_target must do >= {OLL_FLOOR}x less solver work than \
         linear on minedit, measured {work_speedup:.1}x ({oll_props} vs {lin_props} \
         propagations)"
    );
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
///
/// `BENCH_domains.json` is always written before any gate fires.
fn m1(t: &mut Table) {
    use muppet_bench::scenario::corpus;
    use muppet_daemon::json::Json;
    use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};

    const INST: &str = "linkerd-shop";

    // ---- Part A: the Linkerd domain through the daemon ----
    let entry = corpus::entry(INST).expect("linkerd corpus entry is committed");
    let engine = Engine::new(EngineConfig::default());
    let spec = SessionSpec::linkerd_example();

    let t0 = std::time::Instant::now();
    let open = engine.handle(&Request::new(Op::OpenSession).with_spec(spec.clone()), None);
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
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

    let t1 = std::time::Instant::now();
    let mut rec_req = Request::new(Op::Reconcile).with_spec(spec.clone());
    rec_req.mode = Some("blameable".to_string());
    let rec = engine.handle(&rec_req, None);
    let rec_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(rec.ok, "reconcile failed: {:?}", rec.error);
    let rec_success = rec.result.get("success").and_then(Json::as_bool) == Some(true);
    let core_len = match rec.result.get("core") {
        Some(Json::Arr(items)) => items.len(),
        _ => 0,
    };
    let core_text = rec
        .result
        .get("core")
        .map(Json::to_line)
        .unwrap_or_default();
    let blames_both =
        core_text.contains("platform-admin") && core_text.contains("linkerd-admin");

    let t2 = std::time::Instant::now();
    let mut neg_req = Request::new(Op::NegotiateRound).with_spec(spec.clone());
    neg_req.max_rounds = Some(12);
    let neg = engine.handle(&neg_req, None);
    let neg_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert!(neg.ok, "negotiate_round failed: {:?}", neg.error);
    let neg_success = neg.result.get("success").and_then(Json::as_bool) == Some(true);
    let neg_rounds = neg
        .result
        .get("rounds")
        .and_then(Json::as_u64)
        .unwrap_or(0);

    row(t, "M1", INST, "domain (open_session)", domain.clone(), "linkerd");
    row(
        t,
        "M1",
        INST,
        "per-party consistency",
        format!("platform {platform_ok}, linkerd {linkerd_ok}"),
        "both true",
    );
    row(
        t,
        "M1",
        INST,
        "reconcile verdict",
        format!(
            "{} in {rec_ms:.0} ms, core {core_len} goals, blames both {blames_both}",
            if rec_success { "sat" } else { "unsat" }
        ),
        &format!("{} (committed label), blame both admins", entry.expected.label()),
    );
    row(
        t,
        "M1",
        INST,
        "negotiation (soft linkerd rows)",
        format!(
            "{} after {neg_rounds} round(s) in {neg_ms:.0} ms",
            if neg_success { "converged" } else { "stuck" }
        ),
        "converges",
    );

    // ---- Part B: N=3 round-robin negotiation to fixpoint ----
    use muppet::{NamedGoal, Party};
    use muppet_logic::{Domain, PartyId, Term, Universe, Vocabulary};
    use std::collections::BTreeMap;

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
    let t3 = std::time::Instant::now();
    let first = run_negotiation(&mut s, &mut negs, 12, Schedule::RoundRobin)
        .expect("3-party negotiation runs");
    let neg3_ms = t3.elapsed().as_secs_f64() * 1e3;
    // Fixpoint: negotiating again from the converged goal state must
    // agree immediately (one round, nothing revised).
    let second = run_negotiation(&mut s, &mut negs, 12, Schedule::RoundRobin)
        .expect("fixpoint negotiation runs");
    row(
        t,
        "M1",
        "three-party",
        "round-robin convergence",
        format!(
            "{} after {} round(s) in {neg3_ms:.0} ms; re-run {} in {} round(s)",
            if first.success { "converged" } else { "stuck" },
            first.rounds,
            if second.success { "agreed" } else { "stuck" },
            second.rounds
        ),
        "converges; re-run is a 1-round fixpoint",
    );

    // BENCH_domains.json lands before any gate fires.
    let doc = Json::obj([
        ("schema", Json::str("muppet-bench-domains-v1")),
        (
            "linkerd",
            Json::obj([
                ("entry", Json::str(entry.name)),
                ("expected", Json::str(entry.expected.label())),
                ("domain", Json::str(&domain)),
                ("open_ms", Json::Num(open_ms)),
                ("platform_consistent", Json::Bool(platform_ok)),
                ("linkerd_consistent", Json::Bool(linkerd_ok)),
                ("reconcile_success", Json::Bool(rec_success)),
                ("reconcile_ms", Json::Num(rec_ms)),
                ("core_goals", Json::num(core_len as u64)),
                ("blames_both_admins", Json::Bool(blames_both)),
                ("negotiate_success", Json::Bool(neg_success)),
                ("negotiate_rounds", Json::num(neg_rounds)),
                ("negotiate_ms", Json::Num(neg_ms)),
            ]),
        ),
        (
            "three_party",
            Json::obj([
                ("success", Json::Bool(first.success)),
                ("rounds", Json::num(first.rounds as u64)),
                ("wall_ms", Json::Num(neg3_ms)),
                ("fixpoint_success", Json::Bool(second.success)),
                ("fixpoint_rounds", Json::num(second.rounds as u64)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write("BENCH_domains.json", doc.to_line() + "\n") {
        eprintln!("muppet-harness: cannot write BENCH_domains.json: {e}");
    }

    // Gates (after the bench file is on disk).
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
