//! End-to-end pipeline tests spanning every crate, plus the paper-scale
//! latency gate (experiment E4's "modest scenarios … under 1 second").

use std::time::{Duration, Instant};

use muppet::conformance::run_conformance;
use muppet::{baseline, ReconcileMode};
use muppet_logic::Instance;
use muppet_mesh::{evaluate_flow, Flow};
use muppet_scenario::paper::{session, vocab, IstioTable};
use muppet_scenario::{generate, ScenarioParams};

/// Run `f` once and return its result with the wall-clock duration.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    (f(), start.elapsed())
}

/// E1 + E2 + E5 in one sweep: the strict instance conflicts with a
/// 2-element core that the baseline cannot produce; the relaxed instance
/// synthesizes and survives dataplane re-verification through YAML.
#[test]
fn paper_walkthrough_end_to_end() {
    let mv = vocab();

    // E1: conflict with exact blame.
    let mut strict = session(&mv, IstioTable::Fig3);
    let rec = strict.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(!rec.success);
    assert_eq!(rec.core.len(), 2);

    // E5: baseline agrees on the verdict but is informationless.
    let b = baseline::monolithic_synthesis(&mut strict).unwrap();
    assert!(!b.success);

    // E2: relax, synthesize, decompile, re-parse, re-verify.
    let mut relaxed = session(&mv, IstioTable::Fig4);
    let rec = relaxed.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success);
    let k8s_cfg = &rec.configs[&mv.k8s_party];
    let istio_cfg = &rec.configs[&mv.istio_party];

    // Through the manifest layer and back.
    let mut yaml = String::new();
    for p in mv.decompile_k8s(k8s_cfg) {
        yaml.push_str("---\n");
        yaml.push_str(&muppet_mesh::manifest::emit_network_policy(&p));
    }
    for p in mv.decompile_istio(istio_cfg) {
        yaml.push_str("---\n");
        yaml.push_str(&muppet_mesh::manifest::emit_authorization_policy(&p));
    }
    let bundle = muppet_mesh::manifest::parse_manifests(&yaml).unwrap();
    let mesh = mv.decompile_services(istio_cfg);

    // Dataplane verification of the Fig. 1 intents (on whatever ports
    // the synthesizer chose) and of the global ban.
    for (src, dst) in [
        ("test-frontend", "test-backend"),
        ("test-backend", "test-frontend"),
        ("test-backend", "test-db"),
        ("test-db", "test-backend"),
    ] {
        let reachable = mesh.service(dst).unwrap().ports.iter().any(|&p| {
            evaluate_flow(
                &mesh,
                &bundle.k8s_policies,
                &bundle.istio_policies,
                &Flow::new(src, dst, 0, p),
            )
            .allowed
        });
        assert!(reachable, "{src} → {dst} must be reachable on some port");
    }
    for src in mesh.services() {
        for dst in mesh.services() {
            assert!(
                !evaluate_flow(
                    &mesh,
                    &bundle.k8s_policies,
                    &bundle.istio_policies,
                    &Flow::new(src.name.clone(), dst.name.clone(), 0, 23),
                )
                .allowed,
                "{} → {}:23 must be banned",
                src.name,
                dst.name
            );
        }
    }
}

/// E6: the conformance workflow over the paper instance — failure with
/// counter-offer for strict tenants, success for relaxed ones.
#[test]
fn conformance_workflow_episodes() {
    let mv = vocab();
    let mut strict = session(&mv, IstioTable::Fig3);
    let preferred = mv.structure_instance();
    let report =
        run_conformance(&mut strict, mv.k8s_party, mv.istio_party, Some(&preferred)).unwrap();
    assert!(report.provider_consistent);
    assert!(!report.success);
    assert_eq!(report.counter_offer_distance, Some(1));

    let mut relaxed = session(&mv, IstioTable::Fig4);
    let report = run_conformance(&mut relaxed, mv.k8s_party, mv.istio_party, None).unwrap();
    assert!(report.success);
    let combined = report
        .provider_config
        .clone()
        .unwrap()
        .union(report.tenant_config.as_ref().unwrap());
    assert!(relaxed
        .check_goals(&combined)
        .into_iter()
        .all(|(_, holds)| holds));
}

/// E4 gate: every core query on paper-scale ("modest") scenarios stays
/// well under the paper's 1-second bound, with margin for CI noise.
#[test]
fn modest_scenarios_stay_under_one_second() {
    let budget = Duration::from_secs(1);
    let mv = vocab();

    let mut strict = session(&mv, IstioTable::Fig3);
    let (_, d) = timed(|| strict.local_consistency(mv.k8s_party).unwrap());
    assert!(d < budget, "local consistency took {d:?}");
    let (_, d) = timed(|| strict.reconcile(ReconcileMode::Blameable).unwrap());
    assert!(d < budget, "reconcile took {d:?}");
    let (_, d) = timed(|| {
        strict
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap()
    });
    assert!(d < budget, "envelope took {d:?}");

    let mut relaxed = session(&mv, IstioTable::Fig4);
    let (rec, d) = timed(|| relaxed.reconcile(ReconcileMode::HardBounds).unwrap());
    assert!(rec.success);
    assert!(d < budget, "synthesis took {d:?}");

    // A somewhat larger-than-paper scenario should still be fast.
    let s = generate(ScenarioParams {
        services: 8,
        istio_goals: 8,
        k8s_goals: 2,
        conflict_fraction: 0.5,
        ..ScenarioParams::default()
    });
    let mut sess = s.session(false);
    let (_, d) = timed(|| sess.reconcile(ReconcileMode::Blameable).unwrap());
    assert!(d < budget, "8-service reconcile took {d:?}");
}

/// The scenario generator's conflicts behave like the paper's: the
/// blame core always includes a K8s ban and an Istio reachability goal
/// that mention the same port.
#[test]
fn generated_conflicts_are_localized() {
    for seed in 0..5 {
        let s = generate(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals: 1,
            seed: 100 + seed,
            ..ScenarioParams::default()
        });
        if s.conflicting_ports().is_empty() {
            continue; // rare: all bans landed on flexible rows
        }
        let mut sess = s.session(false);
        let rec = sess.reconcile(ReconcileMode::Blameable).unwrap();
        assert!(!rec.success, "seed {seed} should conflict");
        assert!(rec.core.iter().any(|n| n.contains("k8s goal")));
        assert!(rec.core.iter().any(|n| n.contains("istio goal")));
        // Conflict cores are small (localized), not the whole goal set.
        assert!(rec.core.len() <= 1 + s.istio_goals.len() / 2);
    }
}

/// Negotiation robustness sweep: across many random scenarios and both
/// revision strategies, negotiation always terminates (success or a
/// clean stuck/exhausted verdict), never errors, and successful runs
/// deliver verified configurations.
#[test]
fn negotiation_terminates_cleanly_across_random_scenarios() {
    use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
    use std::collections::BTreeMap;
    for seed in 0..12u64 {
        let s = generate(ScenarioParams {
            services: 4 + (seed as usize % 3),
            istio_goals: 5,
            k8s_goals: 1 + (seed as usize % 2),
            conflict_fraction: (seed % 3) as f64 / 2.0,
            flexible_fraction: (seed % 2) as f64 / 2.0,
            seed: 1000 + seed,
            ..ScenarioParams::default()
        });
        for soft in [false, true] {
            let mut sess = s.session(soft);
            let mut negs: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> = BTreeMap::new();
            negs.insert(s.mv.k8s_party, Box::new(Stubborn));
            negs.insert(s.mv.istio_party, Box::new(DropBlamedSoftGoals));
            let report = run_negotiation(&mut sess, &mut negs, 30, Schedule::RoundRobin)
                .unwrap_or_else(|e| panic!("seed {seed} soft {soft}: {e}"));
            assert!(report.rounds <= 30);
            if report.success {
                let mut combined = muppet_logic::Instance::new();
                for c in report.configs.values() {
                    combined = combined.union(c);
                }
                for (name, holds) in sess.check_goals(&combined) {
                    assert!(holds, "seed {seed} soft {soft}: {name}");
                }
            } else {
                // Stuck verdicts must be explained in the trace.
                assert!(report
                    .trace
                    .iter()
                    .any(|t| t.contains("stuck") || t.contains("exhausted")));
            }
        }
    }
}

/// Negotiation over generated scenarios: soft Istio goals converge, and
/// the number of rounds grows with the number of built-in conflicts.
#[test]
fn negotiation_converges_on_generated_scenarios() {
    use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
    use std::collections::BTreeMap;

    let mut rounds_by_conflicts = Vec::new();
    for &k8s_goals in &[1usize, 2, 3] {
        let s = generate(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals,
            istio_goals: 8,
            services: 6,
            seed: 7,
            ..ScenarioParams::default()
        });
        let conflicts = s.conflicting_ports().len();
        let mut sess = s.session(true);
        let mut negs: BTreeMap<muppet_logic::PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(s.mv.k8s_party, Box::new(Stubborn));
        negs.insert(s.mv.istio_party, Box::new(DropBlamedSoftGoals));
        let report = run_negotiation(&mut sess, &mut negs, 40, Schedule::RoundRobin).unwrap();
        assert!(report.success, "trace: {:#?}", report.trace);
        rounds_by_conflicts.push((conflicts, report.rounds));
    }
    // More conflicts → at least as many rounds (weak monotonicity).
    for w in rounds_by_conflicts.windows(2) {
        if w[1].0 > w[0].0 {
            assert!(w[1].1 >= w[0].1, "{rounds_by_conflicts:?}");
        }
    }
}
