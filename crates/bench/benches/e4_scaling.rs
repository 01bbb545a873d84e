//! E4 (Sec. 5): "all queries made in modest scenarios … finish in under
//! 1 second" — the paper's single quantitative claim, extended into a
//! scaling sweep. The workload is the committed scenario corpus: every
//! mesh entry of the smoke and paper tiers is measured on each core
//! query (local consistency, reconciliation, envelope extraction), with
//! the entry's committed verdict as the assertion — no hand-rolled
//! fixtures, so the bench sweep and the test suite stay on the same
//! ground truth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use muppet::ReconcileMode;
use muppet_bench::scenario::corpus::{entries, Kind, Tier};
use muppet_bench::scenario::{generate, Expected};
use muppet_logic::Instance;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_scaling");
    g.sample_size(10);

    for entry in entries(Tier::Smoke).chain(entries(Tier::Paper)) {
        let Kind::Mesh(params) = entry.kind else {
            continue;
        };
        let scenario = generate(params);
        let mut session = scenario.session(false);
        let sat = entry.expected == Expected::Sat;

        if sat {
            g.bench_with_input(
                BenchmarkId::new("local_consistency", entry.name),
                &entry.name,
                |b, _| {
                    b.iter(|| {
                        let r = session.local_consistency(scenario.mv.istio_party).unwrap();
                        assert!(r.ok);
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new("envelope", entry.name),
                &entry.name,
                |b, _| {
                    b.iter(|| {
                        let env = session
                            .compute_envelope(
                                scenario.mv.k8s_party,
                                scenario.mv.istio_party,
                                &Instance::new(),
                            )
                            .unwrap();
                        assert!(!env.predicates.is_empty() || env.impossible.is_empty());
                    })
                },
            );
        }

        // Sat entries measure the model search, unsat ones the blamed
        // core extraction — both against the committed label.
        let (mode, label) = if sat {
            (ReconcileMode::HardBounds, "reconcile_sat")
        } else {
            (ReconcileMode::Blameable, "reconcile_unsat_core")
        };
        g.bench_with_input(BenchmarkId::new(label, entry.name), &entry.name, |b, _| {
            b.iter(|| {
                let r = session.reconcile(mode).unwrap();
                assert_eq!(r.success, sat, "{} verdict drifted", entry.name);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
