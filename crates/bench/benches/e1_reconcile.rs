//! E1 (Figs. 1–3): detecting the paper's conflict.
//!
//! Regenerates the walkthrough's first result: reconciling the Fig. 2
//! K8s goal with the Fig. 3 Istio goals is UNSAT, with a minimal
//! two-goal blame core. Benchmarks both the plain verdict and the
//! verdict-plus-minimal-core path (what Muppet actually reports).

use criterion::{criterion_group, criterion_main, Criterion};
use muppet::ReconcileMode;
use muppet_bench::paper::{session, vocab, IstioTable};

fn bench(c: &mut Criterion) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);

    // Shape checks once, outside the timing loop.
    let rec = s.reconcile(ReconcileMode::Blameable).unwrap();
    assert!(!rec.success);
    assert_eq!(rec.core.len(), 2);

    let mut g = c.benchmark_group("e1_reconcile");
    g.sample_size(20);
    g.bench_function("verdict_only(hard_bounds)", |b| {
        b.iter(|| {
            let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
            assert!(!rec.success);
        })
    });
    g.bench_function("with_minimal_core(blameable)", |b| {
        b.iter(|| {
            let rec = s.reconcile(ReconcileMode::Blameable).unwrap();
            assert_eq!(rec.core.len(), 2);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
