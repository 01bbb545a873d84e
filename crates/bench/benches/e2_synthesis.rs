//! E2 (Fig. 4): synthesis from the relaxed goals.
//!
//! "The existential quantifiers allow the synthesizer to choose up to
//! four different ports that are harmonious with both the Istio goals
//! and the K8s envelope. With the goals satisfiable, Muppet generates a
//! configuration." Benchmarks joint synthesis (reconcile) and the
//! tenant-side synthesis against a received envelope (Fig. 8 path).

use criterion::{criterion_group, criterion_main, Criterion};
use muppet::ReconcileMode;
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_logic::Instance;

fn bench(c: &mut Criterion) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig4);
    let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success);
    let envelope = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();

    let mut g = c.benchmark_group("e2_synthesis");
    g.sample_size(20);
    g.bench_function("joint_reconcile_fig4", |b| {
        b.iter(|| {
            let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
            assert!(rec.success);
        })
    });
    g.bench_function("tenant_synthesis_against_envelope", |b| {
        b.iter(|| {
            let out = s.synthesize_against(mv.istio_party, &envelope).unwrap();
            assert!(out.is_sat());
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
