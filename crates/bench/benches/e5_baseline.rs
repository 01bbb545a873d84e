//! E5 (Fig. 6): the monolithic single-party baseline vs Muppet.
//!
//! Both decide the same satisfiability question; the point of the
//! comparison is that the baseline's failure is opaque while Muppet
//! pays a modest premium for a minimal blame core. This bench measures
//! that premium on the paper's conflicting instance and on a larger
//! generated one.

use criterion::{criterion_group, criterion_main, Criterion};
use muppet::{baseline, ReconcileMode};
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_bench::scenario::corpus::{entry, Kind};
use muppet_bench::scenario::generate;

fn bench(c: &mut Criterion) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);

    // The corpus' conflicted paper-scale mesh (committed label: unsat).
    let e = entry("paper-mesh-12-conflict").expect("committed corpus entry");
    let Kind::Mesh(params) = e.kind else {
        panic!("paper-mesh-12-conflict must be a mesh entry")
    };
    let big = generate(params);
    let mut big_session = big.session(false);

    let mut g = c.benchmark_group("e5_baseline");
    g.sample_size(15);
    g.bench_function("baseline_monolithic_paper", |b| {
        b.iter(|| {
            let r = baseline::monolithic_synthesis(&mut s).unwrap();
            assert!(!r.success);
        })
    });
    g.bench_function("muppet_with_blame_paper", |b| {
        b.iter(|| {
            let r = s.reconcile(ReconcileMode::Blameable).unwrap();
            assert!(!r.success && !r.core.is_empty());
        })
    });
    g.bench_function("baseline_monolithic_12svc", |b| {
        b.iter(|| {
            let r = baseline::monolithic_synthesis(&mut big_session).unwrap();
            assert!(!r.success);
        })
    });
    g.bench_function("muppet_with_blame_12svc", |b| {
        b.iter(|| {
            let r = big_session.reconcile(ReconcileMode::Blameable).unwrap();
            assert!(!r.success && !r.core.is_empty());
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
