//! E7 (Fig. 8): minimal-edit counter-offers via target-oriented solving.
//!
//! The revision aid must return a *minimally-edited* counter-offer
//! rather than an arbitrary resynthesis. This bench measures the
//! target-oriented query against plain synthesis, and asserts the
//! headline shape: the minimal edit of the paper deployment is ONE
//! tuple, whereas unconstrained synthesis lands much further away.

use criterion::{criterion_group, criterion_main, Criterion};
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_logic::{Domain, Instance};
use muppet_solver::Outcome;

fn bench(c: &mut Criterion) {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);
    let env = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    let target = mv.structure_instance();
    // Free synthesis needs satisfiable tenant goals: the Fig. 4 session.
    let mut s4 = session(&mv, IstioTable::Fig4);

    // Shape check once: minimal edit = 1; free synthesis lands at least
    // as far from the administrator's current configuration.
    let (out, dist) = s.minimal_edit(mv.istio_party, &env, &target).unwrap();
    assert!(out.is_sat());
    assert_eq!(dist, 1);
    match s4.synthesize_against(mv.istio_party, &env).unwrap() {
        Outcome::Sat { solution, .. } => {
            let istio = solution.restrict_to_domain(s4.vocab(), Domain::Party(mv.istio_party));
            assert!(
                istio.distance(&target) >= dist,
                "free synthesis should not beat the minimal edit"
            );
        }
        other => panic!("fig4 synthesis should be sat, got {other:?}"),
    }

    let mut g = c.benchmark_group("e7_minimal_edit");
    g.sample_size(15);
    g.bench_function("target_oriented_minimal_edit", |b| {
        b.iter(|| {
            let (out, dist) = s.minimal_edit(mv.istio_party, &env, &target).unwrap();
            assert!(out.is_sat());
            assert_eq!(dist, 1);
        })
    });
    g.bench_function("plain_synthesis_against_envelope", |b| {
        b.iter(|| {
            let out = s4.synthesize_against(mv.istio_party, &env).unwrap();
            assert!(out.is_sat());
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
