//! X-series benches: the implemented Sec. 7 extensions.
//!
//! * X1 — envelope learning (iterated solving + prime-implicant
//!   generalization) vs the syntactic Alg. 3 path.
//! * X2 — envelope extraction with the mTLS extension enabled.
//! * X3 — why/why-not explanation of a violated envelope.

use criterion::{criterion_group, criterion_main, Criterion};
use muppet::explain::explain_predicate;
use muppet::learn::{learn_envelope, Scope};
use muppet::{NamedGoal, Party, Session};
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_goals::{translate_k8s_goals, K8sGoal};
use muppet_logic::Instance;
use muppet_mesh::{Mesh, MeshVocab, Service};

fn x1_learning(c: &mut Criterion) {
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
    let mut g = c.benchmark_group("x1_envelope_learning");
    g.sample_size(10);
    g.bench_function("learn_8_tuple_scope", |b| {
        b.iter(|| {
            let learned = learn_envelope(
                &mut s,
                mv.k8s_party,
                &Instance::new(),
                mv.istio_party,
                &scope,
                128,
            )
            .unwrap();
            assert!(learned.complete);
            learned.cubes.len()
        })
    });
    g.bench_function("syntactic_alg3_for_reference", |b| {
        b.iter(|| {
            s.compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
                .unwrap()
        })
    });
    g.finish();
}

fn x2_mtls(c: &mut Criterion) {
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
    let mut s = Session::new(&mv.universe, vocab, mv.sidecar_instance());
    s.add_axioms(axioms);
    s.add_party(
        Party::new(mv.k8s_party, "k8s-admin")
            .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
    );
    s.add_party(Party::new(mv.istio_party, "istio-admin"));

    let mut g = c.benchmark_group("x2_mtls");
    g.sample_size(30);
    g.bench_function("envelope_with_mtls_disjunct", |b| {
        b.iter(|| {
            let env = s
                .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
                .unwrap();
            assert_eq!(env.predicates.len(), 1);
        })
    });
    g.finish();
}

fn x3_explain(c: &mut Criterion) {
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let env = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    let deployment = mv.structure_instance();
    let mut g = c.benchmark_group("x3_explain");
    g.sample_size(30);
    g.bench_function("why_not_on_deployment", |b| {
        b.iter(|| {
            let exp =
                explain_predicate(&env.predicates[0], &deployment, s.vocab(), s.universe(), 10);
            assert!(!exp.holds);
            exp.witnesses.len()
        })
    });
    g.finish();
}

criterion_group!(benches, x1_learning, x2_mtls, x3_explain);
criterion_main!(benches);
