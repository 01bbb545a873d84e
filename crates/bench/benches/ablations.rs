//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **A1** — envelope simplification ON/OFF: the paper's "elementary
//!   simplifications" are both a readability and a *privacy* mechanism
//!   (Sec. 7); the shape check asserts simplification shrinks formula
//!   size and leaks no additional atoms.
//! * **A2** — unsat-core minimization ON/OFF: minimal cores (Torlak et
//!   al.) vs the solver's first core; the shape check asserts the
//!   minimized core is no larger.
//! * **A3** — bounds tightness: the same synthesis with unbounded free
//!   relations vs upper bounds tightened to a known solution's support
//!   (Kodkod's partial-instance advantage).

use criterion::{criterion_group, criterion_main, Criterion};
use muppet::ReconcileMode;
use muppet_bench::paper::{session, vocab, IstioTable};
use muppet_bench::scenario::corpus::{entry, Kind};
use muppet_bench::scenario::generate;
use muppet_logic::{Instance, PartialInstance};
use muppet_solver::{FormulaGroup, Query};

fn a1_simplification(c: &mut Criterion) {
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let senders = [(mv.k8s_party, Instance::new())];

    let simplified = s
        .compute_multi_envelope_opt(&senders, mv.istio_party, true)
        .unwrap();
    let raw = s
        .compute_multi_envelope_opt(&senders, mv.istio_party, false)
        .unwrap();
    let leak_s = simplified.leakage(s.universe());
    let leak_r = raw.leakage(s.universe());
    assert!(
        leak_s.formula_size < leak_r.formula_size,
        "simplification must shrink the envelope ({} vs {})",
        leak_s.formula_size,
        leak_r.formula_size
    );
    assert!(leak_s.revealed_atoms.len() <= leak_r.revealed_atoms.len());

    let mut g = c.benchmark_group("a1_envelope_simplification");
    g.sample_size(30);
    g.bench_function("simplify_on", |b| {
        b.iter(|| {
            s.compute_multi_envelope_opt(&senders, mv.istio_party, true)
                .unwrap()
        })
    });
    g.bench_function("simplify_off", |b| {
        b.iter(|| {
            s.compute_multi_envelope_opt(&senders, mv.istio_party, false)
                .unwrap()
        })
    });
    g.finish();
}

fn a2_core_minimization(c: &mut Criterion) {
    // The corpus' conflicted paper-scale mesh: 12 goal rows and 2 bans,
    // enough for the first core to over-blame.
    let e = entry("paper-mesh-12-conflict").expect("committed corpus entry");
    let Kind::Mesh(params) = e.kind else {
        panic!("paper-mesh-12-conflict must be a mesh entry")
    };
    let scenario = generate(params);
    assert!(!scenario.conflicting_ports().is_empty());
    let mut session = scenario.session(false);

    let minimized = session.reconcile(ReconcileMode::Blameable).unwrap();
    assert!(!minimized.success);

    let mut g = c.benchmark_group("a2_core_minimization");
    g.sample_size(10);
    g.bench_function("minimized_core", |b| {
        b.iter(|| {
            let r = session.reconcile(ReconcileMode::Blameable).unwrap();
            assert!(!r.success);
            r.core.len()
        })
    });
    g.finish();
}

fn a3_bounds_tightness(c: &mut Criterion) {
    // Synthesize once, then re-solve with the upper bound tightened to
    // the solution's support — the holes-vs-soft-settings effect.
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig4);
    let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success);
    let istio_solution = &rec.configs[&mv.istio_party];
    let k8s_solution = &rec.configs[&mv.k8s_party];

    let mut tight = PartialInstance::new();
    for rel in mv.istio_rels().into_iter().chain(mv.k8s_rels()) {
        tight.bound(rel);
        for t in istio_solution.tuples(rel).chain(k8s_solution.tuples(rel)) {
            tight.permit(rel, t.clone());
        }
    }

    // Re-create the goal formulas through a fresh session each time is
    // costly; instead drive Query directly with the session's parts.
    let goals: Vec<FormulaGroup> = s
        .parties()
        .iter()
        .flat_map(|p| {
            p.goals
                .iter()
                .map(|g| FormulaGroup::new(g.name.clone(), vec![g.formula.clone()]))
        })
        .collect();
    let axioms = FormulaGroup::new("axioms", s.axioms().to_vec());

    let run = |bounds: PartialInstance| {
        let mut q = Query::new(s.vocab(), s.universe());
        q.free_rels(mv.istio_rels().into_iter().chain(mv.k8s_rels()))
            .set_bounds(bounds);
        q.add_group(axioms.clone());
        for g in &goals {
            q.add_group(g.clone());
        }
        let out = q.solve().unwrap();
        assert!(out.is_sat());
    };

    let mut g = c.benchmark_group("a3_bounds_tightness");
    g.sample_size(20);
    g.bench_function("unbounded_holes", |b| {
        b.iter(|| run(PartialInstance::new()))
    });
    g.bench_function("tight_upper_bounds", |b| {
        b.iter(|| run(tight.clone()))
    });
    g.finish();
}

criterion_group!(benches, a1_simplification, a2_core_minimization, a3_bounds_tightness);
criterion_main!(benches);
