//! Sec. 7 extensions in action: learned envelopes and why/why-not
//! explanations.
//!
//! Run with `cargo run --example envelope_learning`.
//!
//! 1. **Learning** (*Envelopes for Stateful Systems*): treat the K8s
//!    goals as an opaque oracle and characterize the Istio-side solution
//!    space by iterated solving with prime-implicant generalization —
//!    "iterating until the solution space is fully characterized …
//!    rather than halting at the first correct candidate". The learned
//!    DNF is compared against the syntactic Alg. 3 envelope.
//! 2. **Explanation** (*Human Factors / Presentation*): apply the
//!    envelope to the current deployment and render a "why not" — which
//!    (src, dst) pairs violate it, and the verdict of every escape
//!    hatch.

use muppet::explain::explain_predicate;
use muppet::learn::{learn_envelope, Scope};
use muppet_logic::Instance;
use muppet_scenario::paper::{session, vocab, IstioTable};

fn main() {
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);

    // ── 1. Learn the envelope over a focused scope ───────────────────
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
    println!(
        "learning E_{{K8s→Istio}} over a scope of {} candidate settings…",
        scope.len()
    );
    let learned = learn_envelope(
        &mut s,
        mv.k8s_party,
        &Instance::new(),
        mv.istio_party,
        &scope,
        128,
    )
    .expect("learning runs");
    println!(
        "learned {} prime-implicant cube(s) in {} solver queries (complete: {})",
        learned.cubes.len(),
        learned.queries,
        learned.complete
    );
    let printer = muppet_logic::pretty::Printer::new(s.vocab(), s.universe());
    for (i, cube) in learned.cubes.iter().enumerate() {
        println!("  cube {}: {}", i + 1, printer.alloy(&cube.to_formula()));
    }

    // Cross-check against the syntactic envelope on every scope config.
    let syntactic = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .expect("envelope");
    let mut agree = 0;
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
    println!(
        "learned vs syntactic envelope: agree on {agree}/{} scope configurations",
        1u32 << scope.len()
    );
    assert_eq!(agree, 1u32 << scope.len());

    // ── 2. Why-not explanation for the current deployment ────────────
    println!("\napplying the envelope to the current deployment:");
    let deployment = mv.structure_instance();
    for p in &syntactic.predicates {
        let exp = explain_predicate(p, &deployment, s.vocab(), s.universe(), 3);
        print!("{}", exp.render());
    }
    println!(
        "\n(the fix options correspond to Fig. 5's disjuncts: unexpose port 23,\n\
         add ingress denies/locks on the frontend, or egress denies on the senders)"
    );
}
