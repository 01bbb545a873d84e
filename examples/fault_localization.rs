//! Fault localization: debugging the "sudden failure" of Sec. 3.
//!
//! Run with `cargo run --example fault_localization`.
//!
//! The Istio administrator "experiences sudden failures because
//! reachability from the frontend to backend is broken. Particularly
//! frustrating … is the fact that they had not pushed any recent changes
//! that would impact reachability." This example plays both halves:
//!
//! 1. **The outage, observed**: the dataplane simulator shows the
//!    backend → frontend:23 flow working, then dying the moment the K8s
//!    admin pushes the port-23 ban — with the decision trace naming the
//!    policy that killed it.
//! 2. **The diagnosis, solver-aided**: the Istio admin checks their
//!    (unchanged!) goals against the envelope they received; the failing
//!    envelope predicate and the minimal blame core localize the
//!    conflict to the two clashing intentions, turning hours of
//!    cross-team debugging into a one-line answer.

use muppet::ReconcileMode;
use muppet_logic::Instance;
use muppet_mesh::{evaluate_flow, Flow, Mesh, NetworkPolicy};
use muppet_scenario::paper::{session, vocab, IstioTable};

fn main() {
    let mesh = Mesh::paper_example();
    let flow = Flow::new("test-backend", "test-frontend", 26, 23);

    // ── 1. Before the push: everything works ────────────────────────
    let before = evaluate_flow(&mesh, &[], &[], &flow);
    println!("before the K8s push, backend → frontend:23:");
    for line in &before.trace {
        println!("  {line}");
    }
    assert!(before.allowed);

    // The K8s admin pushes the global ban (without telling anyone).
    let ban = NetworkPolicy::deny_port_for_all("deny-telnet", 23);
    let after = evaluate_flow(&mesh, std::slice::from_ref(&ban), &[], &flow);
    println!("\nafter the push:");
    for line in &after.trace {
        println!("  {line}");
    }
    assert!(!after.allowed);
    println!("  → the trace names the culprit policy: \"deny-telnet\"");

    // ── 2. Solver-aided diagnosis ────────────────────────────────────
    let mv = vocab();
    let mut s = session(&mv, IstioTable::Fig3);

    // (a) The envelope the K8s provider sent. The Istio admin applies it
    // to their *current* configuration (the deployment as-is).
    let envelope = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .expect("envelope");
    let current = mv.structure_instance(); // deployment: fe exposed on 23
    let failing = envelope.check(&current, s.universe());
    println!("\nenvelope check against the Istio admin's current configuration:");
    if failing.is_empty() {
        println!("  compatible (unexpected)");
    } else {
        for &i in &failing {
            let p = &envelope.predicates[i];
            println!("  VIOLATED predicate (from {}):", p.source_goal);
            let mut printer = muppet_logic::pretty::Printer::new(s.vocab(), s.universe());
            for (v, n) in &p.var_names {
                printer.name_var(*v, n.clone());
            }
            print!("{}", printer.english_numbered(&p.formula));
            println!(
                "  (none of these hold for src = test-backend, dst = test-frontend)"
            );
        }
    }

    // (b) The blame core pinpoints which *goals* clash.
    let rec = s.reconcile(ReconcileMode::HardBounds).expect("solve");
    assert!(!rec.success);
    println!("\nminimal blame core (goal-level localization):");
    for name in &rec.core {
        println!("  - {name}");
    }
    println!(
        "\nconclusion: the outage is not an Istio regression — it is the \
         interaction\nbetween the new K8s port-23 ban and the Istio \
         reachability goal for port 23."
    );
}
