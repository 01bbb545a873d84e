//! Quickstart: detect a multi-party conflict and read the envelope.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Reproduces the paper's Sec. 3 story in ~60 lines of API use:
//! the K8s admin bans port 23 (Fig. 2), the Istio admin needs the
//! backend to reach the frontend on port 23 (Fig. 3), reconciliation
//! fails with a two-goal blame core, and the envelope `E_{K8s→Istio}`
//! (Fig. 5) tells the Istio admin exactly what would make them
//! compatible.

use muppet::ReconcileMode;
use muppet_logic::Instance;
use muppet_scenario::paper::{session, vocab, IstioTable};

fn main() {
    // The Fig. 1 mesh: frontend, backend, database.
    let mv = vocab();
    println!("mesh services:");
    for s in mv.mesh().services() {
        println!("  {} listens on {:?}", s.name, s.ports);
    }

    // Strict goals (Figs. 2 + 3).
    let mut strict = session(&mv, IstioTable::Fig3);
    let rec = strict
        .reconcile(ReconcileMode::HardBounds)
        .expect("solver runs");
    println!("\nreconciliation with the strict Fig. 3 goals:");
    if rec.success {
        println!("  unexpected success");
    } else {
        println!("  UNSAT — conflicting goals (minimal core):");
        for name in &rec.core {
            println!("    - {name}");
        }
    }

    // The envelope the K8s provider would send (Fig. 5).
    let envelope = strict
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .expect("envelope computes");
    println!("\nE_{{K8s→Istio}} in Alloy-ish syntax:");
    print!("{}", envelope.render_alloy(strict.vocab(), strict.universe()));
    println!("\nE_{{K8s→Istio}} in English:");
    print!(
        "{}",
        envelope.render_english(strict.vocab(), strict.universe())
    );
    let leak = envelope.leakage(strict.universe());
    println!(
        "privacy: the envelope reveals only {:?} from the provider's side",
        leak.revealed_atoms
    );

    // Relaxed goals (Fig. 4) make the joint problem satisfiable.
    let mut relaxed = session(&mv, IstioTable::Fig4);
    let rec = relaxed
        .reconcile(ReconcileMode::HardBounds)
        .expect("solver runs");
    println!("\nreconciliation with the relaxed Fig. 4 goals:");
    if rec.success {
        println!("  SAT — Muppet synthesized compatible configurations:");
        for (party, config) in &rec.configs {
            let name = relaxed.party(*party).map(|p| p.name.clone()).unwrap();
            println!("    {name}: {} settings", config.total_tuples());
        }
        // Verify end to end.
        let mut combined = relaxed.structure().clone();
        for c in rec.configs.values() {
            combined = combined.union(c);
        }
        let all_hold = relaxed
            .check_goals(&combined)
            .into_iter()
            .all(|(_, holds)| holds);
        println!("  every goal verified against the delivered configs: {all_hold}");
    } else {
        println!("  unexpected failure: {:?}", rec.core);
    }
}
