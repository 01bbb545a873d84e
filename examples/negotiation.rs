//! Solver-aided negotiation (Fig. 9): offers, counter-offers and
//! round-robin revisions mediated by the solver.
//!
//! Run with `cargo run --example negotiation`.
//!
//! Three episodes:
//!
//! 1. **Stubborn vs stubborn** — neither party revises; the solver can
//!    only report that direct human communication is needed (the paper:
//!    "the solver mediation helps make administrators aware that such
//!    communication is necessary").
//! 2. **Cooperative goals** — the Istio admin treats its goals as soft
//!    and drops the one the blame core names; negotiation converges and
//!    the configurations are delivered.
//! 3. **Counter-offers** — the Istio admin has hard *commitments* (an
//!    egress lockdown) rather than conflicting goals; the mediator
//!    returns the minimally-edited counter-offer (Sec. 7's
//!    target-oriented presentation mode) and the admin adopts it.

use std::collections::BTreeMap;

use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{NamedGoal, Party, Session};
use muppet_goals::{fig2, translate_istio_goals, translate_k8s_goals, IstioGoal};
use muppet_logic::{Instance, PartyId};
use muppet_mesh::MeshVocab;
use muppet_scenario::paper::vocab;

fn build_session(mv: &MeshVocab, soft_istio: bool) -> Session<'_> {
    let mut vocab = mv.vocab.clone();
    let k8s_goals = translate_k8s_goals(&fig2(), mv, &mut vocab).expect("translate");
    let istio_goals =
        translate_istio_goals(&IstioGoal::fig3(), mv, &mut vocab).expect("translate");
    let axioms = mv.well_formedness_axioms(&mut vocab);
    let mut s = Session::new(&mv.universe, vocab, Instance::new());
    s.add_axioms(axioms);
    s.add_party(
        Party::new(mv.k8s_party, "k8s-admin")
            .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
    );
    s.add_party(Party::new(mv.istio_party, "istio-admin").with_goals(
        istio_goals.into_iter().map(|g| {
            let mut g = NamedGoal::from(g);
            g.hard = !soft_istio;
            g
        }),
    ));
    s
}

fn episode(name: &str, soft_istio: bool, istio_strategy: Box<dyn Negotiator>) {
    println!("=== episode: {name} ===");
    let mv = vocab();
    let mut session = build_session(&mv, soft_istio);
    let mut negotiators: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    negotiators.insert(mv.k8s_party, Box::new(Stubborn));
    negotiators.insert(mv.istio_party, istio_strategy);
    let report = run_negotiation(&mut session, &mut negotiators, 10, Schedule::RoundRobin)
        .expect("negotiation runs");
    for line in &report.trace {
        println!("  {line}");
    }
    println!(
        "  outcome: {} after {} round(s)",
        if report.success { "AGREED" } else { "NO AGREEMENT" },
        report.rounds
    );
    if report.success {
        let mut combined = session.structure().clone();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        let ok = session
            .check_goals(&combined)
            .into_iter()
            .all(|(_, holds)| holds);
        println!("  delivered configurations verify all remaining goals: {ok}");
    }
    println!();
}

fn counter_offer_episode() {
    use muppet::negotiate::AcceptCounterOffer;
    use muppet_goals::{translate_k8s_goals, K8sGoal};
    println!("=== episode: mediator counter-offers against hard commitments ===");
    let mv = vocab();
    let mut vocab2 = mv.vocab.clone();
    // K8s requirement it cannot enforce alone: backend:25 stays open.
    let k8s_goals = translate_k8s_goals(
        &K8sGoal::parse_csv("25,ALLOW,test-backend\n").unwrap(),
        &mv,
        &mut vocab2,
    )
    .expect("goal translates");
    let axioms = mv.well_formedness_axioms(&mut vocab2);
    let mut session = Session::new(&mv.universe, vocab2, Instance::new());
    session.add_axioms(axioms);
    session.add_party(
        Party::new(mv.k8s_party, "k8s-admin")
            .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
    );
    session.add_party(Party::new(mv.istio_party, "istio-admin"));
    // The Istio admin's commitments: current exposure plus an egress
    // lockdown on the frontend (fe may send nothing), everything else
    // fixed off.
    let fe = mv.svc_atom("test-frontend").unwrap();
    let mut offer = muppet_logic::PartialInstance::new();
    offer.fix_from(mv.listens, &mv.structure_instance());
    offer.require(mv.istio_eg_guard, vec![fe]);
    for rel in mv.istio_rels() {
        offer.bound(rel);
    }
    session.party_mut(mv.istio_party).unwrap().offer = offer;

    let mut negotiators: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    negotiators.insert(mv.k8s_party, Box::new(Stubborn));
    negotiators.insert(mv.istio_party, Box::new(AcceptCounterOffer));
    let report = run_negotiation(&mut session, &mut negotiators, 10, Schedule::RoundRobin)
        .expect("negotiation runs");
    for line in &report.trace {
        println!("  {line}");
    }
    println!(
        "  outcome: {} after {} round(s)",
        if report.success { "AGREED" } else { "NO AGREEMENT" },
        report.rounds
    );
    println!(
        "  the istio admin's adopted counter-offer commits {} setting(s)",
        session
            .party(mv.istio_party)
            .unwrap()
            .offer
            .bounded_rels()
            .map(|r| session.party(mv.istio_party).unwrap().offer.lower(r).count())
            .sum::<usize>()
    );
    println!();
}

fn main() {
    episode("both administrators stubborn", false, Box::new(Stubborn));
    episode(
        "istio admin drops blamed soft goals",
        true,
        Box::new(DropBlamedSoftGoals),
    );
    counter_offer_episode();
}
