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
use muppet::Session;
use muppet_logic::PartyId;
use muppet_mesh::MeshVocab;
use muppet_scenario::paper::{session, vocab, IstioTable};

fn build_session(mv: &MeshVocab, soft_istio: bool) -> Session<'_> {
    let mut s = session(mv, IstioTable::Fig3);
    for g in &mut s.party_mut(mv.istio_party).expect("istio party").goals {
        g.hard = !soft_istio;
    }
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
    use muppet_goals::K8sGoal;
    println!("=== episode: mediator counter-offers against hard commitments ===");
    let mv = vocab();
    // K8s requirement it cannot enforce alone: backend:25 stays open.
    let k8s_rows = K8sGoal::parse_csv("25,ALLOW,test-backend\n").unwrap();
    let mut session =
        muppet_domain::mesh::session(&mv, &k8s_rows, &[], None).expect("goal translates");
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
