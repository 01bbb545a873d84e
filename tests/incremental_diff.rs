//! Differential testing of the unified incremental engine against the
//! fresh-`Session` oracle: a session whose warm engines already hold
//! state (the same workflow's queries, or a whole earlier episode's
//! store) must answer **byte-identically** to the same call on a fresh
//! session, on every semantic output — verdicts, models, cores,
//! counter-offer sequences — across randomized multi-round
//! negotiations.
//!
//! Stats (conflicts, encode counters) are
//! deliberately *excluded*: the two sides do different amounts of work
//! by design; what they may never do is give different answers.

use std::collections::BTreeMap;

use muppet::conformance::run_conformance;
use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{NamedGoal, Party, ReconcileMode, Session};
use muppet_logic::{AtomId, Domain, Formula, Instance, PartyId, RelId, Term, Universe, Vocabulary};
use muppet_solver::PreparedStore;
use proptest::prelude::*;

const N_ATOMS: usize = 3;

/// One random literal: `(rel index, atom index, negated)`.
type Lit = (u8, u8, bool);

/// One random goal: a disjunction of literals, hard or soft.
#[derive(Clone, Debug)]
struct G {
    hard: bool,
    clause: Vec<Lit>,
}

/// A full random scenario: goals per party, who holds firm, the
/// tenant's preferred configuration, and the round limit.
#[derive(Clone, Debug)]
struct Scenario {
    a_goals: Vec<G>,
    b_goals: Vec<G>,
    stubborn_a: bool,
    preferred_atoms: Vec<bool>,
    max_rounds: usize,
}

fn lit_strategy() -> impl Strategy<Value = Lit> {
    (0..2u8, 0..N_ATOMS as u8, any::<bool>())
}

fn goal_strategy() -> impl Strategy<Value = G> {
    (any::<bool>(), prop::collection::vec(lit_strategy(), 1..=3))
        .prop_map(|(hard, clause)| G { hard, clause })
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(goal_strategy(), 0..=3),
        prop::collection::vec(goal_strategy(), 1..=3),
        any::<bool>(),
        prop::collection::vec(any::<bool>(), N_ATOMS),
        2..=4usize,
    )
        .prop_map(
            |(a_goals, b_goals, stubborn_a, preferred_atoms, max_rounds)| Scenario {
                a_goals,
                b_goals,
                stubborn_a,
                preferred_atoms,
                max_rounds,
            },
        )
}

/// The shared two-party fixture: sort F with three atoms, each party
/// owning one unary relation over it. Warm and cold models are both
/// the canonical lex-min witness, so answers compare byte for byte.
struct Fixture {
    universe: Universe,
    vocab: Vocabulary,
    parties: [PartyId; 2],
    rels: [RelId; 2],
    atoms: Vec<AtomId>,
}

fn fixture() -> Fixture {
    let mut universe = Universe::new();
    let s = universe.add_sort("F");
    let atoms = vec![
        universe.add_atom(s, "x"),
        universe.add_atom(s, "y"),
        universe.add_atom(s, "z"),
    ];
    let mut vocab = Vocabulary::new();
    let parties = [PartyId(0), PartyId(1)];
    let rels = [
        vocab.add_simple_rel("en_a", vec![s], Domain::Party(parties[0])),
        vocab.add_simple_rel("en_b", vec![s], Domain::Party(parties[1])),
    ];
    Fixture {
        universe,
        vocab,
        parties,
        rels,
        atoms,
    }
}

fn goal_formula(f: &Fixture, g: &G) -> Formula {
    Formula::or(g.clause.iter().map(|&(r, a, neg)| {
        let p = Formula::pred(
            f.rels[r as usize % 2],
            [Term::Const(f.atoms[a as usize % N_ATOMS])],
        );
        if neg {
            Formula::not(p)
        } else {
            p
        }
    }))
}

/// Build a fresh session for the scenario. Called once per side under
/// comparison so both start from identical parties and settings.
fn build_session<'a>(f: &'a Fixture, sc: &Scenario) -> Session<'a> {
    let mut s = Session::new(&f.universe, f.vocab.clone(), Instance::new());
    let named = |prefix: &str, i: usize, g: &G| {
        let formula = goal_formula(f, g);
        if g.hard {
            NamedGoal::hard(format!("{prefix}{i}"), formula)
        } else {
            NamedGoal::soft(format!("{prefix}{i}"), formula)
        }
    };
    s.add_party(
        Party::new(f.parties[0], "A")
            .with_goals(sc.a_goals.iter().enumerate().map(|(i, g)| named("a", i, g))),
    );
    s.add_party(
        Party::new(f.parties[1], "B")
            .with_goals(sc.b_goals.iter().enumerate().map(|(i, g)| named("b", i, g))),
    );
    s
}

fn negotiators(f: &Fixture, sc: &Scenario) -> BTreeMap<PartyId, Box<dyn Negotiator>> {
    let mut n: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    if sc.stubborn_a {
        n.insert(f.parties[0], Box::new(Stubborn));
        n.insert(f.parties[1], Box::new(DropBlamedSoftGoals));
    } else {
        n.insert(f.parties[0], Box::new(DropBlamedSoftGoals));
        n.insert(f.parties[1], Box::new(Stubborn));
    }
    n
}

fn preferred(f: &Fixture, sc: &Scenario) -> Instance {
    let mut inst = Instance::new();
    let atoms: Vec<AtomId> = f
        .atoms
        .iter()
        .zip(&sc.preferred_atoms)
        .filter(|(_, on)| **on)
        .map(|(a, _)| *a)
        .collect();
    if !atoms.is_empty() {
        inst.insert(f.rels[1], atoms);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A negotiation on a session whose engines were warmed by the
    /// first round's queries (Alg. 2 in blameable mode, Alg. 1 for each
    /// party) == the same negotiation on a fresh session, on every
    /// semantic field. The trace carries the counter-offer sequence
    /// (who revised, what was blamed, each round's verdict), so string
    /// equality here is the "counter-offer sequence byte-identical"
    /// requirement.
    #[test]
    fn negotiation_warm_equals_fresh_session(sc in scenario_strategy()) {
        let f = fixture();

        let mut warm_session = build_session(&f, &sc);
        warm_session.reconcile(ReconcileMode::Blameable).expect("warm-up reconcile");
        for p in f.parties {
            warm_session.local_consistency(p).expect("warm-up consistency");
        }
        let warm = run_negotiation(
            &mut warm_session,
            &mut negotiators(&f, &sc),
            sc.max_rounds,
            Schedule::RoundRobin,
        ).expect("warm negotiation");

        let mut cold_session = build_session(&f, &sc);
        let cold = run_negotiation(
            &mut cold_session,
            &mut negotiators(&f, &sc),
            sc.max_rounds,
            Schedule::RoundRobin,
        ).expect("cold negotiation");

        prop_assert_eq!(warm.success, cold.success);
        prop_assert_eq!(warm.rounds, cold.rounds);
        prop_assert_eq!(&warm.configs, &cold.configs);
        prop_assert_eq!(&warm.trace, &cold.trace);
    }

    /// A repeat conformance run on one session (every query served by
    /// a warm engine) == the same run on a fresh session: provider
    /// verdict + witness, envelope, tenant verdict + config, blame, and
    /// the minimal-edit counter-offer distance.
    #[test]
    fn conformance_warm_equals_fresh_session(sc in scenario_strategy()) {
        let f = fixture();
        let pref = preferred(&f, &sc);

        let mut session = build_session(&f, &sc);
        run_conformance(&mut session, f.parties[0], f.parties[1], Some(&pref))
            .expect("warm-up conformance");
        let warm = run_conformance(&mut session, f.parties[0], f.parties[1], Some(&pref))
            .expect("warm conformance");
        let cold = run_conformance(
            &mut build_session(&f, &sc), f.parties[0], f.parties[1], Some(&pref),
        ).expect("cold conformance");

        prop_assert_eq!(warm.provider_consistent, cold.provider_consistent);
        prop_assert_eq!(&warm.provider_config, &cold.provider_config);
        // Envelope carries no Eq impl; its Debug form is deterministic
        // and covers predicates, obligation tags and self-satisfied
        // goals — byte-compare that.
        prop_assert_eq!(
            format!("{:?}", warm.envelope),
            format!("{:?}", cold.envelope)
        );
        prop_assert_eq!(warm.success, cold.success);
        prop_assert_eq!(&warm.tenant_config, &cold.tenant_config);
        prop_assert_eq!(&warm.blame, &cold.blame);
        prop_assert_eq!(warm.counter_offer_distance, cold.counter_offer_distance);
        prop_assert_eq!(&warm.log, &cold.log);
    }

    /// A warm store *reused across* consecutive negotiations (the
    /// daemon's shape: one `PreparedStore` per warm session, lent to
    /// each request's session) still matches a fresh session's run of
    /// each — engine state from a previous workflow may speed the next
    /// one up but never leak into its answers.
    #[test]
    fn reused_store_across_negotiations_stays_cold_identical(
        sc1 in scenario_strategy(),
        sc2 in scenario_strategy(),
    ) {
        let f = fixture();
        let mut store = PreparedStore::new();
        for sc in [&sc1, &sc2] {
            let mut warm_session = build_session(&f, sc);
            std::mem::swap(warm_session.store_mut(), &mut store);
            let warm = run_negotiation(
                &mut warm_session,
                &mut negotiators(&f, sc),
                sc.max_rounds,
                Schedule::RoundRobin,
            ).expect("warm negotiation");
            std::mem::swap(warm_session.store_mut(), &mut store);
            let mut cold_session = build_session(&f, sc);
            let cold = run_negotiation(
                &mut cold_session,
                &mut negotiators(&f, sc),
                sc.max_rounds,
                Schedule::RoundRobin,
            ).expect("cold negotiation");
            prop_assert_eq!(warm.success, cold.success);
            prop_assert_eq!(warm.rounds, cold.rounds);
            prop_assert_eq!(&warm.configs, &cold.configs);
            prop_assert_eq!(&warm.trace, &cold.trace);
        }
        prop_assert!(store.builds() > 0, "the store never reached the sessions");
    }
}
