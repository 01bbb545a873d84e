//! Property tests for N-party round-robin negotiation (Fig. 9
//! generalized): the *verdict* of a negotiation where every party is
//! willing to drop blamed soft goals is a function of the goals alone,
//! not of the order parties registered (and therefore take turns) in.
//!
//! The model is deliberately tiny so the expected verdict is computable
//! by hand: each of N ∈ {2..5} parties owns one unary relation over a
//! 3-atom sort, and every goal is a single literal `±en_i(a)`. A set of
//! literal goals is satisfiable iff it contains no complementary pair,
//! so:
//!
//! * round-robin with `DropBlamedSoftGoals` everywhere succeeds iff the
//!   *hard* literals alone are consistent (soft conflicts negotiate
//!   away), under any registration order;
//! * hub-and-spoke (the hub never revises) succeeds iff the hard
//!   literals plus *all* of the hub's literals are consistent, and
//!   agrees with round-robin where the hub runs [`Stubborn`].

use std::collections::{BTreeMap, BTreeSet};

use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{NamedGoal, Party, Session};
use muppet_logic::{Domain, Formula, Instance, PartyId, Term, Universe, Vocabulary};
use proptest::prelude::*;

const ATOMS: usize = 3;
const MAX_ROUNDS: usize = 120;

/// One literal goal: `hard`, sign, target relation (= owning party
/// slot), target atom.
#[derive(Clone, Copy, Debug)]
struct Lit {
    hard: bool,
    positive: bool,
    rel: usize,
    atom: usize,
}

/// A generated N-party negotiation problem.
#[derive(Clone, Debug)]
struct Problem {
    n: usize,
    /// `goals[i]` = party i's literal goals.
    goals: Vec<Vec<Lit>>,
    /// Seed for the extra registration-order shuffle.
    perm_seed: u64,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (2..=5usize).prop_flat_map(|n| {
        let lit = (any::<bool>(), any::<bool>(), 0..n, 0..ATOMS).prop_map(
            |(hard, positive, rel, atom)| Lit {
                hard,
                positive,
                rel,
                atom,
            },
        );
        (
            proptest::collection::vec(proptest::collection::vec(lit, 0..=3), n..=n),
            0..u64::MAX,
        )
            .prop_map(move |(goals, perm_seed)| Problem {
                n,
                goals,
                perm_seed,
            })
    })
}

/// Deterministic Fisher–Yates from a seed (the vendored proptest has no
/// sample-from-slice strategy, and the permutation must be reportable).
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Is a set of literal goals satisfiable? (Pure literals over disjoint
/// booleans: iff no complementary pair.)
fn literals_consistent<'a>(lits: impl Iterator<Item = &'a Lit>) -> bool {
    let mut seen: BTreeSet<(usize, usize, bool)> = BTreeSet::new();
    for l in lits {
        if seen.contains(&(l.rel, l.atom, !l.positive)) {
            return false;
        }
        seen.insert((l.rel, l.atom, l.positive));
    }
    true
}

struct World {
    universe: Universe,
    vocab: Vocabulary,
    rels: Vec<muppet_logic::RelId>,
    atoms: Vec<muppet_logic::AtomId>,
}

fn world(n: usize) -> World {
    let mut universe = Universe::new();
    let s = universe.add_sort("F");
    let atoms: Vec<_> = (0..ATOMS)
        .map(|i| universe.add_atom(s, format!("a{i}")))
        .collect();
    let mut vocab = Vocabulary::new();
    let rels: Vec<_> = (0..n)
        .map(|i| {
            vocab.add_simple_rel(format!("en_{i}"), vec![s], Domain::Party(PartyId(i as u32)))
        })
        .collect();
    World {
        universe,
        vocab,
        rels,
        atoms,
    }
}

fn goal_formula(w: &World, l: &Lit) -> Formula {
    let p = Formula::pred(w.rels[l.rel], [Term::Const(w.atoms[l.atom])]);
    if l.positive {
        p
    } else {
        Formula::not(p)
    }
}

/// Build the session with parties registered in `order` and run the
/// negotiation; returns (success, per-party configs) and, on success,
/// asserts the combined delivered configuration satisfies every
/// surviving goal.
fn negotiate(
    p: &Problem,
    w: &World,
    order: &[usize],
    schedule: Schedule,
    stubborn: Option<PartyId>,
) -> bool {
    let mut s = Session::new(&w.universe, w.vocab.clone(), Instance::new());
    for &i in order {
        let mut goals = Vec::new();
        for (j, l) in p.goals[i].iter().enumerate() {
            // Names are fixed-width and globally unique so the blame
            // cores `DropBlamedSoftGoals` substring-matches on cannot
            // alias one goal to another.
            let name = format!("p{i}g{j}");
            let f = goal_formula(w, l);
            goals.push(if l.hard {
                NamedGoal::hard(name, f)
            } else {
                NamedGoal::soft(name, f)
            });
        }
        s.add_party(Party::new(PartyId(i as u32), format!("P{i}")).with_goals(goals));
    }
    let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    for &i in order {
        let boxed: Box<dyn Negotiator> = if stubborn == Some(PartyId(i as u32)) {
            Box::new(Stubborn)
        } else {
            Box::new(DropBlamedSoftGoals)
        };
        negs.insert(PartyId(i as u32), boxed);
    }
    let report =
        run_negotiation(&mut s, &mut negs, MAX_ROUNDS, schedule).expect("negotiation runs");
    if report.success {
        let mut combined = Instance::new();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in s.check_goals(&combined) {
            assert!(holds, "delivered configs violate surviving goal {name}");
        }
    }
    report.success
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The negotiation verdict is invariant under party registration
    /// (= turn) order, and equals hard-literal consistency.
    #[test]
    fn round_robin_verdict_is_order_invariant(p in problem_strategy()) {
        let w = world(p.n);
        let expected = literals_consistent(
            p.goals.iter().flatten().filter(|l| l.hard),
        );

        let identity: Vec<usize> = (0..p.n).collect();
        let reversed: Vec<usize> = (0..p.n).rev().collect();
        let shuffled = shuffled(p.n, p.perm_seed);
        for order in [&identity, &reversed, &shuffled] {
            let got = negotiate(&p, &w, order, Schedule::RoundRobin, None);
            prop_assert_eq!(
                got, expected,
                "order {:?} of {:?}: verdict {} but hard literals {} consistent",
                order, p, got, if expected { "are" } else { "are not" }
            );
        }
    }

    /// Hub-and-spoke is the degenerate schedule where the hub never
    /// revises: it succeeds iff hard literals ∪ the hub's full goal set
    /// is consistent, and agrees with round-robin under a Stubborn hub.
    #[test]
    fn hub_and_spoke_matches_stubborn_hub_round_robin(p in problem_strategy()) {
        let w = world(p.n);
        let hub = PartyId(0);
        let expected = literals_consistent(
            p.goals
                .iter()
                .enumerate()
                .flat_map(|(i, gs)| gs.iter().filter(move |l| l.hard || i == 0)),
        );
        let order: Vec<usize> = (0..p.n).collect();
        let spoke = negotiate(&p, &w, &order, Schedule::HubAndSpoke(hub), Some(hub));
        prop_assert_eq!(
            spoke, expected,
            "hub-and-spoke on {:?}: verdict {} but hub-augmented hard literals {} consistent",
            p, spoke, if expected { "are" } else { "are not" }
        );
        let twin = negotiate(&p, &w, &order, Schedule::RoundRobin, Some(hub));
        prop_assert_eq!(
            spoke, twin,
            "hub-and-spoke and stubborn-hub round-robin disagree on {:?}", p
        );
    }
}
