//! Core-level tests for the k ≥ 3 party extension (Sec. 7): multi-source
//! envelopes with per-sender obligation tags, three-way blame, and
//! negotiation cycles longer than two.

use std::collections::BTreeMap;

use muppet::negotiate::{run_negotiation, DropBlamedSoftGoals, Negotiator, Schedule, Stubborn};
use muppet::{NamedGoal, Party, ReconcileMode, Session};
use muppet_logic::{Domain, Formula, Instance, PartyId, Term, Universe, Vocabulary};

/// Three parties each own a unary relation over one sort of "features".
struct ThreeParty {
    universe: Universe,
    vocab: Vocabulary,
    parties: [PartyId; 3],
    rels: [muppet_logic::RelId; 3],
    atoms: Vec<muppet_logic::AtomId>,
}

fn three_party() -> ThreeParty {
    let mut universe = Universe::new();
    let s = universe.add_sort("F");
    let atoms = vec![
        universe.add_atom(s, "x"),
        universe.add_atom(s, "y"),
        universe.add_atom(s, "z"),
    ];
    let mut vocab = Vocabulary::new();
    let parties = [PartyId(0), PartyId(1), PartyId(2)];
    let rels = [
        vocab.add_simple_rel("en_a", vec![s], Domain::Party(parties[0])),
        vocab.add_simple_rel("en_b", vec![s], Domain::Party(parties[1])),
        vocab.add_simple_rel("en_c", vec![s], Domain::Party(parties[2])),
    ];
    ThreeParty {
        universe,
        vocab,
        parties,
        rels,
        atoms,
    }
}

fn on(rel: muppet_logic::RelId, atom: muppet_logic::AtomId) -> Formula {
    Formula::pred(rel, [Term::Const(atom)])
}

#[test]
fn multi_source_envelope_tags_obligations_by_sender() {
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    // A requires en_c(x); B requires en_c(y) ∨ en_b(y) — both impose on C
    // once their own sides are fixed.
    s.add_party(Party::new(t.parties[0], "A").with_goals([NamedGoal::hard(
        "A wants c-x",
        on(t.rels[2], t.atoms[0]),
    )]));
    s.add_party(Party::new(t.parties[1], "B").with_goals([NamedGoal::hard(
        "B wants c-y or b-y",
        Formula::or([on(t.rels[2], t.atoms[1]), on(t.rels[1], t.atoms[1])]),
    )]));
    s.add_party(Party::new(t.parties[2], "C"));

    // B's fixed config does NOT enable b-y, so its goal devolves onto C.
    let env = s
        .compute_multi_envelope(
            &[
                (t.parties[0], Instance::new()),
                (t.parties[1], Instance::new()),
            ],
            t.parties[2],
        )
        .unwrap();
    assert_eq!(env.predicates.len(), 2);
    let by_a: Vec<_> = env
        .predicates
        .iter()
        .filter(|p| p.obligated_by == t.parties[0])
        .collect();
    let by_b: Vec<_> = env
        .predicates
        .iter()
        .filter(|p| p.obligated_by == t.parties[1])
        .collect();
    assert_eq!(by_a.len(), 1);
    assert_eq!(by_b.len(), 1);
    assert_eq!(by_a[0].formula, on(t.rels[2], t.atoms[0]));
    assert_eq!(by_b[0].formula, on(t.rels[2], t.atoms[1]));

    // If B's fixed config already enables b-y, B's obligation vanishes:
    // obligation sources are per-sender, as Sec. 7 asks ("separating out
    // the source of obligations").
    let mut b_cfg = Instance::new();
    b_cfg.insert(t.rels[1], vec![t.atoms[1]]);
    let env = s
        .compute_multi_envelope(
            &[(t.parties[0], Instance::new()), (t.parties[1], b_cfg)],
            t.parties[2],
        )
        .unwrap();
    assert_eq!(env.predicates.len(), 1);
    assert_eq!(env.predicates[0].obligated_by, t.parties[0]);
    assert!(env.self_satisfied.iter().any(|g| g.contains("B wants")));
}

#[test]
fn three_way_conflict_blames_all_involved() {
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    // An odd cycle of requirements on the same feature bit: A says
    // en_c(x); B says en_c(x) ⇒ en_b(x); C says ¬en_b(x) ∧ ¬en_c(x)… make
    // it genuinely three-way: A: en_c(x). B: en_c(x) ⇒ en_b(x).
    // C(owner of en_c): ¬en_b(x).
    s.add_party(Party::new(t.parties[0], "A").with_goals([NamedGoal::hard(
        "require c-x",
        on(t.rels[2], t.atoms[0]),
    )]));
    s.add_party(Party::new(t.parties[1], "B").with_goals([NamedGoal::hard(
        "c-x implies b-x",
        Formula::implies(on(t.rels[2], t.atoms[0]), on(t.rels[1], t.atoms[0])),
    )]));
    s.add_party(Party::new(t.parties[2], "C").with_goals([NamedGoal::hard(
        "forbid b-x",
        Formula::not(on(t.rels[1], t.atoms[0])),
    )]));
    let rec = s.reconcile(ReconcileMode::Blameable).unwrap();
    assert!(!rec.success);
    assert_eq!(rec.core.len(), 3, "all three goals conflict: {:?}", rec.core);
    for name in ["A:", "B:", "C:"] {
        assert!(rec.core.iter().any(|c| c.starts_with(name)));
    }
}

#[test]
fn round_robin_cycles_through_three_parties() {
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    s.add_party(Party::new(t.parties[0], "A").with_goals([NamedGoal::hard(
        "require c-x",
        on(t.rels[2], t.atoms[0]),
    )]));
    s.add_party(Party::new(t.parties[1], "B").with_goals([NamedGoal::hard(
        "c-x implies b-x",
        Formula::implies(on(t.rels[2], t.atoms[0]), on(t.rels[1], t.atoms[0])),
    )]));
    s.add_party(Party::new(t.parties[2], "C").with_goals([NamedGoal::soft(
        "forbid b-x",
        Formula::not(on(t.rels[1], t.atoms[0])),
    )]));
    let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    negs.insert(t.parties[0], Box::new(Stubborn));
    negs.insert(t.parties[1], Box::new(Stubborn));
    negs.insert(t.parties[2], Box::new(DropBlamedSoftGoals));
    let report = run_negotiation(&mut s, &mut negs, 12, Schedule::RoundRobin).unwrap();
    assert!(report.success, "trace: {:#?}", report.trace);
    // C's turn is the third in the cycle: rounds 1 and 2 stand firm,
    // round 3 revises, round 4 reconciles.
    assert_eq!(report.rounds, 4);
    assert_eq!(report.configs.len(), 3);
    let mut combined = Instance::new();
    for c in report.configs.values() {
        combined = combined.union(c);
    }
    for (name, holds) in s.check_goals(&combined) {
        assert!(holds, "{name}");
    }
}

/// Provider-to-many-tenants conformance: one provider envelope per
/// tenant domain, each computed once; a flexible tenant conforms while a
/// self-contradictory one is rejected with blame.
#[test]
fn multi_tenant_conformance_serves_each_tenant_independently() {
    use muppet::conformance::run_conformance_multi_tenant;
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    // Provider A requires each tenant to enable feature x in its own
    // domain.
    s.add_party(Party::new(t.parties[0], "provider").with_goals([
        NamedGoal::hard("B enables x", on(t.rels[1], t.atoms[0])),
        NamedGoal::hard("C enables x", on(t.rels[2], t.atoms[0])),
    ]));
    // Tenant B is flexible.
    s.add_party(Party::new(t.parties[1], "tenant-b"));
    // Tenant C has a goal that directly contradicts its obligation.
    s.add_party(Party::new(t.parties[2], "tenant-c").with_goals([NamedGoal::hard(
        "x stays off",
        Formula::not(on(t.rels[2], t.atoms[0])),
    )]));
    let report =
        run_conformance_multi_tenant(&mut s, t.parties[0], &[t.parties[1], t.parties[2]]).unwrap();
    assert!(report.provider_consistent);
    assert_eq!(report.envelopes.len(), 2);
    // Each envelope speaks only its tenant's domain.
    let env_b = &report.envelopes[&t.parties[1]];
    assert!(env_b
        .predicates
        .iter()
        .all(|p| p.formula.rels().contains(&t.rels[1])));
    let env_c = &report.envelopes[&t.parties[2]];
    assert!(env_c
        .predicates
        .iter()
        .all(|p| p.formula.rels().contains(&t.rels[2])));
    // Outcomes: B conforms, C is rejected with both obligations named.
    assert_eq!(report.tenants.len(), 2);
    let b = &report.tenants[0];
    assert!(b.success);
    assert!(b.config.as_ref().unwrap().holds(t.rels[1], &[t.atoms[0]]));
    let c = &report.tenants[1];
    assert!(!c.success);
    assert!(c.blame.iter().any(|x| x.contains("envelope from provider")));
    assert!(c.blame.iter().any(|x| x.contains("x stays off")));
}

#[test]
fn multi_tenant_conformance_fails_fast_on_inconsistent_provider() {
    use muppet::conformance::run_conformance_multi_tenant;
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    s.add_party(Party::new(t.parties[0], "provider").with_goals([
        NamedGoal::hard("a on", on(t.rels[0], t.atoms[0])),
        NamedGoal::hard("a off", Formula::not(on(t.rels[0], t.atoms[0]))),
    ]));
    s.add_party(Party::new(t.parties[1], "tenant-b"));
    s.add_party(Party::new(t.parties[2], "tenant-c"));
    let report =
        run_conformance_multi_tenant(&mut s, t.parties[0], &[t.parties[1], t.parties[2]]).unwrap();
    assert!(!report.provider_consistent);
    assert!(report.envelopes.is_empty());
    assert!(report.tenants.iter().all(|o| !o.success));
}

#[test]
fn stuck_three_party_negotiation_stops_after_full_cycle() {
    let t = three_party();
    let mut s = Session::new(&t.universe, t.vocab.clone(), Instance::new());
    s.add_party(Party::new(t.parties[0], "A").with_goals([NamedGoal::hard(
        "x on",
        on(t.rels[2], t.atoms[0]),
    )]));
    s.add_party(Party::new(t.parties[1], "B"));
    s.add_party(Party::new(t.parties[2], "C").with_goals([NamedGoal::hard(
        "x off",
        Formula::not(on(t.rels[2], t.atoms[0])),
    )]));
    let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
    for p in t.parties {
        negs.insert(p, Box::new(Stubborn));
    }
    let report = run_negotiation(&mut s, &mut negs, 20, Schedule::RoundRobin).unwrap();
    assert!(!report.success);
    assert_eq!(report.rounds, 3, "one full stubborn cycle");
}
