//! Envelope semantics: necessity and sufficiency.
//!
//! The paper defines an envelope as "a necessary and sufficient set of
//! predicates" (Sec. 3): for a fixed sender configuration `C_A`, a
//! recipient configuration `C_B` satisfies `E_{A→B}` **iff** the union
//! `C_A ∪ C_B` satisfies every sender goal whose residue holds. We check
//! this by exhaustive enumeration of recipient configurations on a small
//! universe, and by solver-driven sampling on the paper mesh.

use muppet::{NamedGoal, Party, Session};
use muppet_logic::{
    evaluate_closed, Domain, Formula, Instance, PartialInstance, PartyId, Term, Universe,
    Vocabulary,
};
use muppet_solver::{Budget, IncrementalQuery};

/// A deliberately tiny two-party domain so recipient configurations can
/// be enumerated exhaustively: sender owns `deny(S)`, recipient owns
/// `allow(S)` and `guard(S)`, shared structure `up(S)`, 2 atoms.
struct Tiny {
    universe: Universe,
    vocab: Vocabulary,
    sender: PartyId,
    recipient: PartyId,
    deny: muppet_logic::RelId,
    allow: muppet_logic::RelId,
    guard: muppet_logic::RelId,
    up: muppet_logic::RelId,
    atoms: Vec<muppet_logic::AtomId>,
}

fn tiny() -> Tiny {
    let mut universe = Universe::new();
    let s = universe.add_sort("S");
    let atoms = vec![universe.add_atom(s, "a"), universe.add_atom(s, "b")];
    let mut vocab = Vocabulary::new();
    let sender = PartyId(0);
    let recipient = PartyId(1);
    let deny = vocab.add_simple_rel("deny", vec![s], Domain::Party(sender));
    let allow = vocab.add_simple_rel("allow", vec![s], Domain::Party(recipient));
    let guard = vocab.add_simple_rel("guard", vec![s], Domain::Party(recipient));
    let up = vocab.add_simple_rel("up", vec![s], Domain::Structure);
    Tiny {
        universe,
        vocab,
        sender,
        recipient,
        deny,
        allow,
        guard,
        up,
        atoms,
    }
}

/// Enumerate every instance over the given unary relations and atoms.
fn enumerate_unary(
    rels: &[muppet_logic::RelId],
    atoms: &[muppet_logic::AtomId],
) -> Vec<Instance> {
    let slots: Vec<(muppet_logic::RelId, muppet_logic::AtomId)> = rels
        .iter()
        .flat_map(|&r| atoms.iter().map(move |&a| (r, a)))
        .collect();
    (0..(1u32 << slots.len()))
        .map(|mask| {
            let mut inst = Instance::new();
            for (bit, &(r, a)) in slots.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    inst.insert(r, vec![a]);
                }
            }
            inst
        })
        .collect()
}

/// Exhaustive necessity + sufficiency over every sender config, sender
/// goal shape, structure, and recipient completion of a tiny universe.
#[test]
fn envelope_is_necessary_and_sufficient_exhaustively() {
    let t = tiny();
    let structure_options = enumerate_unary(&[t.up], &t.atoms);
    let sender_configs = enumerate_unary(&[t.deny], &t.atoms);
    let recipient_configs = enumerate_unary(&[t.allow, t.guard], &t.atoms);

    // A handful of goal shapes mixing all three vocabularies.
    let mut vocab = t.vocab.clone();
    let x = vocab.fresh_var();
    let s_sort = muppet_logic::SortId(0);
    let goals: Vec<Formula> = vec![
        // ∀x: deny(x) ∨ allow(x) ∨ ¬up(x)
        Formula::forall(
            x,
            s_sort,
            Formula::or([
                Formula::pred(t.deny, [Term::Var(x)]),
                Formula::pred(t.allow, [Term::Var(x)]),
                Formula::not(Formula::pred(t.up, [Term::Var(x)])),
            ]),
        ),
        // ∀x: guard(x) ⇒ (deny(x) ∨ allow(x))
        Formula::forall(
            x,
            s_sort,
            Formula::implies(
                Formula::pred(t.guard, [Term::Var(x)]),
                Formula::or([
                    Formula::pred(t.deny, [Term::Var(x)]),
                    Formula::pred(t.allow, [Term::Var(x)]),
                ]),
            ),
        ),
        // ∃x: ¬deny(x) ∧ allow(x) ∧ up(x)
        Formula::exists(
            x,
            s_sort,
            Formula::and([
                Formula::not(Formula::pred(t.deny, [Term::Var(x)])),
                Formula::pred(t.allow, [Term::Var(x)]),
                Formula::pred(t.up, [Term::Var(x)]),
            ]),
        ),
        // Mixed conjunction that decompose() will split.
        Formula::and([
            Formula::pred(t.deny, [Term::Const(t.atoms[0])]),
            Formula::pred(t.allow, [Term::Const(t.atoms[1])]),
            Formula::pred(t.up, [Term::Const(t.atoms[0])]),
        ]),
    ];

    for structure in &structure_options {
        for goal in &goals {
            for c_a in &sender_configs {
                let mut session =
                    Session::new(&t.universe, vocab.clone(), structure.clone());
                session.add_party(
                    Party::new(t.sender, "sender")
                        .with_goals([NamedGoal::hard("g", goal.clone())]),
                );
                session.add_party(Party::new(t.recipient, "recipient"));
                let env = session
                    .compute_envelope(t.sender, t.recipient, c_a)
                    .expect("envelope computes");

                for c_b in &recipient_configs {
                    let combined = structure.union(c_a).union(c_b);
                    let goal_holds =
                        evaluate_closed(goal, &combined, &t.universe).unwrap();
                    let recipient_side = structure.union(c_b);
                    let env_ok = env.check(&recipient_side, &t.universe).is_empty()
                        && env.impossible.is_empty();
                    let residual_ok = env.residual_violations.is_empty();
                    assert_eq!(
                        goal_holds,
                        env_ok && residual_ok,
                        "necessity/sufficiency violated\n\
                         goal: {goal:?}\nC_A: {c_a:?}\nC_B: {c_b:?}\n\
                         structure: {structure:?}\nenvelope: {env:?}"
                    );
                }
            }
        }
    }
}

/// On the real mesh domain: every recipient configuration the solver
/// enumerates as envelope-satisfying also satisfies the sender's goals
/// when combined with the sender's config — and models violating the
/// envelope violate the goals.
#[test]
fn envelope_agrees_with_goals_on_sampled_mesh_configs() {
    use muppet_scenario::paper::{session, vocab, IstioTable};
    let mv = vocab();
    let s = session(&mv, IstioTable::Fig3);
    let c_a = Instance::new(); // provider fixed config (pre-push)
    let env = s
        .compute_envelope(mv.k8s_party, mv.istio_party, &c_a)
        .expect("envelope");
    let k8s_goal = &s.party(mv.k8s_party).unwrap().goals[0];

    // Enumerate a few hundred Istio-side configurations over a reduced
    // bound (only tuples touching port 23 and the frontend, to keep the
    // space small but adversarial).
    let fe = mv.svc_atom("test-frontend").unwrap();
    let be = mv.svc_atom("test-backend").unwrap();
    let p23 = mv.port_atom(23).unwrap();
    let p25 = mv.port_atom(25).unwrap();
    let mut bounds = PartialInstance::new();
    for rel in [mv.istio_eg_deny, mv.istio_eg_allow] {
        bounds.bound(rel);
        bounds.permit(rel, vec![be, p23]);
        bounds.permit(rel, vec![fe, p23]);
    }
    for rel in [mv.istio_in_deny, mv.istio_in_allow] {
        bounds.bound(rel);
        bounds.permit(rel, vec![fe, be, p23][..2].to_vec());
    }
    for rel in [mv.istio_eg_guard, mv.istio_in_guard] {
        bounds.bound(rel);
        bounds.permit(rel, vec![fe]);
        bounds.permit(rel, vec![be]);
    }
    bounds.bound(mv.listens);
    bounds.permit(mv.listens, vec![fe, p23]);
    bounds.permit(mv.listens, vec![be, p25]);

    let mut q =
        IncrementalQuery::new(s.vocab(), s.universe(), &mv.istio_rels(), &bounds, Instance::new());
    let models = q.enumerate(&[], 4096, Budget::unlimited()).expect("enumerates");
    assert!(models.len() > 100, "want a meaningful sample");
    let mut satisfying = 0;
    for c_b in &models {
        let combined = c_a.union(c_b);
        let goal_holds = evaluate_closed(&k8s_goal.formula, &combined, s.universe()).unwrap();
        let env_ok = env.check(c_b, s.universe()).is_empty();
        assert_eq!(goal_holds, env_ok, "config {c_b:?}");
        if env_ok {
            satisfying += 1;
        }
    }
    // Both classes must be represented for the test to mean anything.
    assert!(satisfying > 0 && satisfying < models.len());
}
