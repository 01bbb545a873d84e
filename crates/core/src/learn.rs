//! Envelope *learning*: characterizing the recipient's solution space by
//! iteration, without syntactic access to the sender's goals.
//!
//! Sec. 7 (*Envelopes for Stateful Systems*): "much existing synthesis in
//! the stateful setting use techniques that gradually learn constraints
//! from counterexamples. In principle, complete envelopes could be
//! obtained from these constraints after iterating until the solution
//! space is fully characterized (as Cimatti, et al. do), rather than
//! halting at the first correct candidate."
//!
//! Alg. 3 needs to *decompose and substitute inside* the sender's goal
//! formulas. When goals are opaque — an oracle, a stateful property
//! checked by unrolling, a legacy verifier — that is unavailable. This
//! module learns the envelope semantically instead:
//!
//! 1. ask the solver for a recipient configuration (over a finite
//!    *scope* of candidate tuples) under which the sender's goals hold;
//! 2. **generalize** the found model to a prime implicant: drop each
//!    literal whose value provably does not matter (an UNSAT check of
//!    `¬goals` under the remaining cube);
//! 3. block the cube and repeat until no uncovered satisfying
//!    configuration remains.
//!
//! Every query — find and generalize alike — runs on one warm engine
//! over the scope: the goals, their negation, each blocking cube and
//! each cube literal are selector-gated groups encoded once, so a
//! generalization probe is a choice of assumptions, not a new encoding.
//!
//! The resulting cube list is a DNF over the recipient's tuples that is
//! — by construction — *necessary and sufficient* within the scope:
//! exactly an envelope, obtained without ever looking inside the goals.

use muppet_logic::{
    AtomId, Formula, Instance, PartialInstance, PartyId, RelId, Term,
};
use muppet_solver::{FormulaGroup, Outcome, Phase};

use crate::session::{MuppetError, Session};

/// The finite set of recipient tuples the learner characterizes over.
/// Tuples outside the scope are treated as absent (closed world).
#[derive(Clone, Debug)]
pub struct Scope {
    /// Ground tuples of recipient-owned relations.
    pub tuples: Vec<(RelId, Vec<AtomId>)>,
}

impl Scope {
    /// A scope from an explicit tuple list.
    pub fn new(tuples: Vec<(RelId, Vec<AtomId>)>) -> Scope {
        Scope { tuples }
    }

    /// Number of scope tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the scope empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A cube: a partial assignment of scope tuples. Tuples in neither list
/// are "don't care".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cube {
    /// Tuples that must be present.
    pub positive: Vec<(RelId, Vec<AtomId>)>,
    /// Tuples that must be absent.
    pub negative: Vec<(RelId, Vec<AtomId>)>,
}

impl Cube {
    /// Does a configuration match this cube?
    pub fn matches(&self, config: &Instance) -> bool {
        self.positive.iter().all(|(r, t)| config.holds(*r, t))
            && self.negative.iter().all(|(r, t)| !config.holds(*r, t))
    }

    /// The cube's literals as formulas: each positive tuple, then each
    /// negated negative one.
    fn literal_formulas(&self) -> impl Iterator<Item = Formula> + '_ {
        let pred =
            |(r, t): &(RelId, Vec<AtomId>)| Formula::pred(*r, t.iter().map(|&a| Term::Const(a)));
        let negated = self.negative.iter().map(move |l| Formula::not(pred(l)));
        self.positive.iter().map(pred).chain(negated)
    }

    /// The cube as a conjunction formula.
    pub fn to_formula(&self) -> Formula {
        Formula::and(self.literal_formulas().collect::<Vec<_>>())
    }

    /// Number of fixed literals (lower = more general).
    pub fn literals(&self) -> usize {
        self.positive.len() + self.negative.len()
    }
}

/// The learned envelope: a DNF over the scope.
#[derive(Clone, Debug)]
pub struct LearnedEnvelope {
    /// The prime-implicant cubes. Empty means *no* recipient
    /// configuration (within scope) satisfies the sender's goals.
    pub cubes: Vec<Cube>,
    /// Solver iterations spent (find + generalization queries).
    pub queries: usize,
    /// True when the space was fully characterized within the iteration
    /// budget.
    pub complete: bool,
}

impl LearnedEnvelope {
    /// Does a configuration (restricted to the scope) satisfy the
    /// learned envelope?
    pub fn check(&self, config: &Instance) -> bool {
        self.cubes.iter().any(|c| c.matches(config))
    }

    /// The envelope as a disjunction-of-cubes formula.
    pub fn to_formula(&self) -> Formula {
        Formula::or(self.cubes.iter().map(Cube::to_formula).collect::<Vec<_>>())
    }
}

/// Learn `E_{from→to}` over `scope`, treating the sender's goals as an
/// opaque satisfiability oracle.
///
/// `max_cubes` bounds the iteration (each iteration adds one prime
/// implicant); if the budget is exhausted before full characterization,
/// the result has `complete == false` (its cubes are still *sufficient*,
/// just possibly not necessary).
///
/// Every query runs on the session's warm engine for the scope shape:
/// the goal group is grounded and encoded once, each iteration adds
/// only its one new blocking-cube group, and learned clauses persist —
/// so iteration `n` does `O(1)` new encoding work instead of
/// re-compiling `n` groups. A generalization probe submits the negated
/// goals plus one group per kept cube literal on the same engine, so it
/// encodes at most the literal groups it has not met before.
pub fn learn_envelope(
    session: &mut Session<'_>,
    from: PartyId,
    c_from: &Instance,
    to: PartyId,
    scope: &Scope,
    max_cubes: usize,
) -> Result<LearnedEnvelope, MuppetError> {
    let sender = session.party(from)?;
    session.party(to)?;
    let goal_formulas: Vec<Formula> =
        sender.goals.iter().map(|g| g.formula.clone()).collect();
    let fixed = session.structure().union(c_from);

    // Scope bounds: recipient relations range over exactly the scope.
    let mut scope_bounds = PartialInstance::new();
    let to_rels = session.owned_rels(to);
    for &rel in &to_rels {
        scope_bounds.bound(rel);
    }
    for (rel, tuple) in &scope.tuples {
        scope_bounds.permit(*rel, tuple.clone());
    }

    let mut cubes: Vec<Cube> = Vec::new();
    let mut queries = 0usize;
    let mut complete = false;
    let negated_goals = FormulaGroup::new(
        "neg goals",
        vec![Formula::not(Formula::and(goal_formulas.clone()))],
    );
    let mut groups = vec![FormulaGroup::new("goals", goal_formulas)];

    while cubes.len() < max_cubes {
        // 1. Find a satisfying recipient configuration not covered yet,
        //    on the warm engine (fresh groups only are encoded).
        queries += 1;
        let (outcome, _attempts) = session.run(
            &to_rels,
            &scope_bounds,
            Some(&fixed),
            &groups,
            |pq, groups, budget| pq.solve(groups, budget),
        )?;
        let model = match outcome {
            Outcome::Sat { solution, .. } => solution,
            Outcome::Unsat { .. } => {
                complete = true;
                break;
            }
            Outcome::Unknown { phase, stats, .. } => {
                // Learning has no partial-result channel: a cube set
                // generalized under an exhausted query would be unsound.
                return Err(MuppetError::Exhausted { phase, stats });
            }
        };

        // 2. Seed cube: the model's full assignment of the scope.
        let mut cube = Cube {
            positive: Vec::new(),
            negative: Vec::new(),
        };
        for (rel, tuple) in &scope.tuples {
            if model.holds(*rel, tuple) {
                cube.positive.push((*rel, tuple.clone()));
            } else {
                cube.negative.push((*rel, tuple.clone()));
            }
        }

        // 3. Generalize to a prime implicant: a literal can be dropped
        //    when `¬goals` is unsatisfiable under the remaining cube,
        //    whose kept literals are one group each; a dropped literal's
        //    tuple ranges freely over the scope.
        let mut idx = 0usize;
        while idx < cube.literals() {
            let mut candidate = cube.clone();
            if idx < candidate.positive.len() {
                candidate.positive.remove(idx);
            } else {
                candidate.negative.remove(idx - candidate.positive.len());
            }
            let probe: Vec<FormulaGroup> = std::iter::once(negated_goals.clone())
                .chain(
                    candidate
                        .literal_formulas()
                        .map(|l| FormulaGroup::new("cube literal", vec![l])),
                )
                .collect();
            queries += 1;
            let (outcome, _attempts) = session.run(
                &to_rels,
                &scope_bounds,
                Some(&fixed),
                &probe,
                |pq, groups, budget| pq.solve(groups, budget),
            )?;
            match outcome {
                // Every completion satisfies the goals: drop it. A budget
                // that fired while the core was being minimized had
                // already established that.
                Outcome::Unsat { .. }
                | Outcome::Unknown {
                    phase: Phase::Minimize,
                    ..
                } => {
                    cube = candidate;
                }
                // A counterexample, or no verdict: keep the literal. The
                // cube stays sound, just possibly less general.
                Outcome::Sat { .. } | Outcome::Unknown { .. } => {
                    idx += 1;
                }
            }
        }
        groups.push(FormulaGroup::new(
            format!("block cube {}", cubes.len()),
            vec![Formula::not(cube.to_formula())],
        ));
        cubes.push(cube);
    }

    Ok(LearnedEnvelope {
        cubes,
        queries,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{NamedGoal, Party};
    use crate::session::Session;
    use muppet_logic::{evaluate_closed, Domain, Universe, Vocabulary};

    /// Sender owns deny(S); recipient owns allow(S), guard(S); structure
    /// up(S); 2 atoms — the same tiny domain as the envelope property
    /// tests, so learned and syntactic envelopes can be compared.
    struct Tiny {
        universe: Universe,
        vocab: Vocabulary,
        sender: PartyId,
        recipient: PartyId,
        deny: RelId,
        allow: RelId,
        guard: RelId,
        up: RelId,
        atoms: Vec<AtomId>,
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

    fn scope_of(t: &Tiny) -> Scope {
        Scope::new(
            [t.allow, t.guard]
                .iter()
                .flat_map(|&r| t.atoms.iter().map(move |&a| (r, vec![a])))
                .collect(),
        )
    }

    fn session_with_goal<'a>(t: &'a Tiny, goal: Formula) -> Session<'a> {
        let mut s = Session::new(&t.universe, t.vocab.clone(), {
            // Structure: both services up.
            let mut st = Instance::new();
            for &a in &t.atoms {
                st.insert(t.up, vec![a]);
            }
            st
        });
        s.add_party(
            Party::new(t.sender, "sender").with_goals([NamedGoal::hard("g", goal)]),
        );
        s.add_party(Party::new(t.recipient, "recipient"));
        s
    }

    /// The learned DNF must agree with direct goal evaluation on *every*
    /// scope assignment — i.e. it is a necessary-and-sufficient envelope,
    /// obtained without decomposing the goal.
    #[test]
    fn learned_envelope_characterizes_the_space_exactly() {
        let t = tiny();
        let mut vocab = t.vocab.clone();
        let x = vocab.fresh_var();
        let goals = vec![
            // ∀x: deny(x) ∨ allow(x)
            Formula::forall(
                x,
                muppet_logic::SortId(0),
                Formula::or([
                    Formula::pred(t.deny, [Term::Var(x)]),
                    Formula::pred(t.allow, [Term::Var(x)]),
                ]),
            ),
            // ∀x: guard(x) ⇒ allow(x)
            Formula::forall(
                x,
                muppet_logic::SortId(0),
                Formula::implies(
                    Formula::pred(t.guard, [Term::Var(x)]),
                    Formula::pred(t.allow, [Term::Var(x)]),
                ),
            ),
            // ∃x: allow(x) ∧ ¬guard(x) ∧ up(x)
            Formula::exists(
                x,
                muppet_logic::SortId(0),
                Formula::and([
                    Formula::pred(t.allow, [Term::Var(x)]),
                    Formula::not(Formula::pred(t.guard, [Term::Var(x)])),
                    Formula::pred(t.up, [Term::Var(x)]),
                ]),
            ),
        ];
        for goal in goals {
            for deny_mask in 0..4u8 {
                let mut c_a = Instance::new();
                for (i, &a) in t.atoms.iter().enumerate() {
                    if deny_mask & (1 << i) != 0 {
                        c_a.insert(t.deny, vec![a]);
                    }
                }
                let mut session = session_with_goal(&t, goal.clone());
                let scope = scope_of(&t);
                let learned =
                    learn_envelope(&mut session, t.sender, &c_a, t.recipient, &scope, 64)
                        .unwrap();
                assert!(learned.complete);
                // Compare against direct evaluation over all 16 scope
                // assignments.
                for mask in 0..16u8 {
                    let mut c_b = Instance::new();
                    for (bit, (rel, tuple)) in scope.tuples.iter().enumerate() {
                        if mask & (1 << bit) != 0 {
                            c_b.insert(*rel, tuple.clone());
                        }
                    }
                    let combined = session.structure().union(&c_a).union(&c_b);
                    let goal_holds =
                        evaluate_closed(&goal, &combined, &t.universe).unwrap();
                    assert_eq!(
                        learned.check(&c_b),
                        goal_holds,
                        "goal {goal:?} deny_mask {deny_mask} scope mask {mask}"
                    );
                }
            }
        }
    }

    #[test]
    fn generalization_produces_small_cubes() {
        let t = tiny();
        let mut vocab = t.vocab.clone();
        let x = vocab.fresh_var();
        // Goal touches only allow(a): the learned envelope must not
        // mention guard at all.
        let goal = Formula::pred(t.allow, [Term::Const(t.atoms[0])]);
        let _ = x;
        let mut session = session_with_goal(&t, goal);
        let learned = learn_envelope(
            &mut session,
            t.sender,
            &Instance::new(),
            t.recipient,
            &scope_of(&t),
            64,
        )
        .unwrap();
        assert!(learned.complete);
        assert_eq!(learned.cubes.len(), 1, "{:?}", learned.cubes);
        assert_eq!(learned.cubes[0].literals(), 1);
        assert_eq!(learned.cubes[0].positive.len(), 1);
        // Far fewer queries than the 2^4 assignments.
        assert!(learned.queries <= 8, "{}", learned.queries);
        // The generalization probes ran on the find loop's warm engine:
        // the store holds that one engine.
        assert_eq!(session.store().len(), 1);
    }

    #[test]
    fn unsatisfiable_goals_learn_the_empty_envelope() {
        let t = tiny();
        let goal = Formula::and([
            Formula::pred(t.allow, [Term::Const(t.atoms[0])]),
            Formula::not(Formula::pred(t.allow, [Term::Const(t.atoms[0])])),
        ]);
        let mut session = session_with_goal(&t, goal);
        let learned = learn_envelope(
            &mut session,
            t.sender,
            &Instance::new(),
            t.recipient,
            &scope_of(&t),
            64,
        )
        .unwrap();
        assert!(learned.complete);
        assert!(learned.cubes.is_empty());
        assert!(!learned.check(&Instance::new()));
        assert_eq!(learned.to_formula(), Formula::or(Vec::<Formula>::new()));
    }

    /// On the mesh domain: the learned envelope agrees with the Alg. 3
    /// (syntactic) envelope over a focused scope — the two routes to
    /// `E_{K8s→Istio}` coincide.
    #[test]
    fn learned_matches_syntactic_envelope_on_mesh_scope() {
        use muppet_goals::{fig2, translate_k8s_goals};
        use muppet_mesh::MeshVocab;

        let mv = MeshVocab::paper_example();
        let mut vocab = mv.vocab.clone();
        let k8s_goals = translate_k8s_goals(&fig2(), &mv, &mut vocab).unwrap();
        let mut session = Session::new(&mv.universe, vocab, Instance::new());
        session.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        session.add_party(Party::new(mv.istio_party, "istio-admin"));

        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        // Scope: the tuples that matter for the port-23 ban when only
        // fe could listen on 23 and only be/fe can send.
        let scope = Scope::new(vec![
            (mv.listens, vec![fe, p23]),
            (mv.istio_eg_deny, vec![be, p23]),
            (mv.istio_eg_deny, vec![fe, p23]),
            (mv.istio_in_guard, vec![fe]),
            (mv.istio_in_deny, vec![fe, be]),
            (mv.istio_in_deny, vec![fe, fe]),
        ]);
        let db = mv.svc_atom("test-db").unwrap();
        let scope = Scope::new(
            scope
                .tuples
                .into_iter()
                .chain([
                    (mv.istio_eg_deny, vec![db, p23]),
                    (mv.istio_in_deny, vec![fe, db]),
                ])
                .collect(),
        );

        let c_a = Instance::new();
        let learned =
            learn_envelope(&mut session, mv.k8s_party, &c_a, mv.istio_party, &scope, 256)
                .unwrap();
        assert!(learned.complete);
        let syntactic = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &c_a)
            .unwrap();

        // Exhaustive agreement over the 2^8 scope assignments.
        for mask in 0..(1u32 << scope.len()) {
            let mut c_b = Instance::new();
            for (bit, (rel, tuple)) in scope.tuples.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    c_b.insert(*rel, tuple.clone());
                }
            }
            let syn_ok = syntactic.check(&c_b, session.universe()).is_empty();
            assert_eq!(
                learned.check(&c_b),
                syn_ok,
                "mask {mask}: learned and syntactic envelopes disagree"
            );
        }
    }
}
