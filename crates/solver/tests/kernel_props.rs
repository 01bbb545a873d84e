//! Differential property tests for the SAT-kernel speed program.
//!
//! Two oracles guard the kernel upgrades:
//!
//! * **Minimal edits are right** — core-guided (OLL) `solve_target`
//!   must return the minimal distance and the canonical (lex-min)
//!   model among the minimal ones that an exhaustive enumeration of
//!   every assignment finds, sharing no code with the ascent; on
//!   unsatisfiable goals it must blame the core `solve` gives.
//! * **Kernel upgrades are invisible** — with the learnt DB under
//!   reduction pressure, verdicts and minimized cores on random CNFs
//!   must match the legacy kernel ([`Solver::set_legacy_kernel`]:
//!   one-step minimization, fixed VSIDS decay) at the `muppet-sat`
//!   level. Warm-versus-fresh equality of whole engines is gated by
//!   the workspace's `incremental_diff` and `stream_props` tests.

use muppet_logic::{Domain, Formula, Instance, PartialInstance, PartyId, Term, Universe, Vocabulary};
use muppet_sat::{mus, Budget, Lit, SolveResult, Solver, Var};
use muppet_solver::{FormulaGroup, IncrementalQuery, Outcome};
use proptest::prelude::*;

const N_ATOMS: usize = 4;

/// Free tuple variables: tuple `(i, j)` of `allow` is bit
/// `i * N_ATOMS + j` of an assignment, the engine's variable order.
const N_TUPLES: usize = N_ATOMS * N_ATOMS;

struct Fix {
    u: Universe,
    v: Vocabulary,
    allow: muppet_logic::RelId,
    atoms: Vec<muppet_logic::AtomId>,
}

fn fix() -> Fix {
    let mut u = Universe::new();
    let s = u.add_sort("S");
    let atoms = (0..N_ATOMS).map(|i| u.add_atom(s, format!("a{i}"))).collect();
    let mut v = Vocabulary::new();
    let allow = v.add_simple_rel("allow", vec![s, s], Domain::Party(PartyId(0)));
    Fix { u, v, allow, atoms }
}

fn engine(f: &Fix) -> IncrementalQuery {
    IncrementalQuery::new(
        &f.v,
        &f.u,
        &[f.allow],
        &PartialInstance::new(),
        Instance::new(),
    )
}

/// A random goal literal: tuple (i, j) asserted or negated.
type GoalLit = (usize, usize, bool);

fn pred(f: &Fix, i: usize, j: usize) -> Formula {
    Formula::pred(f.allow, [Term::Const(f.atoms[i]), Term::Const(f.atoms[j])])
}

fn clause_formula(f: &Fix, clause: &[GoalLit]) -> Formula {
    Formula::or(clause.iter().map(|&(i, j, pos)| {
        let p = pred(f, i, j);
        if pos {
            p
        } else {
            Formula::not(p)
        }
    }))
}

fn groups_of(f: &Fix, goals: &[Vec<GoalLit>]) -> Vec<FormulaGroup> {
    goals
        .iter()
        .enumerate()
        .map(|(n, clause)| FormulaGroup::new(format!("g{n}"), vec![clause_formula(f, clause)]))
        .collect()
}

fn target_of(f: &Fix, tuples: &[(usize, usize)]) -> Instance {
    let mut t = Instance::new();
    for &(i, j) in tuples {
        t.insert(f.allow, vec![f.atoms[i], f.atoms[j]]);
    }
    t
}

/// The assignment of `inst`'s `allow` tuples, as bits.
fn bits_of(f: &Fix, inst: &Instance) -> u32 {
    let mut bits = 0;
    for i in 0..N_ATOMS {
        for j in 0..N_ATOMS {
            if inst.holds(f.allow, &[f.atoms[i], f.atoms[j]]) {
                bits |= 1 << (i * N_ATOMS + j);
            }
        }
    }
    bits
}

/// Exhaustive oracle: over all 2^16 assignments, the minimal distance
/// to `target` of one satisfying every goal clause, and the
/// lexicographically smallest such assignment in tuple order (`false <
/// true`, tuple 0 most significant); `None` when none satisfies them.
fn brute_force_min_edit(goals: &[Vec<GoalLit>], target: u32) -> Option<(usize, u32)> {
    let holds = |bits: u32, (i, j, pos): GoalLit| (bits >> (i * N_ATOMS + j) & 1 == 1) == pos;
    // Reversing the bits puts tuple 0 most significant.
    let lex_key = |bits: u32| bits.reverse_bits() >> (32 - N_TUPLES);
    (0..1u32 << N_TUPLES)
        .filter(|&bits| goals.iter().all(|c| c.iter().any(|&l| holds(bits, l))))
        .map(|bits| ((bits ^ target).count_ones() as usize, bits))
        .min_by_key(|&(distance, bits)| (distance, lex_key(bits)))
}

fn goal_lit() -> impl Strategy<Value = GoalLit> {
    (0..N_ATOMS, 0..N_ATOMS, any::<bool>())
}

fn goal_clause() -> impl Strategy<Value = Vec<GoalLit>> {
    prop::collection::vec(goal_lit(), 1..=3)
}

fn goal_set() -> impl Strategy<Value = Vec<Vec<GoalLit>>> {
    prop::collection::vec(goal_clause(), 1..=6)
}

fn target_tuples() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..N_ATOMS, 0..N_ATOMS), 0..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `solve_target` against an exhaustive oracle, on the random goal
    /// set (mostly satisfiable: the minimal distance and the lex-min
    /// model among the minimal ones) and on the same set plus a
    /// contradicting pair of unit goals (unsatisfiable: the core a
    /// fresh `solve` blames, and distance 0).
    #[test]
    fn minimal_edits_match_an_exhaustive_oracle(goals in goal_set(), tuples in target_tuples()) {
        let f = fix();
        let target = target_of(&f, &tuples);
        let (i, j, pos) = goals[0][0];
        let contradicted: Vec<Vec<GoalLit>> =
            goals.iter().cloned().chain([vec![(i, j, pos)], vec![(i, j, !pos)]]).collect();
        for goals in [goals, contradicted] {
            let groups = groups_of(&f, &goals);
            let (out, dist) =
                engine(&f).solve_target(&groups, &target, Budget::unlimited()).unwrap();
            match (brute_force_min_edit(&goals, bits_of(&f, &target)), &out) {
                (Some((distance, lex_min)), Outcome::Sat { solution, .. }) => {
                    prop_assert_eq!(dist, distance);
                    prop_assert_eq!(bits_of(&f, solution), lex_min);
                }
                (None, Outcome::Unsat { core, .. }) => {
                    let fresh = engine(&f).solve(&groups, Budget::unlimited()).unwrap();
                    prop_assert_eq!(Some(&core[..]), fresh.core());
                    prop_assert_eq!(dist, 0);
                }
                (oracle, out) => prop_assert!(false, "oracle {:?}, engine {:?}", oracle, out),
            }
        }
    }

    /// The tuned kernel — recursive minimization, the decay ramp and a
    /// small learnt cap — preserves the legacy kernel's verdict on
    /// random 3-CNFs, and produces the identical deterministic
    /// minimized core under assumptions.
    #[test]
    fn tuned_kernel_matches_legacy_on_random_cnfs(
        nvars in 8usize..24,
        seed_clauses in prop::collection::vec(
            prop::collection::vec((0u32..24, any::<bool>()), 3), 20..120),
        assumed in prop::collection::vec((0u32..24, any::<bool>()), 0..4),
    ) {
        let build = |tuned: bool| {
            let mut s = Solver::new();
            if tuned {
                s.set_max_learnt(30); // keep clause-DB reduction busy
            } else {
                s.set_legacy_kernel();
            }
            let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
            for c in &seed_clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| Lit::new(vars[v as usize % nvars], pos))
                    .collect();
                s.add_clause(lits);
            }
            let assumptions: Vec<Lit> = assumed
                .iter()
                .map(|&(v, pos)| Lit::new(vars[v as usize % nvars], pos))
                .collect();
            (s, assumptions)
        };
        let (mut base, assms) = build(false);
        let (mut tuned, assms2) = build(true);
        prop_assert_eq!(&assms, &assms2);
        let r1 = base.solve_with_assumptions(&assms);
        let r2 = tuned.solve_with_assumptions(&assms);
        prop_assert_eq!(r1.is_sat(), r2.is_sat(), "verdicts diverged");
        prop_assert_eq!(r1.is_unsat(), r2.is_unsat());
        if let (SolveResult::Unsat(first1), SolveResult::Unsat(first2)) = (&r1, &r2) {
            // Ordered deletion is deterministic and semantic, so the
            // minimized cores must be byte-identical too, whatever
            // first core each kernel's search reported.
            let c1 = match mus::shrink_core_ordered(&mut base, &assms, first1) {
                mus::ShrinkResult::Minimal(c) => c,
                other => panic!("baseline shrink: {other:?}"),
            };
            let c2 = match mus::shrink_core_ordered(&mut tuned, &assms, first2) {
                mus::ShrinkResult::Minimal(c) => c,
                other => panic!("tuned shrink: {other:?}"),
            };
            prop_assert_eq!(c1, c2, "minimized cores diverged");
        }
    }
}

/// Sanity anchor for the proptests: the pigeonhole family must stay
/// UNSAT under the upgraded kernel with aggressive settings, and reach
/// the same verdict as the baseline. (Deterministic, not property
/// based — a canary for the generators above ever weakening.)
#[test]
fn pigeonhole_verdict_survives_aggressive_kernel_settings() {
    let php = |s: &mut Solver, holes: usize| {
        let pigeons = holes + 1;
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in &vars {
            s.add_clause(p.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>());
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (&a, &b) in vars[p1].iter().zip(&vars[p2]) {
                    s.add_clause([Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
    };
    let mut s = Solver::new();
    s.set_max_learnt(40);
    php(&mut s, 7);
    assert!(matches!(s.solve(), SolveResult::Unsat(_)));
    let mut legacy = Solver::new();
    legacy.set_legacy_kernel();
    php(&mut legacy, 7);
    assert!(matches!(legacy.solve(), SolveResult::Unsat(_)));
}
