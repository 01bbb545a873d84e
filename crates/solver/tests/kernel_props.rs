//! Differential property tests for the SAT-kernel speed program.
//!
//! Two oracles guard the kernel upgrades:
//!
//! * **Target strategies agree** — core-guided (OLL) `solve_target`
//!   must return byte-identical outcomes and distances to the linear
//!   search baseline on random instances.
//! * **Kernel upgrades are invisible** — with the learnt DB under
//!   reduction pressure, verdicts and minimized cores on random CNFs
//!   must match the legacy kernel ([`Solver::set_legacy_kernel`]:
//!   one-step minimization, fixed VSIDS decay) at the `muppet-sat`
//!   level. Warm-versus-fresh equality of whole engines is gated by
//!   the workspace's `incremental_diff` and `stream_props` tests.

use muppet_logic::{Domain, Formula, Instance, PartialInstance, PartyId, Term, Universe, Vocabulary};
use muppet_sat::{mus, Budget, Lit, SolveResult, Solver, Var};
use muppet_solver::{FormulaGroup, IncrementalQuery, Outcome, TargetStrategy};
use proptest::prelude::*;

const N_ATOMS: usize = 4;

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

/// Everything observable about an outcome except the work counters.
fn sig(out: &Outcome) -> String {
    match out {
        Outcome::Sat { solution, .. } => format!("sat {solution:?}"),
        Outcome::Unsat { core, .. } => format!("unsat {core:?}"),
        Outcome::Unknown { phase, partial, .. } => format!("unknown {phase} {partial:?}"),
    }
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

fn solve_target_with(
    f: &Fix,
    goals: &[Vec<GoalLit>],
    target: &Instance,
    strategy: TargetStrategy,
) -> (String, usize) {
    let mut q = engine(f);
    q.set_target_strategy(strategy);
    let (out, dist) = q
        .solve_target(&groups_of(f, goals), target, Budget::unlimited())
        .unwrap();
    (sig(&out), dist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// OLL core-guided optimization and the linear-search baseline are
    /// observationally identical: same verdict, same canonical model,
    /// same minimized core, same optimal distance.
    #[test]
    fn oll_matches_linear_search(goals in goal_set(), tuples in target_tuples()) {
        let f = fix();
        let target = target_of(&f, &tuples);
        let (lin_sig, lin_dist) = solve_target_with(&f, &goals, &target, TargetStrategy::Linear);
        let (oll_sig, oll_dist) =
            solve_target_with(&f, &goals, &target, TargetStrategy::CoreGuided);
        prop_assert_eq!(&oll_sig, &lin_sig);
        prop_assert_eq!(oll_dist, lin_dist);
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
