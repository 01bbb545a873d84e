//! Differential property tests for the SAT-kernel speed program.
//!
//! Two oracles guard the kernel upgrades:
//!
//! * **Target strategies agree** — core-guided (OLL) `solve_target`
//!   must return byte-identical outcomes and distances to the linear
//!   search baseline on random instances, sequentially and with a
//!   4-thread portfolio configured on the engine.
//! * **Inprocessing is invisible** — with the pass forced to fire
//!   (tiny interval), verdicts, canonical models and minimized cores
//!   must match a kernel running the flat pre-change configuration
//!   (no inprocessing, flat clause cap), both on random CNFs at the
//!   `muppet-sat` level and on warm `IncrementalQuery` stores solved
//!   over several rounds.

use muppet_logic::{Domain, Formula, Instance, PartialInstance, PartyId, Term, Universe, Vocabulary};
use muppet_sat::{mus, Budget, Lit, ReduceStrategy, SolveResult, Solver, Var};
use muppet_solver::{
    FormulaGroup, IncrementalQuery, Outcome, PortfolioConfig, TargetStrategy,
};
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
    threads: usize,
) -> (String, usize) {
    let mut q = engine(f);
    q.set_target_strategy(strategy);
    if threads > 1 {
        q.set_portfolio(Some(PortfolioConfig {
            threads,
            deterministic: true,
            ..PortfolioConfig::default()
        }));
    }
    let (out, dist) = q
        .solve_target(&groups_of(f, goals), target, Budget::unlimited())
        .unwrap();
    (sig(&out), dist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// OLL core-guided optimization and the linear-search baseline are
    /// observationally identical: same verdict, same canonical model,
    /// same minimized core, same optimal distance — with and without a
    /// portfolio configured on the engine.
    #[test]
    fn oll_matches_linear_search(goals in goal_set(), tuples in target_tuples()) {
        let f = fix();
        let target = target_of(&f, &tuples);
        let (lin_sig, lin_dist) =
            solve_target_with(&f, &goals, &target, TargetStrategy::Linear, 1);
        for threads in [1usize, 4] {
            let (oll_sig, oll_dist) =
                solve_target_with(&f, &goals, &target, TargetStrategy::CoreGuided, threads);
            prop_assert_eq!(&oll_sig, &lin_sig, "threads={}", threads);
            prop_assert_eq!(oll_dist, lin_dist, "threads={}", threads);
        }
    }

    /// Inprocessing (forced to fire with a 1-conflict interval) plus
    /// the tiered clause DB preserve the verdict of the flat,
    /// no-inprocessing baseline kernel on random 3-CNFs, and produce
    /// the identical deterministic minimized core under assumptions.
    #[test]
    fn inprocessing_preserves_random_cnf_verdicts(
        nvars in 8usize..24,
        seed_clauses in prop::collection::vec(
            prop::collection::vec((0u32..24, any::<bool>()), 3), 20..120),
        assumed in prop::collection::vec((0u32..24, any::<bool>()), 0..4),
    ) {
        let build = |tiered: bool| {
            let mut s = Solver::new();
            if tiered {
                s.set_inprocessing(true);
                s.set_inprocess_interval(1);
                s.set_reduce_strategy(ReduceStrategy::Tiered);
                s.set_max_learnt(30); // keep the tier machinery busy
            } else {
                s.set_inprocessing(false);
                s.set_reduce_strategy(ReduceStrategy::Flat);
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
        let (mut tiered, assms2) = build(true);
        prop_assert_eq!(&assms, &assms2);
        let r1 = base.solve_with_assumptions(&assms);
        let r2 = tiered.solve_with_assumptions(&assms);
        prop_assert_eq!(r1.is_sat(), r2.is_sat(), "verdicts diverged");
        prop_assert_eq!(r1.is_unsat(), r2.is_unsat());
        if r1.is_unsat() && !assms.is_empty() {
            // Ordered deletion is deterministic and semantic, so the
            // minimized cores must be byte-identical too.
            let c1 = match mus::shrink_core_ordered(&mut base, &assms) {
                mus::ShrinkResult::Minimal(c) => c,
                other => panic!("baseline shrink: {other:?}"),
            };
            let c2 = match mus::shrink_core_ordered(&mut tiered, &assms) {
                mus::ShrinkResult::Minimal(c) => c,
                other => panic!("tiered shrink: {other:?}"),
            };
            prop_assert_eq!(c1, c2, "minimized cores diverged");
        }
    }

    /// On a warm engine solved over several rounds (so learnt state,
    /// tier churn and inprocessing accumulate across solves), verdicts,
    /// canonical models and minimized cores match an engine with the
    /// kernel upgrades disabled.
    #[test]
    fn inprocessing_is_invisible_on_warm_stores(
        rounds in prop::collection::vec(goal_set(), 2..=3),
    ) {
        let f = fix();
        let mut upgraded = engine(&f);
        upgraded.set_inprocessing(true).set_inprocess_interval(1);
        let mut baseline = engine(&f);
        baseline.set_inprocessing(false);
        for goals in &rounds {
            let groups = groups_of(&f, goals);
            let o1 = upgraded.solve(&groups, Budget::unlimited()).unwrap();
            let o2 = baseline.solve(&groups, Budget::unlimited()).unwrap();
            prop_assert_eq!(sig(&o1), sig(&o2), "warm round diverged");
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
    s.set_inprocess_interval(50);
    s.set_max_learnt(40);
    php(&mut s, 7);
    assert!(matches!(s.solve(), SolveResult::Unsat(_)));
    let mut flat = Solver::new();
    flat.set_inprocessing(false);
    flat.set_reduce_strategy(ReduceStrategy::Flat);
    php(&mut flat, 7);
    assert!(matches!(flat.solve(), SolveResult::Unsat(_)));
}
