//! Property-based testing of the CDCL solver against a brute-force
//! oracle, plus core-quality properties.
#![allow(clippy::needless_range_loop)] // PHP hole loops read better as written

use muppet_sat::{mus, Budget, CancelToken, Lit, RetryPolicy, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random CNF instance: clause lists over `n` variables encoded as
/// signed nonzero integers (DIMACS convention).
fn cnf_strategy(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<i32>>> {
    let lit = (1..=max_vars as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=3);
    prop::collection::vec(clause, 0..=max_clauses)
}

fn brute_force_sat(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
    'outer: for mask in 0..(1u32 << num_vars) {
        for clause in clauses {
            let ok = clause.iter().any(|&l| {
                let v = l.unsigned_abs() as usize - 1;
                let val = mask & (1 << v) != 0;
                (l > 0) == val
            });
            if !ok {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn load(num_vars: usize, clauses: &[Vec<i32>]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars = s.new_vars(num_vars);
    for c in clauses {
        s.add_clause(c.iter().map(|&l| {
            let v = vars[l.unsigned_abs() as usize - 1];
            Lit::new(v, l > 0)
        }));
    }
    (s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CDCL verdict equals the brute-force oracle, and SAT models
    /// actually satisfy every clause.
    #[test]
    fn solver_agrees_with_brute_force(clauses in cnf_strategy(10, 40)) {
        let num_vars = 10;
        let (mut s, vars) = load(num_vars, &clauses);
        let expected = brute_force_sat(num_vars, &clauses);
        match s.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT, oracle says UNSAT");
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let val = model.value(vars[l.unsigned_abs() as usize - 1]);
                        (l > 0) == val
                    });
                    prop_assert!(ok, "model violates clause {c:?}");
                }
            }
            SolveResult::Unsat(core) => {
                prop_assert!(!expected, "solver said UNSAT, oracle says SAT");
                prop_assert!(core.is_empty(), "no assumptions were used");
            }
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    /// Solving under assumptions matches brute force over the clause set
    /// extended with the assumption units, and reported cores are sound
    /// (re-solving under just the core stays UNSAT).
    #[test]
    fn assumption_solving_and_cores_are_sound(
        clauses in cnf_strategy(8, 24),
        assumption_bits in prop::collection::vec(any::<Option<bool>>(), 8),
    ) {
        let num_vars = 8;
        let (mut s, vars) = load(num_vars, &clauses);
        let assumptions: Vec<Lit> = assumption_bits
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|pos| Lit::new(vars[i], pos)))
            .collect();
        let mut extended = clauses.clone();
        for a in &assumptions {
            let idx = a.var().index() as i32 + 1;
            extended.push(vec![if a.is_positive() { idx } else { -idx }]);
        }
        let expected = brute_force_sat(num_vars, &extended);
        match s.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(model) => {
                prop_assert!(expected);
                for a in &assumptions {
                    prop_assert!(model.lit_value(*a), "assumption {a:?} not honored");
                }
            }
            SolveResult::Unsat(core) => {
                prop_assert!(!expected);
                for l in &core {
                    prop_assert!(assumptions.contains(l), "core lit {l:?} not an assumption");
                }
                // Soundness: the core alone is still UNSAT.
                prop_assert!(s.solve_with_assumptions(&core).is_unsat());
            }
            SolveResult::Unknown => prop_assert!(false),
        }
    }

    /// MUS extraction, seeded with the search's first core, produces a
    /// minimal core whenever the assumptions are jointly UNSAT.
    #[test]
    fn shrunk_cores_are_minimal(clauses in cnf_strategy(6, 18)) {
        let num_vars = 6;
        let (mut s, vars) = load(num_vars, &clauses);
        // Assume every variable true: often UNSAT against random clauses.
        let assumptions: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
        if let SolveResult::Unsat(first) = s.solve_with_assumptions(&assumptions) {
            match mus::shrink_core_ordered(&mut s, &assumptions, &first) {
                mus::ShrinkResult::Minimal(core) => {
                    prop_assert!(mus::is_minimal_core(&mut s, &core), "core {core:?} not minimal");
                }
                mus::ShrinkResult::Exhausted { .. } => {
                    prop_assert!(false, "unbudgeted shrink must not exhaust");
                }
            }
        }
    }

    /// Incremental use: adding the blocking clause of a model yields a
    /// different model (or UNSAT), never the same one.
    #[test]
    fn blocking_clauses_change_models(clauses in cnf_strategy(8, 20)) {
        let num_vars = 8;
        let (mut s, vars) = load(num_vars, &clauses);
        if let SolveResult::Sat(m1) = s.solve() {
            let blocking: Vec<Lit> = vars
                .iter()
                .map(|&v| Lit::new(v, !m1.value(v)))
                .collect();
            s.add_clause(blocking);
            if let SolveResult::Sat(m2) = s.solve() {
                prop_assert!(vars.iter().any(|&v| m1.value(v) != m2.value(v)));
            }
        }
    }

    /// A budgeted solve may give up, but it must never give a *wrong*
    /// verdict: any definite Sat/Unsat under a conflict cap agrees with
    /// the brute-force oracle.
    #[test]
    fn budgeted_solve_never_wrong(
        clauses in cnf_strategy(8, 30),
        cap in 0u64..8,
    ) {
        let num_vars = 8;
        let (mut s, vars) = load(num_vars, &clauses);
        s.set_budget(Budget::unlimited().with_conflict_cap(cap));
        let expected = brute_force_sat(num_vars, &clauses);
        match s.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected, "budgeted solver said SAT, oracle says UNSAT");
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let val = model.value(vars[l.unsigned_abs() as usize - 1]);
                        (l > 0) == val
                    });
                    prop_assert!(ok, "model violates clause {c:?}");
                }
            }
            SolveResult::Unsat(_) => {
                prop_assert!(!expected, "budgeted solver said UNSAT, oracle says SAT");
            }
            SolveResult::Unknown => {} // giving up is always allowed
        }
    }

    /// A solve under a pre-triggered cancellation token never reports a
    /// wrong verdict either: it either aborts with Unknown or (for
    /// instances decided before the first poll) agrees with the oracle.
    #[test]
    fn cancelled_solve_never_wrong(clauses in cnf_strategy(8, 30)) {
        let num_vars = 8;
        let (mut s, _) = load(num_vars, &clauses);
        let token = CancelToken::new();
        token.cancel();
        s.set_budget(Budget::unlimited().with_cancel(token));
        let expected = brute_force_sat(num_vars, &clauses);
        match s.solve() {
            SolveResult::Sat(_) => prop_assert!(expected),
            SolveResult::Unsat(_) => prop_assert!(!expected),
            SolveResult::Unknown => {}
        }
    }

    /// Luby-escalated re-solving (the `RetryPolicy` schedule) reaches a
    /// definite verdict that agrees with an unbudgeted solve.
    #[test]
    fn escalated_resolve_agrees_with_unbudgeted(clauses in cnf_strategy(8, 30)) {
        let num_vars = 8;
        let expected = brute_force_sat(num_vars, &clauses);
        let policy = RetryPolicy::new(1, 16);
        let mut verdict = None;
        for attempt in 1..=policy.max_attempts {
            let (mut s, _) = load(num_vars, &clauses);
            let mut budget = Budget::unlimited();
            budget.set_conflict_cap(policy.conflict_cap(attempt));
            s.set_budget(budget);
            match s.solve() {
                SolveResult::Sat(_) => { verdict = Some(true); break; }
                SolveResult::Unsat(_) => { verdict = Some(false); break; }
                SolveResult::Unknown => {}
            }
        }
        // If every capped attempt gave up, the uncapped final solve (the
        // degradation path's last resort) must settle it.
        let verdict = match verdict {
            Some(v) => v,
            None => {
                let (mut s, _) = load(num_vars, &clauses);
                match s.solve() {
                    SolveResult::Sat(_) => true,
                    SolveResult::Unsat(_) => false,
                    SolveResult::Unknown => {
                        prop_assert!(false, "unbudgeted solve returned Unknown");
                        unreachable!()
                    }
                }
            }
        };
        prop_assert_eq!(verdict, expected, "escalated verdict disagrees with oracle");
    }
}

/// Deterministic regression: a hard-ish structured instance (mutilated
/// chessboard flavored) solves correctly with learning and restarts
/// engaged.
#[test]
fn php_8_7_unsat_with_learning() {
    let mut s = Solver::new();
    let n = 8;
    let m = 7;
    let p: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(m)).collect();
    for row in &p {
        s.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert!(s.solve().is_unsat());
    assert!(s.stats.conflicts > 10, "learning should be exercised");
}
