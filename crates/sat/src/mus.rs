//! Minimal unsatisfiable subset (MUS) extraction over named groups.
//!
//! The paper's feedback mechanism (Sec. 4.3) blames failures on specific
//! user inputs: "on configurations with 'holes,' feedback comes as an
//! unsatisfiable core with blame information", following Torlak et al.'s
//! minimal-core work. The encoding layer guards each user-visible unit
//! (one goal row, one policy rule, one envelope predicate) with a fresh
//! *selector* variable; solving under the selectors as assumptions yields
//! a core of selectors, which this module shrinks to a *minimal* one by
//! deletion-based minimization.

use crate::lit::Lit;
use crate::solver::{SolveResult, Solver};

/// Result of [`shrink_core_ordered`].
#[derive(Clone, Debug, PartialEq)]
pub enum ShrinkResult {
    /// The assumptions are jointly UNSAT; the payload is a minimal core.
    Minimal(Vec<Lit>),
    /// A resource budget fired mid-minimization.
    Exhausted {
        /// Smallest core established so far, in assumption order — still
        /// a sound UNSAT core, just not proven minimal.
        best: Vec<Lit>,
    },
}

/// Shrink an assumption core to a minimal one (an irreducible subset
/// whose members are all necessary for unsatisfiability), by ordered
/// deletion.
///
/// `assumptions` must be jointly UNSAT with the solver's clauses. The
/// returned subset is UNSAT, and removing any single member makes the
/// check pass (a MUS over the assumption set, not merely a smaller
/// core).
///
/// The result is **deterministic**: a pure function of the assumption
/// order and the problem semantics, independent of the solver's
/// heuristic state (learned clauses, activities, restarts). It is
/// exactly what plain left-to-right ordered deletion over the *full*
/// ordered assumption list gives: drop each element in turn when the
/// rest stays UNSAT. The warm incremental engine relies on this to
/// return byte-identical cores from warm and cold runs.
///
/// `first_core` is the core the search that established UNSAT already
/// reported (a subset of `assumptions`), so there is no confirming
/// re-solve. It seeds a *witness*: a known-UNSAT subset of the elements
/// still kept. An element outside the witness is dropped without a
/// probe — the rest still contains the witness, so plain deletion's
/// probe would have answered UNSAT — and each UNSAT probe's reported
/// sub-core becomes the new witness. Probes are spent only on witness
/// members, so the cost is close to `O(k)` solves for a `k`-member
/// core, not `O(n)` over all `n` assumptions: on a live edit stream
/// with ~20 goal groups per solve that is ~4 probes per unsat answer
/// instead of ~21.
///
/// Minimization respects any budget installed with
/// [`Solver::set_budget`]: each probe is a budgeted solve, and once the
/// budget fires the witness is returned as [`ShrinkResult::Exhausted`]
/// rather than discarded.
pub fn shrink_core_ordered(
    solver: &mut Solver,
    assumptions: &[Lit],
    first_core: &[Lit],
) -> ShrinkResult {
    let mut witness: Vec<Lit> = first_core.to_vec();
    let mut core: Vec<Lit> = assumptions.to_vec();
    let mut i = 0;
    while i < core.len() {
        if !witness.contains(&core[i]) {
            // The rest still contains the witness, so it stays UNSAT.
            core.remove(i);
            continue;
        }
        let candidate: Vec<Lit> = core
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &l)| l)
            .collect();
        match solver.solve_with_assumptions(&candidate) {
            SolveResult::Unsat(sub) => {
                // Still unsat without core[i]: drop it. The index now
                // points at the next element; every element left of `i`
                // has already been proven necessary *given the current
                // suffix*, and dropping a later element never makes an
                // earlier one droppable once it was necessary, so no
                // rescan is needed.
                core.remove(i);
                witness = sub;
            }
            SolveResult::Sat(_) => {
                // core[i] is necessary.
                i += 1;
            }
            SolveResult::Unknown => {
                // The witness is the smallest UNSAT set established so
                // far; report it in assumption order.
                core.retain(|l| witness.contains(l));
                return ShrinkResult::Exhausted { best: core };
            }
        }
    }
    ShrinkResult::Minimal(core)
}

/// Check whether a set of assumptions is a *minimal* unsatisfiable subset:
/// UNSAT as given, SAT after removing any single element. Intended for
/// tests and assertions.
pub fn is_minimal_core(solver: &mut Solver, core: &[Lit]) -> bool {
    if !solver.solve_with_assumptions(core).is_unsat() {
        return false;
    }
    for i in 0..core.len() {
        let candidate: Vec<Lit> = core
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &l)| l)
            .collect();
        if !solver.solve_with_assumptions(&candidate).is_sat() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::{Lit, Var};

    /// Build: selector s_i activates group clause(s). Groups:
    ///   g0: x        g1: ¬x       g2: y   (irrelevant)
    /// MUS over {s0, s1, s2} must be exactly {s0, s1}.
    #[test]
    fn shrinks_to_exact_conflict_pair() {
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        let sel: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause([Lit::neg(sel[0]), Lit::pos(x)]);
        s.add_clause([Lit::neg(sel[1]), Lit::neg(x)]);
        s.add_clause([Lit::neg(sel[2]), Lit::pos(y)]);
        let assumptions: Vec<Lit> = sel.iter().map(|&v| Lit::pos(v)).collect();
        let expect = vec![assumptions[0], assumptions[1]];
        assert_eq!(ordered(&mut s, &assumptions), ShrinkResult::Minimal(expect.clone()));
        assert!(is_minimal_core(&mut s, &expect));
    }

    /// A formula that is UNSAT on its own gives the empty core (plain
    /// deletion drops every element).
    #[test]
    fn unsat_formula_gives_empty_core() {
        let mut s = Solver::new();
        let x = s.new_var();
        s.add_clause([Lit::pos(x)]);
        s.add_clause([Lit::neg(x)]);
        let y = s.new_var();
        assert_eq!(ordered(&mut s, &[Lit::pos(y)]), ShrinkResult::Minimal(Vec::new()));
    }

    /// A budget that fires before the first probe ends shrinking at
    /// once, reporting the search's core as the best one, instead of
    /// hanging or misreporting SAT/UNSAT.
    #[test]
    fn expired_budget_exhausts_before_probing() {
        use crate::budget::Budget;
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause([Lit::pos(x), Lit::pos(y)]);
        let assumptions = [Lit::neg(x), Lit::neg(y)];
        let first = match s.solve_with_assumptions(&assumptions) {
            SolveResult::Unsat(first) => first,
            other => panic!("assumptions must be UNSAT, got {other:?}"),
        };
        s.set_budget(Budget::unlimited().with_conflict_cap(0));
        assert_eq!(
            shrink_core_ordered(&mut s, &assumptions, &first),
            ShrinkResult::Exhausted { best: assumptions.to_vec() }
        );
    }

    /// Ordered shrinking is a pure function of the assumption order:
    /// with several MUSes available (groups {a}, {¬a ∨ b}, {¬b}, {¬a}
    /// have {g0,g3} and {g0,g1,g2}) it always lands on the same one,
    /// even after the solver has accumulated unrelated search state.
    #[test]
    fn ordered_shrink_is_deterministic_under_warm_state() {
        let build = |s: &mut Solver| -> Vec<Lit> {
            let a = s.new_var();
            let b = s.new_var();
            let sel: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            s.add_clause([Lit::neg(sel[0]), Lit::pos(a)]);
            s.add_clause([Lit::neg(sel[1]), Lit::neg(a), Lit::pos(b)]);
            s.add_clause([Lit::neg(sel[2]), Lit::neg(b)]);
            s.add_clause([Lit::neg(sel[3]), Lit::neg(a)]);
            sel.iter().map(|&v| Lit::pos(v)).collect()
        };
        let mut cold = Solver::new();
        let assumptions = build(&mut cold);
        // {s0, s3} is the left-to-right deletion fixpoint.
        let expect = vec![assumptions[0], assumptions[3]];
        assert_eq!(ordered(&mut cold, &assumptions), ShrinkResult::Minimal(expect.clone()));
        assert!(is_minimal_core(&mut cold, &expect));

        let mut warm = Solver::new();
        let assumptions = build(&mut warm);
        // Perturb heuristic state with unrelated solves first.
        for _ in 0..3 {
            assert!(warm.solve_with_assumptions(&assumptions[1..2]).is_sat());
            assert!(warm
                .solve_with_assumptions(&[assumptions[0], assumptions[3]])
                .is_unsat());
        }
        assert_eq!(ordered(&mut warm, &assumptions), ShrinkResult::Minimal(expect));
    }

    /// [`shrink_core_ordered`] seeded with the search's own core.
    fn ordered(s: &mut Solver, assumptions: &[Lit]) -> ShrinkResult {
        match s.solve_with_assumptions(assumptions) {
            SolveResult::Unsat(first) => shrink_core_ordered(s, assumptions, &first),
            other => panic!("assumptions must be UNSAT, got {other:?}"),
        }
    }

    /// Plain left-to-right ordered deletion: one probe per element.
    fn plain_ordered(s: &mut Solver, assumptions: &[Lit]) -> Vec<Lit> {
        let mut core = assumptions.to_vec();
        let mut i = 0;
        while i < core.len() {
            let mut candidate = core.clone();
            candidate.remove(i);
            if s.solve_with_assumptions(&candidate).is_unsat() {
                core = candidate;
            } else {
                i += 1;
            }
        }
        core
    }

    /// Seeding with the search's core skips probes but never changes
    /// the answer: on random selector-gated CNFs the seeded shrink
    /// equals plain ordered deletion, on a fresh solver and on one
    /// whose heuristic state the plain pass has already churned.
    #[test]
    fn seeded_shrink_equals_plain_ordered_deletion() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5345_4544);
        let mut unsat_rounds = 0;
        for _ in 0..200 {
            let n = rng.random_range(3..=6);
            let groups = rng.random_range(2..=10);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            let mut fresh = Solver::new();
            let vars = fresh.new_vars(n);
            let sels = fresh.new_vars(groups);
            for &sel in &sels {
                for _ in 0..rng.random_range(1..=3) {
                    let mut c = vec![Lit::neg(sel)];
                    for _ in 0..rng.random_range(1..=2) {
                        c.push(Lit::new(vars[rng.random_range(0..n)], rng.random_bool(0.5)));
                    }
                    clauses.push(c);
                }
            }
            let mut warm = Solver::new();
            warm.new_vars(n + groups);
            for c in &clauses {
                fresh.add_clause(c.iter().copied());
                warm.add_clause(c.iter().copied());
            }
            let assumptions: Vec<Lit> = sels.iter().map(|&v| Lit::pos(v)).collect();
            if !fresh.solve_with_assumptions(&assumptions).is_unsat() {
                continue;
            }
            unsat_rounds += 1;
            let expect = plain_ordered(&mut warm, &assumptions);
            assert_eq!(ordered(&mut fresh, &assumptions), ShrinkResult::Minimal(expect.clone()));
            assert_eq!(ordered(&mut warm, &assumptions), ShrinkResult::Minimal(expect));
        }
        assert!(unsat_rounds >= 50, "only {unsat_rounds} unsat instances");
    }
}
