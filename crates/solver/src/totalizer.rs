//! Totalizer cardinality encoding.
//!
//! Target-oriented solving needs "at most k of these n relaxation
//! variables are true" as a CNF constraint whose bound can be *tightened
//! incrementally via assumptions*. The totalizer (Bailleux & Boufkhad)
//! builds a balanced tree of unary counters: output literal `o_j` is
//! implied whenever ≥ j inputs are true, so assuming `¬o_{k+1}` enforces
//! `≤ k` without re-encoding. The core-guided minimal-edit ascent
//! relaxes each multi-indicator core through one.

use muppet_sat::{Lit, Solver};

/// A built totalizer over a fixed set of input literals.
#[derive(Debug)]
pub struct Totalizer {
    /// `outputs[j]` is true in any model where at least `j+1` inputs are
    /// true (one-sided: inputs drive outputs, sufficient for upper
    /// bounds).
    outputs: Vec<Lit>,
}

impl Totalizer {
    /// Encode a totalizer over `inputs`, adding clauses to `solver`.
    pub fn build(inputs: &[Lit], solver: &mut Solver) -> Totalizer {
        let outputs = tree(inputs, solver);
        Totalizer { outputs }
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// `true` when built over zero inputs.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The `j`-th unary counter output: a literal true in any model
    /// where at least `j+1` inputs are true. `None` for `j >= n`.
    ///
    /// The one-sided tree forces outputs *monotonically*: when `m`
    /// inputs are true every output `o_0 ..= o_{m-1}` is implied, so a
    /// core-guided loop can assume the single literal `¬o_b` to enforce
    /// "at most `b` inputs true" and read the violated bound directly
    /// off the core.
    pub fn output(&self, j: usize) -> Option<Lit> {
        self.outputs.get(j).copied()
    }
}

/// Recursively build the counter tree; returns the unary count outputs of
/// the subtree (length = number of inputs in the subtree).
fn tree(inputs: &[Lit], solver: &mut Solver) -> Vec<Lit> {
    match inputs.len() {
        0 => Vec::new(),
        1 => vec![inputs[0]],
        n => {
            let mid = n / 2;
            let left = tree(&inputs[..mid], solver);
            let right = tree(&inputs[mid..], solver);
            merge(&left, &right, solver)
        }
    }
}

/// Merge two unary counters: `out[k]` becomes true whenever
/// `left ≥ i` and `right ≥ j` with `i + j = k + 1`.
fn merge(left: &[Lit], right: &[Lit], solver: &mut Solver) -> Vec<Lit> {
    let n = left.len() + right.len();
    let out: Vec<Lit> = (0..n).map(|_| Lit::pos(solver.new_var())).collect();
    // left[i-1] ∧ right[j-1] ⇒ out[i+j-1]  (counts i from left, j from right)
    for i in 0..=left.len() {
        for j in 0..=right.len() {
            if i + j == 0 {
                continue;
            }
            let o = out[i + j - 1];
            let mut clause = Vec::with_capacity(3);
            if i > 0 {
                clause.push(!left[i - 1]);
            }
            if j > 0 {
                clause.push(!right[j - 1]);
            }
            clause.push(o);
            solver.add_clause(clause);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_sat::{SolveResult, Var};

    fn count_true(model: &muppet_sat::Model, vars: &[Var]) -> usize {
        vars.iter().filter(|&&v| model.value(v)).count()
    }

    /// The assumption enforcing "at most `k` inputs true": `¬o_k`,
    /// nothing for `k >= n`.
    fn at_most(tot: &Totalizer, k: usize) -> Vec<Lit> {
        tot.output(k).map(|o| !o).into_iter().collect()
    }

    #[test]
    fn at_most_k_is_enforced() {
        for n in 1..=6usize {
            for k in 0..=n {
                let mut s = Solver::new();
                let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
                let inputs: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
                let tot = Totalizer::build(&inputs, &mut s);
                // Also force at least k true (so we test tightness): pick
                // the first k inputs.
                for &v in vars.iter().take(k) {
                    s.add_clause([Lit::pos(v)]);
                }
                match s.solve_with_assumptions(&at_most(&tot, k)) {
                    SolveResult::Sat(m) => {
                        assert!(count_true(&m, &vars) <= k, "n={n} k={k}");
                    }
                    other => panic!("n={n} k={k}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn at_most_k_minus_one_fails_when_k_forced() {
        for n in 2..=6usize {
            for k in 1..=n {
                let mut s = Solver::new();
                let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
                let inputs: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
                let tot = Totalizer::build(&inputs, &mut s);
                for &v in vars.iter().take(k) {
                    s.add_clause([Lit::pos(v)]);
                }
                assert!(
                    s.solve_with_assumptions(&at_most(&tot, k - 1)).is_unsat(),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn bound_can_be_relaxed_incrementally() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        let inputs: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
        let tot = Totalizer::build(&inputs, &mut s);
        // Force exactly 2 true.
        s.add_clause([Lit::pos(vars[0])]);
        s.add_clause([Lit::pos(vars[1])]);
        assert!(s.solve_with_assumptions(&at_most(&tot, 0)).is_unsat());
        assert!(s.solve_with_assumptions(&at_most(&tot, 1)).is_unsat());
        assert!(s.solve_with_assumptions(&at_most(&tot, 2)).is_sat());
        assert!(s.solve_with_assumptions(&at_most(&tot, 3)).is_sat());
        assert!(s.solve_with_assumptions(&at_most(&tot, 99)).is_sat());
    }

    #[test]
    fn empty_totalizer() {
        let mut s = Solver::new();
        let tot = Totalizer::build(&[], &mut s);
        assert!(tot.is_empty());
        assert!(at_most(&tot, 0).is_empty());
        assert!(s.solve().is_sat());
    }
}
