//! One-sided Tseitin (Plaisted–Greenbaum) CNF conversion.
//!
//! Grounding produces negation normal form, so every subexpression occurs
//! with positive polarity only. One implication direction per gate is then
//! sound and complete for satisfiability, halving clause count relative to
//! full Tseitin.

use muppet_sat::{Lit, Solver};

use crate::ground::GExpr;

/// Encode `expr` and return a literal equivalent (one-sided: literal ⇒
/// expression) to it. Clauses are added to `solver`.
///
/// The typical use is guarding a formula group with a selector `s`:
/// encode the group to literal `l`, then add the clause `¬s ∨ l`, and
/// solve with `s` among the assumptions.
pub fn encode(expr: &GExpr, solver: &mut Solver) -> Lit {
    match expr {
        GExpr::Const(b) => constant_lit(solver, *b),
        GExpr::Lit(l) => *l,
        GExpr::And(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(p, solver)).collect();
            let aux = Lit::pos(solver.new_var());
            // aux ⇒ each part.
            for l in lits {
                solver.add_clause([!aux, l]);
            }
            aux
        }
        GExpr::Or(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(p, solver)).collect();
            let aux = Lit::pos(solver.new_var());
            // aux ⇒ (l₁ ∨ … ∨ lₙ).
            let mut clause = Vec::with_capacity(lits.len() + 1);
            clause.push(!aux);
            clause.extend(lits);
            solver.add_clause(clause);
            aux
        }
    }
}

/// The solver variables [`encode`] allocates for `expr`: one per gate
/// and per constant, none per literal.
pub(crate) fn fresh_vars(expr: &GExpr) -> usize {
    match expr {
        GExpr::Const(_) => 1,
        GExpr::Lit(_) => 0,
        GExpr::And(parts) | GExpr::Or(parts) => 1 + parts.iter().map(fresh_vars).sum::<usize>(),
    }
}

/// A literal that is constrained to the given constant value.
fn constant_lit(solver: &mut Solver, value: bool) -> Lit {
    let l = Lit::pos(solver.new_var());
    solver.add_clause([if value { l } else { !l }]);
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_sat::{SolveResult, Var};

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    #[test]
    fn guarded_groups_are_independent() {
        let mut s = Solver::new();
        let x = Lit::pos(s.new_var());
        // Group 1 says x; group 2 says ¬x.
        let g1 = encode(&GExpr::Lit(x), &mut s);
        let g2 = encode(&GExpr::Lit(!x), &mut s);
        let s1 = Lit::pos(s.new_var());
        let s2 = Lit::pos(s.new_var());
        s.add_clause([!s1, g1]);
        s.add_clause([!s2, g2]);
        assert!(s.solve_with_assumptions(&[s1]).is_sat());
        assert!(s.solve_with_assumptions(&[s2]).is_sat());
        match s.solve_with_assumptions(&[s1, s2]) {
            SolveResult::Unsat(core) => {
                assert!(core.contains(&s1) && core.contains(&s2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_structure_is_satisfiable_correctly() {
        // (a ∧ (b ∨ c)) guarded: model must satisfy it when selected.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let (a, b, c) = (Lit::pos(vs[0]), Lit::pos(vs[1]), Lit::pos(vs[2]));
        let e = GExpr::And(vec![
            GExpr::Lit(a),
            GExpr::Or(vec![GExpr::Lit(b), GExpr::Lit(c)]),
        ]);
        let sel = Lit::pos(s.new_var());
        let enc = encode(&e, &mut s);
        s.add_clause([!sel, enc]);
        s.add_clause([!b]); // forbid b: c must carry the Or
        match s.solve_with_assumptions(&[sel]) {
            SolveResult::Sat(m) => {
                assert!(m.lit_value(a));
                assert!(!m.lit_value(b));
                assert!(m.lit_value(c));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fresh_vars_counts_what_encode_allocates() {
        let mut s = Solver::new();
        let ls = lits(&mut s, 3);
        let exprs = [
            GExpr::Const(true),
            GExpr::Lit(ls[0]),
            GExpr::And(vec![
                GExpr::Lit(ls[0]),
                GExpr::Or(vec![GExpr::Lit(!ls[1]), GExpr::Lit(ls[2])]),
                GExpr::Or(vec![GExpr::Lit(ls[1]), GExpr::Lit(ls[2])]),
            ]),
        ];
        for e in &exprs {
            let before = s.num_vars();
            encode(e, &mut s);
            assert_eq!(s.num_vars() - before, fresh_vars(e), "{e:?}");
        }
    }

    #[test]
    fn const_encodings() {
        let mut s = Solver::new();
        let t = encode(&GExpr::Const(true), &mut s);
        let f = encode(&GExpr::Const(false), &mut s);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.lit_value(t));
                assert!(!m.lit_value(f));
            }
            other => panic!("{other:?}"),
        }
    }
}
