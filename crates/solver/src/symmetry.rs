//! Symmetry breaking over interchangeable atoms.
//!
//! Kodkod's signature optimization, reproduced: atoms of a sort that are
//! indistinguishable to the problem — they appear in no fixed-instance
//! tuple, no bound tuple and no formula constant — can be permuted in
//! any model to give another model. Lex-leader constraints over adjacent
//! transpositions of such atoms prune the symmetric copies, which is
//! exactly what makes "spare port" universes (Fig. 4's ∃-port goals)
//! affordable as they grow.
//!
//! Soundness: each added clause set `V ≤lex π(V)` (for `π` an adjacent
//! transposition of two interchangeable atoms, applied to every free
//! tuple variable simultaneously) preserves satisfiability — any model
//! can be canonicalized by sorting within its symmetry class. The
//! constraints are added as *hard* clauses outside all groups, so UNSAT
//! cores remain sound. They do restrict *which* models are returned,
//! which is why target-oriented and enumeration queries must not use
//! them: [`crate::IncrementalQuery`] installs them only in `solve`,
//! never in `solve_target` or `enumerate`.

use std::collections::BTreeSet;

use muppet_logic::{AtomId, Formula, Instance, PartialInstance, RelId, SortId, Universe, Vocabulary};
use muppet_sat::{Lit, Solver};

use crate::varmap::{TupleState, VarMap};

/// Compute the interchangeable-atom classes: for each sort, the atoms
/// that never appear as a constant in any formula, in the fixed
/// instance, or in any bound tuple.
pub(crate) fn interchangeable_classes(
    vocab: &Vocabulary,
    universe: &Universe,
    formulas: &[&Formula],
    fixed: &Instance,
    bounds: &PartialInstance,
) -> Vec<Vec<AtomId>> {
    let mut named: BTreeSet<AtomId> = BTreeSet::new();
    for f in formulas {
        named.extend(f.constants());
    }
    for (rel, _) in vocab.rels() {
        for t in fixed.tuples(rel) {
            named.extend(t.iter().copied());
        }
        for t in bounds.lower(rel).chain(bounds.upper(rel)) {
            named.extend(t.iter().copied());
        }
    }
    let mut classes = Vec::new();
    for sort_idx in 0..universe.num_sorts() {
        let sort = SortId(sort_idx as u32);
        let class: Vec<AtomId> = universe
            .atoms_of(sort)
            .iter()
            .copied()
            .filter(|a| !named.contains(a))
            .collect();
        if class.len() >= 2 {
            classes.push(class);
        }
    }
    classes
}

/// Kodkod's default symmetry-breaking budget: each lex-leader predicate
/// is truncated to this many variable pairs. A truncated predicate is a
/// *weaker* constraint, hence still sound; the cap keeps the encoding
/// overhead proportional to the benefit (long chains over ternary
/// relations otherwise swamp easy instances).
pub const DEFAULT_MAX_PAIRS: usize = 20;

/// Add lex-leader clauses for every adjacent transposition within each
/// interchangeable class, each truncated to `max_pairs` variable pairs.
/// Returns the number of transpositions broken.
pub(crate) fn add_symmetry_breaking(
    classes: &[Vec<AtomId>],
    free_rels: &[RelId],
    vocab: &Vocabulary,
    universe: &Universe,
    varmap: &VarMap,
    solver: &mut Solver,
    max_pairs: usize,
) -> usize {
    let mut broken = 0;
    for class in classes {
        for pair in class.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if add_lex_leader(a, b, free_rels, vocab, universe, varmap, solver, max_pairs) {
                broken += 1;
            }
        }
    }
    broken
}

/// Constrain `V ≤lex π(V)` where `π` swaps atoms `a`/`b` in every tuple.
///
/// The vector `V` enumerates, in a fixed global order, the SAT variables
/// of every free-relation tuple that *changes* under the swap (tuples
/// fixed by `π` contribute equal entries and can be skipped). Standard
/// chained encoding with prefix-equality selectors:
/// `eq₀ = true`, `eqᵢ ⇒ (vᵢ ⇒ wᵢ)`, `eqᵢ₊₁ ⇔ eqᵢ ∧ (vᵢ = wᵢ)`
/// (one-sided implications suffice for the ≤lex direction).
#[allow(clippy::too_many_arguments)]
fn add_lex_leader(
    a: AtomId,
    b: AtomId,
    free_rels: &[RelId],
    vocab: &Vocabulary,
    universe: &Universe,
    varmap: &VarMap,
    solver: &mut Solver,
    max_pairs: usize,
) -> bool {
    let swap = |atom: AtomId| {
        if atom == a {
            b
        } else if atom == b {
            a
        } else {
            atom
        }
    };
    // Collect (v, w) pairs: v = var of tuple t, w = var of π(t).
    let mut pairs: Vec<(Lit, Lit)> = Vec::new();
    for &rel in free_rels {
        let decl = vocab.rel(rel);
        for tuple in crate::varmap::tuple_product(universe, &decl.arg_sorts) {
            let swapped: Vec<AtomId> = tuple.iter().map(|&x| swap(x)).collect();
            if swapped == tuple {
                continue;
            }
            // Visit each orbit once (tuple < swapped in canonical order).
            if swapped < tuple {
                continue;
            }
            let v = match varmap.state(rel, &tuple) {
                Some(TupleState::Free(v)) => Lit::pos(v),
                // Pinned tuples make the atoms distinguishable; the
                // interchangeability analysis should have excluded them,
                // but stay safe and skip the whole transposition.
                _ => return false,
            };
            let w = match varmap.state(rel, &swapped) {
                Some(TupleState::Free(v)) => Lit::pos(v),
                _ => return false,
            };
            pairs.push((v, w));
        }
    }
    if pairs.is_empty() {
        return false;
    }
    pairs.truncate(max_pairs.max(1));
    // Chained lex-leader: eq starts true.
    // (eq_i ∧ v_i) ⇒ w_i  and  eq_{i+1} ⇐ eq_i ∧ (v_i ⇔ w_i)
    // encoded one-sidedly: ¬eq_i ∨ ¬v_i ∨ w_i ; and
    // eq_{i+1} implied via: ¬eq_i ∨ v_i ∨ ¬w_i ∨ eq_{i+1} is wrong
    // direction — we need eq_{i+1} ⇒ eq_i ∧ (v_i = w_i), i.e. use
    // eq_{i+1} only positively in the first clause and constrain it by:
    // eq_{i+1} ⇒ eq_i, eq_{i+1} ⇒ (v_i ⇒ w_i is already global)… the
    // safe standard form adds, for each i:
    //   ¬eq_i ∨ ¬v_i ∨ w_i
    //   eq_{i+1} ⇒ eq_i           (¬eq_{i+1} ∨ eq_i)
    //   eq_{i+1} ⇒ (¬v_i ∨ w_i) ∧ (v_i ∨ ¬w_i)   (equality of step i)
    // and asserts nothing forces eq_{i+1} true — the solver may set it
    // false, which only weakens later steps (still sound, still breaks
    // the symmetry at step i).
    let mut eq = Lit::pos(solver.new_var());
    solver.add_clause([eq]);
    let n = pairs.len();
    for (i, (v, w)) in pairs.into_iter().enumerate() {
        solver.add_clause([!eq, !v, w]);
        if i + 1 < n {
            let eq_next = Lit::pos(solver.new_var());
            solver.add_clause([!eq_next, eq]);
            solver.add_clause([!eq_next, !v, w]);
            solver.add_clause([!eq_next, v, !w]);
            eq = eq_next;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{Domain, PartyId, Term};

    struct Fix {
        u: Universe,
        v: Vocabulary,
        r: RelId,
        atoms: Vec<AtomId>,
    }

    fn fix(n_atoms: usize) -> Fix {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let atoms: Vec<AtomId> = (0..n_atoms)
            .map(|i| u.add_atom(s, format!("a{i}")))
            .collect();
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s], Domain::Party(PartyId(0)));
        Fix { u, v, r, atoms }
    }

    #[test]
    fn classes_exclude_named_atoms() {
        let f = fix(4);
        let goal = Formula::pred(f.r, [Term::Const(f.atoms[1])]);
        let classes = interchangeable_classes(
            &f.v,
            &f.u,
            &[&goal],
            &Instance::new(),
            &PartialInstance::new(),
        );
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0], vec![f.atoms[0], f.atoms[2], f.atoms[3]]);
    }

    #[test]
    fn classes_exclude_fixed_and_bound_atoms() {
        let f = fix(4);
        let mut fixed = Instance::new();
        fixed.insert(f.r, vec![f.atoms[0]]);
        let mut bounds = PartialInstance::new();
        bounds.permit(f.r, vec![f.atoms[3]]);
        let classes = interchangeable_classes(&f.v, &f.u, &[], &fixed, &bounds);
        assert_eq!(classes, vec![vec![f.atoms[1], f.atoms[2]]]);
        // A singleton remainder is not a class.
        let mut fixed2 = fixed.clone();
        fixed2.insert(f.r, vec![f.atoms[1]]);
        let classes = interchangeable_classes(&f.v, &f.u, &[], &fixed2, &bounds);
        assert_eq!(classes, vec![vec![f.atoms[2]]].into_iter().filter(|c: &Vec<AtomId>| c.len() >= 2).collect::<Vec<_>>());
    }

    #[test]
    #[allow(clippy::while_let_loop)]
    fn lex_leader_prunes_symmetric_models() {
        // Free unary relation over 3 interchangeable atoms; constraint:
        // exactly… nothing. Without SB: 8 models. With SB over the full
        // class, only sorted characteristic vectors survive: the models
        // where the vector (r(a0), r(a1), r(a2)) is lex-minimal under
        // adjacent swaps, i.e. non-decreasing… count = 4 (k of them true
        // in canonical positions for k = 0..3).
        let f = fix(3);
        let mut solver = Solver::new();
        let varmap = VarMap::build(&f.v, &f.u, &[f.r], &PartialInstance::new(), &mut solver);
        let classes = vec![f.atoms.clone()];
        let broken = add_symmetry_breaking(
            &classes,
            &[f.r],
            &f.v,
            &f.u,
            &varmap,
            &mut solver,
            DEFAULT_MAX_PAIRS,
        );
        assert_eq!(broken, 2);
        // Enumerate remaining models by blocking.
        let mut count = 0;
        loop {
            match solver.solve() {
                muppet_sat::SolveResult::Sat(m) => {
                    count += 1;
                    let blocking: Vec<Lit> = varmap
                        .free_tuples()
                        .map(|(v, _, _)| Lit::new(v, !m.value(v)))
                        .collect();
                    solver.add_clause(blocking);
                }
                _ => break,
            }
            assert!(count <= 8, "runaway enumeration");
        }
        assert_eq!(count, 4, "canonical vectors only");
    }
}
