//! A committed minimal-edit scenario for target-oriented solving.
//!
//! The harness K1 lane needs a deterministic instance where the
//! *optimal edit distance is known by construction* and large enough
//! that the search trajectory matters: `k` independent one-of-two
//! choices over a ring of `n` atoms, solved against an empty target, so
//! the closest model is exactly `k` flips away.
//!
//! Construction: one sort with `n` atoms, one binary relation `R`;
//! bounds permit the self-loop `R(a_i, a_i)` and the ring edge
//! `R(a_i, a_{i+1 mod n})` for every `i` (`2n` free tuple variables);
//! goal `j` (for `k` evenly spread distinct rows `i`) requires
//! `R(a_i, a_i) ∨ R(a_i, a_{i+1})`. Every goal forces at least one
//! tuple of its own row to be true and no two goals share a tuple, so
//! against the empty target the minimal distance is exactly `k` — with
//! `C(2,1)^k = 2^k` distance-optimal models for canonicalization to
//! order. A core-guided ascent sees one core per goal.

use muppet_logic::{Domain, Formula, Instance, PartialInstance, PartyId, RelId, Term, Universe, Vocabulary};
use muppet_solver::{FormulaGroup, IncrementalQuery};

/// A self-contained minimal-edit instance with its known optimum.
pub struct MinEditScenario {
    /// Vocabulary with the single relation `R`.
    pub vocab: Vocabulary,
    /// Universe with `n` atoms of one sort.
    pub universe: Universe,
    /// The free relation.
    pub rel: RelId,
    /// Bounds permitting the `2n` candidate tuples.
    pub bounds: PartialInstance,
    /// The `k` one-of-two goal groups, named `goal-<j>`.
    pub groups: Vec<FormulaGroup>,
    /// The target to edit toward (empty: "change nothing").
    pub target: Instance,
    /// The minimal distance, by construction (= number of goals).
    pub optimum: usize,
}

impl MinEditScenario {
    /// A fresh engine over this scenario; solve it with
    /// [`MinEditScenario::groups`].
    pub fn engine(&self) -> IncrementalQuery {
        IncrementalQuery::new(
            &self.vocab,
            &self.universe,
            &[self.rel],
            &self.bounds,
            Instance::new(),
        )
    }
}

/// Build the minimal-edit scenario over `n` atoms with `k` goals of
/// `width` rows each (`k` clamped to `n`, `width` clamped to the
/// per-goal block `n / k` so blocks stay disjoint). Wider goals give
/// each goal `2·width` interchangeable tuples: the optimum stays `k`,
/// and a core-guided ascent still learns one local core per goal.
/// Deterministic: no seed, same parameters ⇒ byte-identical scenario.
pub fn minedit(n: usize, k: usize, width: usize) -> MinEditScenario {
    let n = n.max(2);
    let k = k.min(n).max(1);
    let mut universe = Universe::new();
    let s = universe.add_sort("Node");
    let atoms: Vec<_> = (0..n)
        .map(|i| universe.add_atom(s, format!("n{i}")))
        .collect();
    let mut vocab = Vocabulary::new();
    let rel = vocab.add_simple_rel("link", vec![s, s], Domain::Party(PartyId(0)));
    let mut bounds = PartialInstance::new();
    for i in 0..n {
        bounds.permit(rel, vec![atoms[i], atoms[i]]);
        bounds.permit(rel, vec![atoms[i], atoms[(i + 1) % n]]);
    }
    // Spread the k goal blocks evenly over the ring so they stay
    // pairwise disjoint.
    let step = n / k;
    let width = width.clamp(1, step);
    let groups = (0..k)
        .map(|j| {
            let options = (0..width).flat_map(|o| {
                let i = j * step + o;
                let self_loop =
                    Formula::pred(rel, [Term::Const(atoms[i]), Term::Const(atoms[i])]);
                let edge = Formula::pred(
                    rel,
                    [Term::Const(atoms[i]), Term::Const(atoms[(i + 1) % n])],
                );
                [self_loop, edge]
            });
            FormulaGroup::new(format!("goal-{j}"), vec![Formula::or(options)])
        })
        .collect();
    MinEditScenario {
        vocab,
        universe,
        rel,
        bounds,
        groups,
        target: Instance::new(),
        optimum: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_solver::Budget;

    #[test]
    fn optimum_is_attained() {
        let sc = minedit(12, 4, 2);
        let (out, d) = sc
            .engine()
            .solve_target(&sc.groups, &sc.target, Budget::unlimited())
            .unwrap();
        assert_eq!(d, sc.optimum);
        let solution = out.solution().expect("sat");
        assert_eq!(solution.distance(&sc.target), sc.optimum);
    }
}

