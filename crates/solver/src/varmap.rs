//! Mapping between relational tuples and SAT variables.

use std::collections::{BTreeMap, BTreeSet};

use muppet_logic::{AtomId, Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_sat::{Budget, Model, Solver, Var};

use crate::ground::{GroundError, POLL_EVERY};

/// The truth status of one ground tuple after bounds are applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TupleState {
    /// Pinned true (lower bound, or fixed instance contains it).
    True,
    /// Pinned false (outside the upper bound, or fixed instance lacks it).
    False,
    /// Undetermined: decided by the SAT solver via this variable.
    Free(Var),
}

/// Bidirectional map between the ground atoms of *free* relations and SAT
/// variables, with fixed relations resolved against a concrete instance.
///
/// This mirrors Kodkod's translation of relation bounds: tuples in the
/// lower bound become constants-true, tuples excluded by the upper bound
/// constants-false, and the remainder become propositional variables.
///
/// Bounded relations are stored *sparsely*: only the tuples inside the
/// upper bound (plus any required tuples) get an entry, and every other
/// tuple is implicitly pinned false. An unbounded free relation still
/// materializes its full tuple product. This is what keeps thousand-
/// service mesh queries tractable — a ternary `Svc × Svc × Port` relation
/// bounded to an empty upper bound costs nothing instead of |Svc|²·|Port|
/// map entries.
#[derive(Debug)]
pub struct VarMap {
    free_rels: Vec<RelId>,
    /// Per-relation tuple states. Sparse for bounded relations.
    states: BTreeMap<RelId, BTreeMap<Vec<AtomId>, TupleState>>,
    /// Relations stored sparsely (absent tuple ⇒ pinned false).
    sparse: BTreeSet<RelId>,
    by_var: BTreeMap<Var, (RelId, Vec<AtomId>)>,
}

impl VarMap {
    /// Build the map.
    ///
    /// * `free_rels` — the relations the solver may decide;
    /// * `bounds` — partial-instance bounds over (a subset of) the free
    ///   relations. A free relation not bounded at all ranges over its
    ///   full tuple product; a bounded one only over its upper bound.
    /// * `fixed` — concrete values for every *other* relation mentioned by
    ///   the query formulas.
    ///
    /// Fresh SAT variables are allocated in `solver` once the map is
    /// complete. `budget` is polled every few thousand tuples; when it
    /// fires the result is [`GroundError::Exhausted`] and `solver` is
    /// left untouched.
    pub fn build(
        vocab: &Vocabulary,
        universe: &Universe,
        free_rels: &[RelId],
        bounds: &PartialInstance,
        solver: &mut Solver,
        budget: &Budget,
    ) -> Result<VarMap, GroundError> {
        let mut states: BTreeMap<RelId, BTreeMap<Vec<AtomId>, TupleState>> = BTreeMap::new();
        let mut sparse = BTreeSet::new();
        let mut by_var = BTreeMap::new();
        let base = solver.num_vars();
        let mut visited = 0usize;
        let mut free_var = |rel: RelId, tuple: &[AtomId]| -> Result<TupleState, GroundError> {
            visited += 1;
            if visited.is_multiple_of(POLL_EVERY) && budget.poll().is_some() {
                return Err(GroundError::Exhausted);
            }
            let v = Var::from_index(base + by_var.len());
            by_var.insert(v, (rel, tuple.to_vec()));
            Ok(TupleState::Free(v))
        };
        for &rel in free_rels {
            let per = states.entry(rel).or_default();
            if bounds.is_bounded(rel) {
                // Sparse: enumerate the bound support only. `require`
                // also enters the upper bound, so the upper set covers
                // the lower; iterate both anyway to stay correct for
                // hand-built bounds.
                sparse.insert(rel);
                for tuple in bounds.upper(rel).chain(bounds.lower(rel)) {
                    if per.contains_key(tuple.as_slice()) {
                        continue;
                    }
                    let state = if bounds.is_required(rel, tuple) {
                        TupleState::True
                    } else {
                        free_var(rel, tuple)?
                    };
                    per.insert(tuple.clone(), state);
                }
            } else {
                let decl = vocab.rel(rel);
                for tuple in tuple_product(universe, &decl.arg_sorts) {
                    let state = free_var(rel, &tuple)?;
                    per.insert(tuple, state);
                }
            }
        }
        solver.new_vars(by_var.len());
        Ok(VarMap {
            free_rels: free_rels.to_vec(),
            states,
            sparse,
            by_var,
        })
    }

    /// The state of a ground tuple of a *free* relation. `None` when the
    /// relation is not free (resolve against the fixed instance instead).
    /// For a bounded (sparse) relation, tuples outside the stored support
    /// are pinned false.
    pub(crate) fn state(&self, rel: RelId, tuple: &[AtomId]) -> Option<TupleState> {
        let per = self.states.get(&rel)?;
        match per.get(tuple) {
            Some(s) => Some(*s),
            None if self.sparse.contains(&rel) => Some(TupleState::False),
            None => None,
        }
    }

    /// Iterate the stored states of one relation. For sparse relations
    /// this is the bound support; every absent tuple is pinned false.
    pub(crate) fn rel_states(&self, rel: RelId) -> impl Iterator<Item = (&[AtomId], TupleState)> {
        self.states
            .get(&rel)
            .into_iter()
            .flat_map(|per| per.iter().map(|(t, s)| (t.as_slice(), *s)))
    }

    /// Is `rel` one of the free relations?
    pub fn is_free(&self, rel: RelId) -> bool {
        self.free_rels.contains(&rel)
    }

    /// Number of free (undetermined) SAT variables.
    pub fn num_free_vars(&self) -> usize {
        self.by_var.len()
    }

    /// All (variable, relation, tuple) triples.
    pub fn free_tuples(&self) -> impl Iterator<Item = (Var, RelId, &[AtomId])> {
        self.by_var.iter().map(|(v, (r, t))| (*v, *r, t.as_slice()))
    }

    /// Decode a SAT model into an [`Instance`] over the free relations
    /// (pinned-true tuples included).
    pub fn decode(&self, model: &Model) -> Instance {
        let mut out = Instance::new();
        for (rel, per) in &self.states {
            for (tuple, state) in per {
                let present = match state {
                    TupleState::True => true,
                    TupleState::False => false,
                    TupleState::Free(v) => model.value(*v),
                };
                if present {
                    out.insert(*rel, tuple.clone());
                }
            }
        }
        out
    }
}

/// Enumerate the full tuple product of the given argument sorts.
pub(crate) fn tuple_product(universe: &Universe, arg_sorts: &[muppet_logic::SortId]) -> Vec<Vec<AtomId>> {
    let mut out: Vec<Vec<AtomId>> = vec![Vec::new()];
    for &sort in arg_sorts {
        let atoms = universe.atoms_of(sort);
        let mut next = Vec::with_capacity(out.len() * atoms.len().max(1));
        for prefix in &out {
            for &a in atoms {
                let mut t = prefix.clone();
                t.push(a);
                next.push(t);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::Domain;

    fn setup() -> (Universe, Vocabulary, RelId, Vec<AtomId>) {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let atoms = vec![u.add_atom(s, "a"), u.add_atom(s, "b")];
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s, s], Domain::Structure);
        (u, v, r, atoms)
    }

    #[test]
    fn tuple_product_sizes() {
        let (u, v, r, _) = setup();
        let decl = v.rel(r);
        assert_eq!(tuple_product(&u, &decl.arg_sorts).len(), 4);
        assert_eq!(tuple_product(&u, &[]).len(), 1); // nullary: one empty tuple
    }

    #[test]
    fn bounds_pin_tuples() {
        let (u, v, r, a) = setup();
        let mut bounds = PartialInstance::new();
        bounds.require(r, vec![a[0], a[0]]);
        bounds.permit(r, vec![a[0], a[1]]);
        // (a,a) required; (a,b) free; (b,*) outside upper bound → false.
        let mut solver = Solver::new();
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        assert_eq!(vm.state(r, &[a[0], a[0]]), Some(TupleState::True));
        assert!(matches!(vm.state(r, &[a[0], a[1]]), Some(TupleState::Free(_))));
        assert_eq!(vm.state(r, &[a[1], a[0]]), Some(TupleState::False));
        assert_eq!(vm.num_free_vars(), 1);
    }

    #[test]
    fn bounded_relation_is_stored_sparsely() {
        let (u, v, r, a) = setup();
        let mut bounds = PartialInstance::new();
        bounds.require(r, vec![a[0], a[0]]);
        bounds.permit(r, vec![a[0], a[1]]);
        let mut solver = Solver::new();
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        // Only the two bound tuples are materialized; the rest of the
        // 2×2 product is implicit.
        assert_eq!(vm.rel_states(r).count(), 2);
        assert_eq!(vm.state(r, &[a[1], a[1]]), Some(TupleState::False));
    }

    #[test]
    fn empty_bound_pins_whole_relation_false() {
        let (u, v, r, a) = setup();
        let mut bounds = PartialInstance::new();
        bounds.bound(r);
        let mut solver = Solver::new();
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        assert_eq!(vm.num_free_vars(), 0);
        assert_eq!(vm.rel_states(r).count(), 0);
        assert_eq!(vm.state(r, &[a[0], a[1]]), Some(TupleState::False));
        assert!(vm.is_free(r));
    }

    #[test]
    fn unbounded_relation_is_fully_free() {
        let (u, v, r, _) = setup();
        let bounds = PartialInstance::new();
        let mut solver = Solver::new();
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        assert_eq!(vm.num_free_vars(), 4);
        assert!(vm.is_free(r));
    }

    /// An expired budget stops a large build before it allocates a
    /// single solver variable.
    #[test]
    fn expired_budget_stops_the_build() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        for i in 0..20 {
            u.add_atom(s, format!("a{i}"));
        }
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s, s, s], Domain::Structure);
        let mut solver = Solver::new();
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        let bounds = PartialInstance::new();
        let built = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &expired);
        assert_eq!(built.err(), Some(GroundError::Exhausted));
        assert_eq!(solver.num_vars(), 0);
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        assert_eq!((vm.num_free_vars(), solver.num_vars()), (8000, 8000));
    }

    #[test]
    fn decode_reads_model_and_pins() {
        let (u, v, r, a) = setup();
        let mut bounds = PartialInstance::new();
        bounds.require(r, vec![a[0], a[0]]);
        bounds.permit(r, vec![a[0], a[1]]);
        let mut solver = Solver::new();
        let vm = VarMap::build(&v, &u, &[r], &bounds, &mut solver, &Budget::unlimited()).unwrap();
        // Force the free tuple true and solve.
        let (var, _, _) = vm.free_tuples().next().unwrap();
        solver.add_clause([muppet_sat::Lit::pos(var)]);
        match solver.solve() {
            muppet_sat::SolveResult::Sat(m) => {
                let inst = vm.decode(&m);
                assert!(inst.holds(r, &[a[0], a[0]]));
                assert!(inst.holds(r, &[a[0], a[1]]));
                assert!(!inst.holds(r, &[a[1], a[0]]));
            }
            other => panic!("{other:?}"),
        }
    }
}
