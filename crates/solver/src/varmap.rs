//! Mapping between relational tuples and SAT variables.

use std::collections::BTreeMap;

use muppet_logic::{AtomId, Instance, PartialInstance, RelId, SortId, Universe, Vocabulary};
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

/// How one free relation's tuples map to variables.
#[derive(Debug)]
enum Layout {
    /// Unbounded: every tuple of the product is free. Tuple
    /// `(a₁…a_k)` is variable `base + index`, where `index` is the
    /// mixed-radix number whose digits are the atoms' positions in
    /// their sorts, the first argument most significant: the tuple's
    /// position in the lexicographic product of its sorts.
    Range {
        base: usize,
        sorts: Vec<SortId>,
        len: usize,
    },
    /// Bounded: the bound support; every absent tuple is pinned false.
    Sparse(BTreeMap<Vec<AtomId>, TupleState>),
}

/// Map between the ground atoms of *free* relations and SAT variables,
/// with fixed relations resolved against a concrete instance.
///
/// This mirrors Kodkod's translation of relation bounds: tuples in the
/// lower bound become constants-true, tuples excluded by the upper bound
/// constants-false, and the remainder become propositional variables.
///
/// An unbounded free relation is laid out *arithmetically*, as Kodkod
/// numbers a relation's tuples from its bounds: its whole tuple product
/// is one contiguous range of variables, and a tuple's variable is
/// computed from its atoms' positions in their sorts, so nothing is
/// stored per tuple. Bounded relations are stored *sparsely*: only the
/// tuples inside the upper bound (plus any required tuples) get an
/// entry, and every other tuple is implicitly pinned false. This is
/// what keeps thousand-service mesh queries tractable — a ternary
/// `Svc × Svc × Port` relation bounded to an empty upper bound costs
/// nothing instead of |Svc|²·|Port| map entries.
///
/// Variables are numbered in layout order: free relations in the order
/// given, a range in tuple-product order (first argument slowest), a
/// sparse support in tuple order. All free variables form one
/// contiguous block.
#[derive(Debug)]
pub struct VarMap {
    /// Free relations in layout order, with their layouts.
    rels: Vec<(RelId, Layout)>,
    /// Relation id → index into `rels`.
    slot: Vec<Option<usize>>,
    /// Atom id → its sort and its position within the sort.
    atom_pos: Vec<(SortId, u32)>,
    /// Sort id → its atoms, in position order.
    members: Vec<Vec<AtomId>>,
    /// The first free variable.
    base: usize,
    /// Number of free variables.
    num_free: usize,
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
    /// complete. `budget` is polled before each relation and every few
    /// thousand sparse tuples; when it fires the result is
    /// [`GroundError::Exhausted`] and `solver` is left untouched.
    pub fn build(
        vocab: &Vocabulary,
        universe: &Universe,
        free_rels: &[RelId],
        bounds: &PartialInstance,
        solver: &mut Solver,
        budget: &Budget,
    ) -> Result<VarMap, GroundError> {
        let members: Vec<Vec<AtomId>> = (0..universe.num_sorts())
            .map(|s| universe.atoms_of(SortId(s as u32)).to_vec())
            .collect();
        let mut atom_pos = vec![(SortId(0), 0); universe.num_atoms()];
        for (s, atoms) in members.iter().enumerate() {
            for (p, a) in atoms.iter().enumerate() {
                atom_pos[a.0 as usize] = (SortId(s as u32), p as u32);
            }
        }
        let base = solver.num_vars();
        let mut next = base;
        let mut rels = Vec::with_capacity(free_rels.len());
        let mut slot: Vec<Option<usize>> = Vec::new();
        let mut visited = 0usize;
        for &rel in free_rels {
            if budget.poll().is_some() {
                return Err(GroundError::Exhausted);
            }
            let r = rel.0 as usize;
            if slot.len() <= r {
                slot.resize(r + 1, None);
            }
            if slot[r].is_some() {
                continue;
            }
            let layout = if bounds.is_bounded(rel) {
                // Enumerate the bound support only. `require` also
                // enters the upper bound, so the upper set covers the
                // lower; iterate both anyway to stay correct for
                // hand-built bounds.
                let mut per = BTreeMap::new();
                for tuple in bounds.upper(rel).chain(bounds.lower(rel)) {
                    if per.contains_key(tuple.as_slice()) {
                        continue;
                    }
                    visited += 1;
                    if visited.is_multiple_of(POLL_EVERY) && budget.poll().is_some() {
                        return Err(GroundError::Exhausted);
                    }
                    let state = if bounds.is_required(rel, tuple) {
                        TupleState::True
                    } else {
                        next += 1;
                        TupleState::Free(Var::from_index(next - 1))
                    };
                    per.insert(tuple.clone(), state);
                }
                Layout::Sparse(per)
            } else {
                let sorts = vocab.rel(rel).arg_sorts.clone();
                let len = sorts.iter().map(|s| members[s.0 as usize].len()).product();
                next += len;
                Layout::Range { base: next - len, sorts, len }
            };
            slot[r] = Some(rels.len());
            rels.push((rel, layout));
        }
        solver.new_vars(next - base);
        Ok(VarMap {
            rels,
            slot,
            atom_pos,
            members,
            base,
            num_free: next - base,
        })
    }

    fn layout(&self, rel: RelId) -> Option<&Layout> {
        let i = (*self.slot.get(rel.0 as usize)?)?;
        Some(&self.rels[i].1)
    }

    /// The mixed-radix index of `tuple` in the product of `sorts`, or
    /// `None` when the tuple has the wrong arity or an ill-sorted atom.
    fn rank(&self, sorts: &[SortId], tuple: &[AtomId]) -> Option<usize> {
        if tuple.len() != sorts.len() {
            return None;
        }
        let mut index = 0;
        for (a, &s) in tuple.iter().zip(sorts) {
            let &(sort, pos) = self.atom_pos.get(a.0 as usize)?;
            if sort != s {
                return None;
            }
            index = index * self.members[s.0 as usize].len() + pos as usize;
        }
        Some(index)
    }

    /// The tuple at mixed-radix `index` in the product of `sorts`.
    fn unrank(&self, sorts: &[SortId], mut index: usize) -> Vec<AtomId> {
        let mut tuple = vec![AtomId(0); sorts.len()];
        for (slot, s) in tuple.iter_mut().zip(sorts).rev() {
            let atoms = &self.members[s.0 as usize];
            *slot = atoms[index % atoms.len()];
            index /= atoms.len();
        }
        tuple
    }

    /// The state of a ground tuple of a *free* relation. `None` when the
    /// relation is not free (resolve against the fixed instance
    /// instead), or when an unbounded relation is handed an ill-sorted
    /// tuple. For a bounded (sparse) relation, tuples outside the stored
    /// support are pinned false.
    pub(crate) fn state(&self, rel: RelId, tuple: &[AtomId]) -> Option<TupleState> {
        match self.layout(rel)? {
            Layout::Range { base, sorts, .. } => {
                let index = self.rank(sorts, tuple)?;
                Some(TupleState::Free(Var::from_index(base + index)))
            }
            Layout::Sparse(per) => Some(per.get(tuple).copied().unwrap_or(TupleState::False)),
        }
    }

    /// The tuples of `rel` pinned true by its lower bound. Only bounded
    /// relations pin tuples.
    pub(crate) fn pinned_true(&self, rel: RelId) -> impl Iterator<Item = &[AtomId]> {
        let per = match self.layout(rel) {
            Some(Layout::Sparse(per)) => Some(per),
            _ => None,
        };
        per.into_iter()
            .flatten()
            .filter(|(_, s)| **s == TupleState::True)
            .map(|(t, _)| t.as_slice())
    }

    /// Is `rel` one of the free relations?
    pub fn is_free(&self, rel: RelId) -> bool {
        self.layout(rel).is_some()
    }

    /// Number of free (undetermined) SAT variables.
    pub fn num_free_vars(&self) -> usize {
        self.num_free
    }

    /// The free variables in ascending order: one contiguous block.
    pub fn free_vars(&self) -> impl Iterator<Item = Var> {
        (self.base..self.base + self.num_free).map(Var::from_index)
    }

    /// All (variable, relation, tuple) triples, in ascending variable
    /// order. Tuples of unbounded relations are computed, not stored,
    /// so they come out owned.
    pub fn free_tuples(&self) -> impl Iterator<Item = (Var, RelId, Vec<AtomId>)> + '_ {
        type Tuples<'a> = Box<dyn Iterator<Item = (Var, RelId, Vec<AtomId>)> + 'a>;
        self.rels.iter().flat_map(move |(rel, layout)| -> Tuples<'_> {
            let rel = *rel;
            match layout {
                Layout::Range { base, sorts, len } => Box::new(
                    (0..*len).map(move |i| (Var::from_index(base + i), rel, self.unrank(sorts, i))),
                ),
                Layout::Sparse(per) => Box::new(per.iter().filter_map(move |(t, s)| match s {
                    TupleState::Free(v) => Some((*v, rel, t.clone())),
                    _ => None,
                })),
            }
        })
    }

    /// Decode a SAT model into an [`Instance`] over the free relations
    /// (pinned-true tuples included).
    pub fn decode(&self, model: &Model) -> Instance {
        self.decode_with(|v| model.value(v))
    }

    /// Decode the assignment `value` gives the free variables into an
    /// [`Instance`] over the free relations (pinned-true tuples
    /// included).
    pub(crate) fn decode_with(&self, value: impl Fn(Var) -> bool) -> Instance {
        let mut out = Instance::new();
        for (rel, layout) in &self.rels {
            match layout {
                Layout::Range { base, sorts, len } => {
                    for i in 0..*len {
                        if value(Var::from_index(base + i)) {
                            out.insert(*rel, self.unrank(sorts, i));
                        }
                    }
                }
                Layout::Sparse(per) => {
                    for (tuple, state) in per {
                        let present = match state {
                            TupleState::True => true,
                            TupleState::False => false,
                            TupleState::Free(v) => value(*v),
                        };
                        if present {
                            out.insert(*rel, tuple.clone());
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::Domain;
    use proptest::prelude::*;

    /// The full tuple product of the given argument sorts, in the order
    /// the layout numbers unbounded tuples.
    fn tuple_product(universe: &Universe, arg_sorts: &[SortId]) -> Vec<Vec<AtomId>> {
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
        assert!(matches!(vm.layout(r), Some(Layout::Sparse(per)) if per.len() == 2));
        assert_eq!(vm.pinned_true(r).collect::<Vec<_>>(), [&[a[0], a[0]][..]]);
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
        assert!(matches!(vm.layout(r), Some(Layout::Sparse(per)) if per.is_empty()));
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

    /// A random layout problem: atoms per sort, and per relation its
    /// argument sorts and, when bounded, its (permitted, required)
    /// tuples as indices into its tuple product.
    type Shape = (Vec<usize>, Vec<(Vec<usize>, Option<(Vec<usize>, Vec<usize>)>)>);

    fn shape() -> impl Strategy<Value = Shape> {
        prop::collection::vec(0usize..4, 1..4).prop_flat_map(|sizes| {
            let n = sizes.len();
            let rel = (
                prop::collection::vec(0..n, 0..4),
                any::<bool>(),
                prop::collection::vec(0usize..64, 0..6),
                prop::collection::vec(0usize..64, 0..3),
            )
                .prop_map(|(args, bounded, permit, require)| (args, bounded.then_some((permit, require))));
            (Just(sizes), prop::collection::vec(rel, 0..5))
        })
    }

    proptest! {
        /// The arithmetic layout numbers an unbounded relation's tuples
        /// exactly as `tuple_product` lists them, a bounded one's free
        /// support in tuple order, relation after relation; ill-sorted
        /// tuples resolve to nothing; and `decode` inverts the layout.
        #[test]
        fn layout_is_tuple_product_order((sizes, rels) in shape(), seed in any::<u64>()) {
            let mut u = Universe::new();
            let sorts: Vec<SortId> = (0..sizes.len()).map(|i| u.add_sort(format!("S{i}"))).collect();
            for (k, &n) in sizes.iter().enumerate() {
                for i in 0..n {
                    u.add_atom(sorts[k], format!("a{k}.{i}"));
                }
            }
            let mut v = Vocabulary::new();
            let mut bounds = PartialInstance::new();
            let mut ids = Vec::new();
            for (i, (args, bound)) in rels.iter().enumerate() {
                let arg_sorts: Vec<SortId> = args.iter().map(|&s| sorts[s]).collect();
                let r = v.add_simple_rel(format!("r{i}"), arg_sorts.clone(), Domain::Structure);
                let product = tuple_product(&u, &arg_sorts);
                if let Some((permit, require)) = bound {
                    bounds.bound(r);
                    for &k in permit.iter().filter(|_| !product.is_empty()) {
                        bounds.permit(r, product[k % product.len()].clone());
                    }
                    for &k in require.iter().filter(|_| !product.is_empty()) {
                        bounds.require(r, product[k % product.len()].clone());
                    }
                }
                ids.push(r);
            }
            let mut solver = Solver::new();
            solver.new_vars(3);
            let vm = VarMap::build(&v, &u, &ids, &bounds, &mut solver, &Budget::unlimited()).unwrap();
            let mut next = 3;
            let mut expected = Vec::new();
            for &r in &ids {
                let arg_sorts = &v.rel(r).arg_sorts;
                for tuple in tuple_product(&u, arg_sorts) {
                    let state = vm.state(r, &tuple).unwrap();
                    if !bounds.is_bounded(r) {
                        prop_assert_eq!(state, TupleState::Free(Var::from_index(next)));
                    } else if bounds.is_required(r, &tuple) {
                        prop_assert_eq!(state, TupleState::True);
                    } else if bounds.is_allowed(r, &tuple) {
                        prop_assert_eq!(state, TupleState::Free(Var::from_index(next)));
                    } else {
                        prop_assert_eq!(state, TupleState::False);
                    }
                    if let TupleState::Free(_) = state {
                        expected.push((Var::from_index(next), r, tuple.clone()));
                        next += 1;
                    }
                    // One argument swapped for an atom of another sort,
                    // or one argument too many.
                    let mut longer = tuple.clone();
                    longer.push(AtomId(0));
                    let mut wrong = vec![longer];
                    for (k, &s) in arg_sorts.iter().enumerate() {
                        if let Some(other) = sorts.iter().find(|&&o| o != s && !u.atoms_of(o).is_empty()) {
                            let mut t = tuple.clone();
                            t[k] = u.atoms_of(*other)[0];
                            wrong.push(t);
                        }
                    }
                    for t in wrong {
                        let ill = vm.state(r, &t);
                        if bounds.is_bounded(r) {
                            prop_assert_eq!(ill, Some(TupleState::False));
                        } else {
                            prop_assert_eq!(ill, None);
                        }
                    }
                }
            }
            prop_assert_eq!(vm.num_free_vars(), next - 3);
            prop_assert_eq!(solver.num_vars(), next);
            prop_assert_eq!(vm.free_tuples().collect::<Vec<_>>(), expected.clone());
            prop_assert!(vm.free_vars().eq((3..next).map(Var::from_index)));
            // `decode` inverts the layout under a pseudo-random assignment.
            let value = |x: Var| (seed >> (x.index() % 64)) & 1 == 1;
            let inst = vm.decode_with(value);
            for (x, r, tuple) in &expected {
                prop_assert_eq!(inst.holds(*r, tuple), value(*x));
            }
            for &r in &ids {
                for tuple in inst.tuples(r) {
                    let pinned = vm.state(r, tuple) == Some(TupleState::True);
                    prop_assert!(pinned || expected.iter().any(|(_, er, et)| *er == r && et == tuple));
                }
                for tuple in vm.pinned_true(r) {
                    prop_assert!(inst.holds(r, tuple));
                }
            }
        }
    }
}
