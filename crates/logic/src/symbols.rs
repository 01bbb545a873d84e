//! Sorts, atoms, relation symbols and configuration-domain ownership.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a sort (a finite type such as `Service` or `Port`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SortId(pub u32);

/// Identifier of an atom (an element of some sort's domain).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

/// Identifier of a relation symbol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

/// Identifier of a (quantified) variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// Identifier of an administrator / party (the paper's `A`, `B`, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PartyId(pub u32);

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "party{}", self.0)
    }
}

/// Who owns a relation: the shared system structure, or one party's
/// configuration domain.
///
/// The paper's algorithms hinge on this split: envelope extraction (Alg. 3)
/// keeps subformulas that mention the *recipient's* domain and substitutes
/// away the *sender's*; structure relations (service names, listening
/// ports) are fixed facts visible to everyone.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Domain {
    /// Shared, immutable system structure (e.g. which ports a service
    /// listens on). Never substituted, never synthesized.
    Structure,
    /// A party's configuration domain (e.g. the K8s administrator's
    /// NetworkPolicy relations).
    Party(PartyId),
}

/// A named sort (finite type).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sort {
    /// Human-readable name, e.g. `"Service"`.
    pub name: String,
}

/// A relation declaration: name, argument sorts, owner domain and English
/// templates for rendering (see [`crate::pretty`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelDecl {
    /// Symbol name as shown in Alloy-style output, e.g.
    /// `"istio_egress_deny_port"`.
    pub name: String,
    /// Argument sorts; the arity is `arg_sorts.len()`.
    pub arg_sorts: Vec<SortId>,
    /// Owner of this relation.
    pub owner: Domain,
    /// English template for a positive atom, with `{0}`, `{1}`, …
    /// placeholders for the arguments; e.g.
    /// `"{0} listens on port {1}"`. Empty string falls back to
    /// `name(args)`.
    pub english: String,
    /// English template for a negated atom; empty string falls back to
    /// `"it is not the case that " + english`.
    pub english_neg: String,
}

/// The finite universe: all sorts and their atoms.
///
/// Atom ids are globally unique (not per-sort); every atom belongs to
/// exactly one sort.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Universe {
    sorts: Vec<Sort>,
    atom_names: Vec<String>,
    atom_sorts: Vec<SortId>,
    /// Atoms of each sort, in insertion order.
    members: Vec<Vec<AtomId>>,
    /// Name → atom lookup (names are unique within a sort).
    by_name: BTreeMap<(SortId, String), AtomId>,
}

impl Universe {
    /// An empty universe.
    pub fn new() -> Universe {
        Universe::default()
    }

    /// Declare a new sort.
    pub fn add_sort(&mut self, name: impl Into<String>) -> SortId {
        let id = SortId(self.sorts.len() as u32);
        self.sorts.push(Sort { name: name.into() });
        self.members.push(Vec::new());
        id
    }

    /// Add an atom to `sort`. Re-adding an existing name returns the
    /// original atom (idempotent).
    pub fn add_atom(&mut self, sort: SortId, name: impl Into<String>) -> AtomId {
        let name = name.into();
        if let Some(&a) = self.by_name.get(&(sort, name.clone())) {
            return a;
        }
        let id = AtomId(self.atom_names.len() as u32);
        self.atom_names.push(name.clone());
        self.atom_sorts.push(sort);
        self.members[sort.0 as usize].push(id);
        self.by_name.insert((sort, name), id);
        id
    }

    /// Look up an atom by sort and name.
    pub fn atom(&self, sort: SortId, name: &str) -> Option<AtomId> {
        self.by_name.get(&(sort, name.to_string())).copied()
    }

    /// All atoms of a sort, in insertion order.
    pub fn atoms_of(&self, sort: SortId) -> &[AtomId] {
        &self.members[sort.0 as usize]
    }

    /// The sort an atom belongs to.
    pub fn sort_of(&self, atom: AtomId) -> SortId {
        self.atom_sorts[atom.0 as usize]
    }

    /// An atom's display name.
    pub fn atom_name(&self, atom: AtomId) -> &str {
        &self.atom_names[atom.0 as usize]
    }

    /// A sort's display name.
    pub fn sort_name(&self, sort: SortId) -> &str {
        &self.sorts[sort.0 as usize].name
    }

    /// Number of sorts.
    pub fn num_sorts(&self) -> usize {
        self.sorts.len()
    }

    /// Number of atoms across all sorts.
    pub fn num_atoms(&self) -> usize {
        self.atom_names.len()
    }
}

/// The relational vocabulary plus a fresh-variable supply.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    rels: Vec<RelDecl>,
    by_name: BTreeMap<String, RelId>,
    next_var: u32,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Declare a relation. Names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate relation names — a caller bug.
    pub fn add_rel(&mut self, decl: RelDecl) -> RelId {
        assert!(
            !self.by_name.contains_key(&decl.name),
            "duplicate relation name {:?}",
            decl.name
        );
        let id = RelId(self.rels.len() as u32);
        self.by_name.insert(decl.name.clone(), id);
        self.rels.push(decl);
        id
    }

    /// Convenience: declare a relation without English templates.
    pub fn add_simple_rel(
        &mut self,
        name: impl Into<String>,
        arg_sorts: Vec<SortId>,
        owner: Domain,
    ) -> RelId {
        self.add_rel(RelDecl {
            name: name.into(),
            arg_sorts,
            owner,
            english: String::new(),
            english_neg: String::new(),
        })
    }

    /// Look up a relation by name.
    pub fn rel_by_name(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// A relation's declaration.
    pub fn rel(&self, id: RelId) -> &RelDecl {
        &self.rels[id.0 as usize]
    }

    /// All declared relations in id order.
    pub fn rels(&self) -> impl Iterator<Item = (RelId, &RelDecl)> {
        self.rels
            .iter()
            .enumerate()
            .map(|(i, d)| (RelId(i as u32), d))
    }

    /// Number of declared relations.
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// Produce a fresh variable id (never reused).
    pub fn fresh_var(&mut self) -> VarId {
        let v = VarId(self.next_var);
        self.next_var += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_atoms_are_idempotent_and_sorted_by_sort() {
        let mut u = Universe::new();
        let svc = u.add_sort("Service");
        let port = u.add_sort("Port");
        let fe = u.add_atom(svc, "frontend");
        let fe2 = u.add_atom(svc, "frontend");
        assert_eq!(fe, fe2);
        let p23 = u.add_atom(port, "23");
        assert_eq!(u.atoms_of(svc), &[fe]);
        assert_eq!(u.atoms_of(port), &[p23]);
        assert_eq!(u.sort_of(p23), port);
        assert_eq!(u.atom_name(fe), "frontend");
        assert_eq!(u.sort_name(svc), "Service");
        assert_eq!(u.atom(svc, "frontend"), Some(fe));
        assert_eq!(u.atom(port, "frontend"), None);
        assert_eq!(u.num_sorts(), 2);
        assert_eq!(u.num_atoms(), 2);
    }

    #[test]
    fn same_name_in_different_sorts_is_distinct() {
        let mut u = Universe::new();
        let a = u.add_sort("A");
        let b = u.add_sort("B");
        let x1 = u.add_atom(a, "x");
        let x2 = u.add_atom(b, "x");
        assert_ne!(x1, x2);
    }

    #[test]
    fn vocabulary_lookup_and_fresh_vars() {
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("listens", vec![SortId(0), SortId(1)], Domain::Structure);
        assert_eq!(v.rel_by_name("listens"), Some(r));
        assert_eq!(v.rel(r).arg_sorts.len(), 2);
        assert_eq!(v.rel(r).owner, Domain::Structure);
        let v1 = v.fresh_var();
        let v2 = v.fresh_var();
        assert_ne!(v1, v2);
        assert_eq!(v.num_rels(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate relation name")]
    fn duplicate_relation_names_panic() {
        let mut v = Vocabulary::new();
        v.add_simple_rel("r", vec![], Domain::Structure);
        v.add_simple_rel("r", vec![], Domain::Structure);
    }
}
