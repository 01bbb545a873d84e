//! Stable content fingerprints for logic-level values.
//!
//! Caches throughout the pipeline — the daemon's result cache, the
//! warm-session registry, and the incremental engine's group index
//! and warm-engine store — are keyed by *content*, not identity: two
//! values that describe the same formulas, bounds and universe must
//! collide, and any semantic difference must not. [`Fingerprinter`]
//! produces a 128-bit digest from two independently-seeded FNV-1a
//! streams fed by the same byte sequence — deterministic across
//! processes (unlike `DefaultHasher`; every `add_*` method walks its
//! structure in a canonical order), cheap, and wide enough that
//! accidental collisions are not a practical concern for a cache.
//!
//! This is an integrity fingerprint for caching, **not** a
//! cryptographic hash: nothing here defends against adversarial
//! collision crafting, and cache entries only short-circuit work the
//! caller could redo.
//!
//! The module lives in `muppet-logic` (the bottom of the crate stack)
//! so that solver-layer caches can key on [`Formula`] content without
//! depending on `muppet` core; core re-exports it and layers on
//! goal/party walks.

use std::hash::{Hash, Hasher};

use crate::{Formula, Instance, PartialInstance, RelId, Term, Universe, VarId, Vocabulary};

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Accumulates a canonical byte stream into a 128-bit digest.
///
/// Implements [`std::hash::Hasher`], so anything that is `Hash` (e.g.
/// [`crate::Formula`]) can be folded in via
/// [`Fingerprinter::add_hash`]; structures without `Hash` (instances,
/// universes) get explicit canonical-order walks.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    a: u64,
    b: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Hasher for Fingerprinter {
    fn finish(&self) -> u64 {
        self.a
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b.rotate_left(5) ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl Fingerprinter {
    /// A fresh fingerprinter.
    pub fn new() -> Fingerprinter {
        Fingerprinter {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Fold in raw bytes.
    pub fn add_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write(bytes);
        self
    }

    /// Fold in a string (length-prefixed, so `("ab","c")` ≠ `("a","bc")`).
    pub fn add_str(&mut self, s: &str) -> &mut Self {
        self.add_u64(s.len() as u64);
        self.write(s.as_bytes());
        self
    }

    /// Fold in an integer.
    pub fn add_u64(&mut self, x: u64) -> &mut Self {
        self.write(&x.to_le_bytes());
        self
    }

    /// Fold in a boolean.
    pub fn add_bool(&mut self, x: bool) -> &mut Self {
        self.add_u64(u64::from(x))
    }

    /// Fold in anything `Hash` (formulas, ids, tuples) via its
    /// `Hash::hash` byte stream.
    pub fn add_hash<T: Hash + ?Sized>(&mut self, value: &T) -> &mut Self {
        value.hash(self);
        self
    }

    /// Fold in a formula up to α-equivalence. The stream names every
    /// node kind, relation, sort and constant, but a bound variable
    /// only by the depth of the binder that captures it (the innermost
    /// binder of that id, so shadowing resolves as grounding does), so
    /// renaming bound variables leaves the digest unchanged while
    /// swapping two argument positions changes it. A free variable is
    /// folded in under its own tag with its raw id.
    pub fn add_formula(&mut self, f: &Formula) -> &mut Self {
        self.formula_node(f, &mut Vec::new());
        self
    }

    fn formula_node(&mut self, f: &Formula, binders: &mut Vec<VarId>) {
        match f {
            Formula::True => self.write_u8(0),
            Formula::False => self.write_u8(1),
            Formula::Pred(rel, args) => {
                self.write_u8(2);
                self.write_u32(rel.0);
                self.add_u64(args.len() as u64);
                for &t in args {
                    self.term(t, binders);
                }
            }
            Formula::Eq(a, b) => {
                self.write_u8(3);
                self.term(*a, binders);
                self.term(*b, binders);
            }
            Formula::Not(g) => {
                self.write_u8(4);
                self.formula_node(g, binders);
            }
            Formula::And(fs) | Formula::Or(fs) => {
                self.write_u8(if matches!(f, Formula::And(_)) { 5 } else { 6 });
                self.add_u64(fs.len() as u64);
                for g in fs {
                    self.formula_node(g, binders);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.write_u8(if matches!(f, Formula::Implies(..)) { 7 } else { 8 });
                self.formula_node(a, binders);
                self.formula_node(b, binders);
            }
            Formula::Forall(v, sort, body) | Formula::Exists(v, sort, body) => {
                self.write_u8(if matches!(f, Formula::Forall(..)) { 9 } else { 10 });
                self.write_u32(sort.0);
                binders.push(*v);
                self.formula_node(body, binders);
                binders.pop();
            }
        }
    }

    fn term(&mut self, t: Term, binders: &[VarId]) {
        match t {
            Term::Const(a) => {
                self.write_u8(0);
                self.write_u32(a.0);
            }
            Term::Var(v) => match binders.iter().rposition(|&b| b == v) {
                Some(depth) => {
                    self.write_u8(1);
                    self.write_u32(depth as u32);
                }
                None => {
                    self.write_u8(2);
                    self.write_u32(v.0);
                }
            },
        }
    }

    /// Fold in a total instance: relations and tuples in canonical
    /// (sorted id) order.
    pub fn add_instance(&mut self, inst: &Instance) -> &mut Self {
        let mut entries = inst.all_tuples();
        entries.sort();
        self.add_u64(entries.len() as u64);
        for (rel, tuple) in entries {
            self.add_hash(&rel);
            self.add_hash(&tuple);
        }
        self
    }

    /// Fold in a partial instance (offer bounds): per bounded relation,
    /// the sorted lower and upper tuple sets.
    pub fn add_partial(&mut self, p: &PartialInstance) -> &mut Self {
        let mut rels: Vec<RelId> = p.bounded_rels().collect();
        rels.sort();
        self.add_u64(rels.len() as u64);
        for rel in rels {
            self.add_hash(&rel);
            let mut lower: Vec<_> = p.lower(rel).map(|t| t.to_vec()).collect();
            lower.sort();
            self.add_u64(lower.len() as u64);
            for t in lower {
                self.add_hash(&t);
            }
            let mut upper: Vec<_> = p.upper(rel).map(|t| t.to_vec()).collect();
            upper.sort();
            self.add_u64(upper.len() as u64);
            for t in upper {
                self.add_hash(&t);
            }
        }
        self
    }

    /// Fold in a universe: sorts, their names and their atoms' names in
    /// declaration order (declaration order is part of identity — atom
    /// ids appear inside formulas).
    pub fn add_universe(&mut self, u: &Universe) -> &mut Self {
        self.add_u64(u.num_sorts() as u64);
        for s in (0..u.num_sorts() as u32).map(crate::SortId) {
            self.add_str(u.sort_name(s));
            let atoms = u.atoms_of(s);
            self.add_u64(atoms.len() as u64);
            for &a in atoms {
                self.add_str(u.atom_name(a));
            }
        }
        self
    }

    /// Fold in a vocabulary: every relation's name, argument sorts and
    /// owning domain, in declaration order.
    pub fn add_vocab(&mut self, v: &Vocabulary) -> &mut Self {
        self.add_u64(v.num_rels() as u64);
        for (rel, decl) in v.rels() {
            self.add_hash(&rel);
            self.add_str(&decl.name);
            self.add_hash(&decl.arg_sorts);
            self.add_hash(&decl.owner);
        }
        self
    }

    /// The 128-bit digest of everything folded in so far.
    pub fn digest(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Render a digest as fixed-width lowercase hex (32 chars).
pub fn hex(digest: u128) -> String {
    format!("{digest:032x}")
}

/// Parse a digest rendered by [`hex`].
pub fn parse_hex(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, PartyId};

    #[test]
    fn formula_fingerprints_are_deterministic_and_sensitive() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let a = u.add_atom(s, "a");
        let b = u.add_atom(s, "b");
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s], Domain::Party(PartyId(0)));
        let fp = |f: &Formula| {
            let mut h = Fingerprinter::new();
            h.add_universe(&u).add_vocab(&v).add_hash(f);
            h.digest()
        };
        let fa = Formula::pred(r, [Term::Const(a)]);
        let fb = Formula::pred(r, [Term::Const(b)]);
        assert_eq!(fp(&fa), fp(&fa.clone()), "same content, same digest");
        assert_ne!(fp(&fa), fp(&fb), "different atom must differ");
        assert_ne!(fp(&fa), fp(&Formula::not(fa.clone())), "negation must differ");
    }

    /// The α-equivalence walk: bound-variable names do not matter,
    /// argument positions, shadowing and free variables do.
    #[test]
    fn formula_digest_is_alpha_invariant() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let a = u.add_atom(s, "a");
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s, s], Domain::Party(PartyId(0)));
        let (x, y, z, w) = (v.fresh_var(), v.fresh_var(), v.fresh_var(), v.fresh_var());
        let fp = |f: &Formula| {
            let mut h = Fingerprinter::new();
            h.add_formula(f);
            h.digest()
        };
        let pred = |p: VarId, q: VarId| Formula::pred(r, [Term::Var(p), Term::Var(q)]);
        let all2 = |p, q, body| Formula::forall(p, s, Formula::forall(q, s, body));
        // ∀x∀y r(x,y) ≡α ∀z∀w r(z,w), but ≢ ∀x∀y r(y,x).
        assert_eq!(fp(&all2(x, y, pred(x, y))), fp(&all2(z, w, pred(z, w))));
        assert_ne!(fp(&all2(x, y, pred(x, y))), fp(&all2(x, y, pred(y, x))));
        // Shadowing: in ∀x∀x r(x,x) both occurrences are the inner x.
        let shadowed = all2(x, x, pred(x, x));
        assert_eq!(fp(&shadowed), fp(&all2(z, w, pred(w, w))));
        assert_ne!(fp(&shadowed), fp(&all2(z, w, pred(z, w))));
        // A free variable is not a bound one, and its id matters.
        let open_x = Formula::forall(y, s, pred(x, y));
        assert_ne!(fp(&open_x), fp(&Formula::forall(y, s, pred(y, y))));
        assert_ne!(fp(&open_x), fp(&Formula::forall(y, s, pred(z, y))));
        assert_eq!(fp(&open_x), fp(&Formula::forall(w, s, pred(x, w))));
        // Quantifier kind, sort and constants are part of the digest.
        assert_ne!(
            fp(&Formula::forall(x, s, pred(x, x))),
            fp(&Formula::exists(x, s, pred(x, x)))
        );
        let c = Formula::pred(r, [Term::Const(a), Term::Var(x)]);
        assert_ne!(fp(&Formula::forall(x, s, c.clone())), fp(&Formula::forall(x, s, pred(x, x))));
    }

    #[test]
    fn instance_order_is_canonical() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let a = u.add_atom(s, "a");
        let b = u.add_atom(s, "b");
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s], Domain::Structure);
        let mut i1 = Instance::new();
        i1.insert(r, vec![a]);
        i1.insert(r, vec![b]);
        let mut i2 = Instance::new();
        i2.insert(r, vec![b]);
        i2.insert(r, vec![a]);
        let fp = |i: &Instance| {
            let mut f = Fingerprinter::new();
            f.add_instance(i);
            f.digest()
        };
        assert_eq!(fp(&i1), fp(&i2));
        let mut i3 = i1.clone();
        i3.remove(r, &[b]);
        assert_ne!(fp(&i1), fp(&i3));
    }

    #[test]
    fn hex_roundtrip() {
        let mut f = Fingerprinter::new();
        f.add_str("hello");
        let d = f.digest();
        assert_eq!(parse_hex(&hex(d)), Some(d));
        assert_eq!(hex(d).len(), 32);
        assert_eq!(parse_hex("nope"), None);
    }

    #[test]
    fn string_boundaries_matter() {
        let fp = |parts: &[&str]| {
            let mut f = Fingerprinter::new();
            for p in parts {
                f.add_str(p);
            }
            f.digest()
        };
        assert_ne!(fp(&["ab", "c"]), fp(&["a", "bc"]));
    }
}
