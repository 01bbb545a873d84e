//! Property-based testing of the logic layer: random formulas over a
//! small vocabulary, checked against brute-force evaluation.
//!
//! Properties: `simplify` and `nnf` preserve semantics; `decompose` is
//! conjunction-preserving; `partial_eval` is the semantic substitution
//! of Alg. 3; grounding + SAT agrees with direct evaluation.

use muppet_logic::{
    decompose, evaluate_closed, nnf, partial_eval, simplify, Domain, Formula, Instance,
    PartialInstance, PartyId, RelId, SortId, Term, Universe, VarId, Vocabulary,
};
use muppet_solver::{Budget, FormulaGroup, IncrementalQuery};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N_ATOMS: usize = 2;
const N_VARS: usize = 2;

/// Fixed tiny vocabulary: sort S with 2 atoms; unary rel `p` (party 0),
/// unary rel `q` (party 1), binary rel `e` (structure).
fn fixture() -> (Universe, Vocabulary, [RelId; 3]) {
    let mut u = Universe::new();
    let s = u.add_sort("S");
    for name in ["a", "b"] {
        u.add_atom(s, name);
    }
    let mut v = Vocabulary::new();
    let p = v.add_simple_rel("p", vec![s], Domain::Party(PartyId(0)));
    let q = v.add_simple_rel("q", vec![s], Domain::Party(PartyId(1)));
    let e = v.add_simple_rel("e", vec![s, s], Domain::Structure);
    for _ in 0..N_VARS {
        v.fresh_var();
    }
    (u, v, [p, q, e])
}

/// A compact encodable representation of random formulas, interpreted
/// against the fixture. `depth`-bounded recursive strategy.
#[derive(Clone, Debug)]
enum F {
    T,
    Fa,
    P(u8, u8),     // rel index 0..3, atom-or-var code
    Eq(u8, u8),    // two term codes
    Not(Box<F>),
    And(Vec<F>),
    Or(Vec<F>),
    Implies(Box<F>, Box<F>),
    Iff(Box<F>, Box<F>),
    Forall(u8, Box<F>), // var index
    Exists(u8, Box<F>),
}

fn f_strategy() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        Just(F::T),
        Just(F::Fa),
        (0u8..3, 0u8..4).prop_map(|(r, t)| F::P(r, t)),
        (0u8..4, 0u8..4).prop_map(|(a, b)| F::Eq(a, b)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(F::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(F::Or),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Iff(Box::new(a), Box::new(b))),
            (0u8..N_VARS as u8, inner.clone()).prop_map(|(v, f)| F::Forall(v, Box::new(f))),
            (0u8..N_VARS as u8, inner).prop_map(|(v, f)| F::Exists(v, Box::new(f))),
        ]
    })
}

/// Interpret the compact form; `bound` tracks which var indices are
/// in scope so the result is always closed (unbound var codes fall back
/// to atoms).
fn build(f: &F, rels: &[RelId; 3], bound: &mut BTreeSet<u8>) -> Formula {
    let term = |code: u8, bound: &BTreeSet<u8>| -> Term {
        let var_idx = code % N_VARS as u8;
        if code >= 2 && bound.contains(&var_idx) {
            Term::Var(VarId(var_idx as u32))
        } else {
            Term::Const(muppet_logic::AtomId((code % N_ATOMS as u8) as u32))
        }
    };
    match f {
        F::T => Formula::True,
        F::Fa => Formula::False,
        F::P(r, t) => {
            let rel = rels[(*r as usize) % 3];
            if rel == rels[2] {
                // binary structure relation
                Formula::pred(rel, [term(*t, bound), term(t.wrapping_add(1), bound)])
            } else {
                Formula::pred(rel, [term(*t, bound)])
            }
        }
        F::Eq(a, b) => Formula::Eq(term(*a, bound), term(*b, bound)),
        F::Not(g) => Formula::not(build(g, rels, bound)),
        F::And(gs) => Formula::and(gs.iter().map(|g| build(g, rels, bound)).collect::<Vec<_>>()),
        F::Or(gs) => Formula::or(gs.iter().map(|g| build(g, rels, bound)).collect::<Vec<_>>()),
        F::Implies(a, b) => Formula::implies(build(a, rels, bound), build(b, rels, bound)),
        F::Iff(a, b) => Formula::iff(build(a, rels, bound), build(b, rels, bound)),
        F::Forall(v, g) => {
            let vi = v % N_VARS as u8;
            let fresh = bound.insert(vi);
            let body = build(g, rels, bound);
            if fresh {
                bound.remove(&vi);
            }
            Formula::forall(VarId(vi as u32), SortId(0), body)
        }
        F::Exists(v, g) => {
            let vi = v % N_VARS as u8;
            let fresh = bound.insert(vi);
            let body = build(g, rels, bound);
            if fresh {
                bound.remove(&vi);
            }
            Formula::exists(VarId(vi as u32), SortId(0), body)
        }
    }
}

/// Instances over the fixture encoded as bitmasks: p ⊆ 2 atoms,
/// q ⊆ 2 atoms, e ⊆ 4 pairs → 8 bits.
fn instance_from_mask(mask: u8, rels: &[RelId; 3]) -> Instance {
    let mut inst = Instance::new();
    let a = |i: u32| muppet_logic::AtomId(i);
    for i in 0..2u32 {
        if mask & (1 << i) != 0 {
            inst.insert(rels[0], vec![a(i)]);
        }
        if mask & (1 << (i + 2)) != 0 {
            inst.insert(rels[1], vec![a(i)]);
        }
    }
    for (bit, (x, y)) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
        if mask & (1 << (bit + 4)) != 0 {
            inst.insert(rels[2], vec![a(*x), a(*y)]);
        }
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// simplify and nnf preserve truth on every instance.
    #[test]
    fn simplify_and_nnf_preserve_semantics(f in f_strategy(), mask in 0u8..=255) {
        let (u, _, rels) = fixture();
        let formula = build(&f, &rels, &mut BTreeSet::new());
        let inst = instance_from_mask(mask, &rels);
        let base = evaluate_closed(&formula, &inst, &u).unwrap();
        prop_assert_eq!(evaluate_closed(&simplify(&formula), &inst, &u).unwrap(), base);
        prop_assert_eq!(evaluate_closed(&nnf(&formula), &inst, &u).unwrap(), base);
        prop_assert_eq!(
            evaluate_closed(&simplify(&nnf(&formula)), &inst, &u).unwrap(),
            base
        );
    }

    /// simplify is idempotent.
    #[test]
    fn simplify_is_idempotent(f in f_strategy()) {
        let (_, _, rels) = fixture();
        let formula = build(&f, &rels, &mut BTreeSet::new());
        let once = simplify(&formula);
        prop_assert_eq!(simplify(&once), once);
    }

    /// decompose(f) conjunction ≡ f.
    #[test]
    fn decompose_preserves_conjunction(f in f_strategy(), mask in 0u8..=255) {
        let (u, _, rels) = fixture();
        let formula = build(&f, &rels, &mut BTreeSet::new());
        let inst = instance_from_mask(mask, &rels);
        let whole = evaluate_closed(&formula, &inst, &u).unwrap();
        let split = decompose(&formula)
            .iter()
            .all(|p| evaluate_closed(p, &inst, &u).unwrap());
        prop_assert_eq!(whole, split);
    }

    /// partial_eval over party 0's relations: for every completion of
    /// the remaining relations, the partially-evaluated formula agrees
    /// with the original over the union.
    #[test]
    fn partial_eval_is_semantic_substitution(f in f_strategy(), ca_mask in 0u8..=3, rest in 0u8..=63) {
        let (u, v, rels) = fixture();
        let formula = build(&f, &rels, &mut BTreeSet::new());
        let doms = BTreeSet::from([Domain::Party(PartyId(0))]);
        let c_a = instance_from_mask(ca_mask & 0b11, &rels); // only p bits
        let pe = partial_eval(&formula, &c_a, &doms, &v, &u);
        prop_assert!(!pe.mentions_domain(&v, Domain::Party(PartyId(0))));
        let c_rest = instance_from_mask(rest << 2, &rels); // q and e bits
        let combined = c_a.union(&c_rest);
        prop_assert_eq!(
            evaluate_closed(&formula, &combined, &u).unwrap(),
            evaluate_closed(&pe, &c_rest, &u).unwrap()
        );
    }

    /// Ground-and-solve agrees with direct evaluation: the formula is
    /// satisfiable over free relations (with given bounds fixed empty /
    /// full) iff some enumerated instance satisfies it.
    #[test]
    fn grounding_matches_bruteforce_satisfiability(f in f_strategy()) {
        let (u, v, rels) = fixture();
        let formula = build(&f, &rels, &mut BTreeSet::new());
        // All three relations free and unbounded.
        let mut q = IncrementalQuery::new(&v, &u, &rels, &PartialInstance::new(), Instance::new());
        let groups = [FormulaGroup::new("f", vec![formula.clone()])];
        let solver_sat = q.solve(&groups, Budget::unlimited()).unwrap().is_sat();
        let brute_sat = (0u16..256).any(|mask| {
            let inst = instance_from_mask(mask as u8, &rels);
            evaluate_closed(&formula, &inst, &u).unwrap()
        });
        prop_assert_eq!(solver_sat, brute_sat);
    }
}
