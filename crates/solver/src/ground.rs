//! Grounding: bounded FOL → negation-normal propositional structure.

use std::collections::BTreeMap;

use muppet_logic::{AtomId, Formula, Instance, Term, Universe, VarId};
use muppet_sat::{Budget, Lit};

use crate::varmap::{TupleState, VarMap};

/// A ground, negation-normal propositional expression. Negation exists
/// only on SAT literals (and is absorbed into them), which is what the
/// one-sided Tseitin encoding requires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GExpr {
    /// Constant.
    Const(bool),
    /// A SAT literal (tuple variable, possibly negated).
    Lit(Lit),
    /// Conjunction (empty = true).
    And(Vec<GExpr>),
    /// Disjunction (empty = false).
    Or(Vec<GExpr>),
}

impl GExpr {
    fn and(parts: Vec<GExpr>) -> GExpr {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                GExpr::Const(true) => {}
                GExpr::Const(false) => return GExpr::Const(false),
                GExpr::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => GExpr::Const(true),
            1 => out.pop().expect("len checked"),
            _ => GExpr::And(out),
        }
    }

    fn or(parts: Vec<GExpr>) -> GExpr {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                GExpr::Const(false) => {}
                GExpr::Const(true) => return GExpr::Const(true),
                GExpr::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => GExpr::Const(false),
            1 => out.pop().expect("len checked"),
            _ => GExpr::Or(out),
        }
    }

    /// Node count (testing/diagnostics).
    pub fn size(&self) -> usize {
        match self {
            GExpr::Const(_) | GExpr::Lit(_) => 1,
            GExpr::And(ps) | GExpr::Or(ps) => 1 + ps.iter().map(GExpr::size).sum::<usize>(),
        }
    }
}

/// Errors during grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundError {
    /// The formula has a free variable.
    UnboundVar(VarId),
    /// The budget fired before the formula was ground.
    Exhausted,
}

impl std::fmt::Display for GroundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroundError::UnboundVar(v) => write!(f, "unbound variable {v:?} while grounding"),
            GroundError::Exhausted => write!(f, "budget exhausted while grounding"),
        }
    }
}

impl std::error::Error for GroundError {}

/// How many formula nodes grounding visits between budget polls.
pub(crate) const POLL_EVERY: usize = 4096;

/// Ground a closed formula.
///
/// * Atoms over free relations (per `varmap`) become literals or pinned
///   constants.
/// * Atoms over all other relations are resolved against `fixed`
///   (closed-world: absent relation = empty).
/// * Quantifiers expand over the universe; `positive` tracks polarity so
///   the output is in negation normal form.
///
/// `budget` is polled every 4,096 visited nodes; when it fires
/// the result is [`GroundError::Exhausted`].
pub fn ground(
    formula: &Formula,
    varmap: &VarMap,
    fixed: &Instance,
    universe: &Universe,
    budget: &Budget,
) -> Result<GExpr, GroundError> {
    let mut g = Grounder {
        varmap,
        fixed,
        universe,
        budget,
        env: BTreeMap::new(),
        visited: 0,
    };
    g.go(formula, true)
}

/// The walk's inputs and state: the quantifier environment and the
/// node count that paces budget polls.
struct Grounder<'a> {
    varmap: &'a VarMap,
    fixed: &'a Instance,
    universe: &'a Universe,
    budget: &'a Budget,
    env: BTreeMap<VarId, AtomId>,
    visited: usize,
}

impl Grounder<'_> {
    fn resolve(&self, t: Term) -> Result<AtomId, GroundError> {
        match t {
            Term::Const(a) => Ok(a),
            Term::Var(v) => self.env.get(&v).copied().ok_or(GroundError::UnboundVar(v)),
        }
    }

    fn go(&mut self, f: &Formula, positive: bool) -> Result<GExpr, GroundError> {
        self.visited += 1;
        if self.visited.is_multiple_of(POLL_EVERY) && self.budget.poll().is_some() {
            return Err(GroundError::Exhausted);
        }
        Ok(match f {
            Formula::True => GExpr::Const(positive),
            Formula::False => GExpr::Const(!positive),
            Formula::Pred(rel, args) => {
                let mut tuple = Vec::with_capacity(args.len());
                for &t in args {
                    tuple.push(self.resolve(t)?);
                }
                let truth = match self.varmap.state(*rel, &tuple) {
                    Some(TupleState::True) => GExpr::Const(true),
                    Some(TupleState::False) => GExpr::Const(false),
                    Some(TupleState::Free(v)) => GExpr::Lit(Lit::pos(v)),
                    None => GExpr::Const(self.fixed.holds(*rel, &tuple)),
                };
                negate_if(truth, !positive)
            }
            Formula::Eq(a, b) => {
                let av = self.resolve(*a)?;
                let bv = self.resolve(*b)?;
                GExpr::Const((av == bv) == positive)
            }
            Formula::Not(g) => self.go(g, !positive)?,
            Formula::And(fs) => {
                let parts = fs
                    .iter()
                    .map(|g| self.go(g, positive))
                    .collect::<Result<Vec<_>, _>>()?;
                if positive {
                    GExpr::and(parts)
                } else {
                    GExpr::or(parts)
                }
            }
            Formula::Or(fs) => {
                let parts = fs
                    .iter()
                    .map(|g| self.go(g, positive))
                    .collect::<Result<Vec<_>, _>>()?;
                if positive {
                    GExpr::or(parts)
                } else {
                    GExpr::and(parts)
                }
            }
            Formula::Implies(a, b) => {
                // a ⇒ b ≡ ¬a ∨ b
                let na = self.go(a, !positive)?;
                let pb = self.go(b, positive)?;
                if positive {
                    GExpr::or(vec![na, pb])
                } else {
                    // ¬(a ⇒ b) ≡ a ∧ ¬b; note `na` above was grounded with
                    // polarity `!positive == true`, i.e. it is `a`; and `pb`
                    // with polarity false, i.e. `¬b`.
                    GExpr::and(vec![na, pb])
                }
            }
            Formula::Iff(a, b) => {
                // a ⇔ b ≡ (a ⇒ b) ∧ (b ⇒ a); under negation:
                // ¬(a ⇔ b) ≡ (a ∨ b) ∧ (¬a ∨ ¬b).
                let pa = self.go(a, true)?;
                let na = self.go(a, false)?;
                let pb = self.go(b, true)?;
                let nb = self.go(b, false)?;
                if positive {
                    GExpr::and(vec![
                        GExpr::or(vec![na.clone(), pb.clone()]),
                        GExpr::or(vec![nb, pa]),
                    ])
                } else {
                    GExpr::and(vec![GExpr::or(vec![pa, pb]), GExpr::or(vec![na, nb])])
                }
            }
            Formula::Forall(v, sort, body) | Formula::Exists(v, sort, body) => {
                let saved = self.env.get(v).copied();
                let mut parts = Vec::new();
                for &atom in self.universe.atoms_of(*sort) {
                    self.env.insert(*v, atom);
                    parts.push(self.go(body, positive)?);
                }
                match saved {
                    Some(a) => {
                        self.env.insert(*v, a);
                    }
                    None => {
                        self.env.remove(v);
                    }
                }
                // ∀ is a conjunction of its instances and ∃ a
                // disjunction; negative polarity swaps the two.
                if matches!(f, Formula::Forall(..)) == positive {
                    GExpr::and(parts)
                } else {
                    GExpr::or(parts)
                }
            }
        })
    }
}

fn negate_if(e: GExpr, negate: bool) -> GExpr {
    if !negate {
        return e;
    }
    match e {
        GExpr::Const(b) => GExpr::Const(!b),
        GExpr::Lit(l) => GExpr::Lit(!l),
        // Atoms only reach here, but stay total:
        GExpr::And(_) | GExpr::Or(_) => unreachable!("negate_if applied to non-atomic GExpr"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{Domain, PartialInstance, PartyId, Vocabulary};
    use muppet_sat::Solver;

    struct Fix {
        u: Universe,
        v: Vocabulary,
        s: muppet_logic::SortId,
        free: muppet_logic::RelId,
        fixed_rel: muppet_logic::RelId,
        atoms: Vec<AtomId>,
    }

    fn fix() -> Fix {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        let atoms = vec![u.add_atom(s, "a"), u.add_atom(s, "b")];
        let mut v = Vocabulary::new();
        let free = v.add_simple_rel("free", vec![s], Domain::Party(PartyId(0)));
        let fixed_rel = v.add_simple_rel("fixed", vec![s], Domain::Structure);
        Fix { u, v, s, free, fixed_rel, atoms }
    }

    fn varmap(f: &Fix) -> VarMap {
        let bounds = PartialInstance::new();
        VarMap::build(&f.v, &f.u, &[f.free], &bounds, &mut Solver::new(), &Budget::unlimited())
            .unwrap()
    }

    fn unlimited(
        g: &Formula,
        vm: &VarMap,
        fixed: &Instance,
        u: &Universe,
    ) -> Result<GExpr, GroundError> {
        ground(g, vm, fixed, u, &Budget::unlimited())
    }

    #[test]
    fn fixed_atoms_fold_to_constants() {
        let f = fix();
        let vm = varmap(&f);
        let mut fixed = Instance::new();
        fixed.insert(f.fixed_rel, vec![f.atoms[0]]);
        let g_true = Formula::pred(f.fixed_rel, [Term::Const(f.atoms[0])]);
        let g_false = Formula::pred(f.fixed_rel, [Term::Const(f.atoms[1])]);
        assert_eq!(unlimited(&g_true, &vm, &fixed, &f.u).unwrap(), GExpr::Const(true));
        assert_eq!(unlimited(&g_false, &vm, &fixed, &f.u).unwrap(), GExpr::Const(false));
        assert_eq!(
            unlimited(&Formula::not(g_true), &vm, &fixed, &f.u).unwrap(),
            GExpr::Const(false)
        );
    }

    #[test]
    fn free_atoms_become_literals_with_polarity() {
        let f = fix();
        let vm = varmap(&f);
        let fixed = Instance::new();
        let g = Formula::pred(f.free, [Term::Const(f.atoms[0])]);
        let pos = unlimited(&g, &vm, &fixed, &f.u).unwrap();
        let neg = unlimited(&Formula::not(g), &vm, &fixed, &f.u).unwrap();
        match (pos, neg) {
            (GExpr::Lit(p), GExpr::Lit(n)) => assert_eq!(!p, n),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantifiers_expand_with_nnf_polarity() {
        let mut f = fix();
        let vm = varmap(&f);
        let fixed = Instance::new();
        let x = f.v.fresh_var();
        // ¬∃x. free(x)  ≡  ∧_atoms ¬free(atom)
        let g = Formula::not(Formula::exists(
            x,
            f.s,
            Formula::pred(f.free, [Term::Var(x)]),
        ));
        match unlimited(&g, &vm, &fixed, &f.u).unwrap() {
            GExpr::And(parts) => {
                assert_eq!(parts.len(), 2);
                for p in parts {
                    assert!(matches!(p, GExpr::Lit(l) if !l.is_positive()));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn implies_and_iff_polarity() {
        let f = fix();
        let vm = varmap(&f);
        let fixed = Instance::new();
        let a = Formula::pred(f.free, [Term::Const(f.atoms[0])]);
        let b = Formula::pred(f.free, [Term::Const(f.atoms[1])]);
        // a ⇒ a is a tautology only semantically; structurally it's
        // (¬a ∨ a) which the or-builder doesn't collapse — check the
        // constant-folding cases instead.
        let g = Formula::implies(Formula::False, a.clone());
        assert_eq!(unlimited(&g, &vm, &fixed, &f.u).unwrap(), GExpr::Const(true));
        let g = Formula::not(Formula::implies(a.clone(), Formula::False));
        // ¬(a ⇒ ⊥) ≡ a
        assert!(matches!(
            unlimited(&g, &vm, &fixed, &f.u).unwrap(),
            GExpr::Lit(l) if l.is_positive()
        ));
        let g = Formula::iff(a, b);
        match unlimited(&g, &vm, &fixed, &f.u).unwrap() {
            GExpr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_folds() {
        let f = fix();
        let vm = varmap(&f);
        let fixed = Instance::new();
        let eq = Formula::Eq(Term::Const(f.atoms[0]), Term::Const(f.atoms[0]));
        let ne = Formula::Eq(Term::Const(f.atoms[0]), Term::Const(f.atoms[1]));
        assert_eq!(unlimited(&eq, &vm, &fixed, &f.u).unwrap(), GExpr::Const(true));
        assert_eq!(unlimited(&ne, &vm, &fixed, &f.u).unwrap(), GExpr::Const(false));
    }

    /// The walk polls the budget as it goes: an expired one stops a
    /// formula of more than `POLL_EVERY` nodes.
    #[test]
    fn expired_budget_stops_grounding() {
        let mut u = Universe::new();
        let s = u.add_sort("S");
        for i in 0..20 {
            u.add_atom(s, format!("a{i}"));
        }
        let mut v = Vocabulary::new();
        let r = v.add_simple_rel("r", vec![s, s, s], Domain::Structure);
        let [x, y, z] = [(); 3].map(|_| v.fresh_var());
        let body = Formula::pred(r, [x, y, z].map(Term::Var));
        let g = Formula::forall(x, s, Formula::forall(y, s, Formula::exists(z, s, body)));
        let bounds = PartialInstance::new();
        let vm = VarMap::build(&v, &u, &[], &bounds, &mut Solver::new(), &Budget::unlimited())
            .unwrap();
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        let fixed = Instance::new();
        assert_eq!(ground(&g, &vm, &fixed, &u, &expired), Err(GroundError::Exhausted));
        assert_eq!(unlimited(&g, &vm, &fixed, &u), Ok(GExpr::Const(false)));
    }

    #[test]
    fn open_formula_is_an_error() {
        let mut f = fix();
        let vm = varmap(&f);
        let x = f.v.fresh_var();
        let g = Formula::pred(f.free, [Term::Var(x)]);
        assert_eq!(
            unlimited(&g, &vm, &Instance::new(), &f.u),
            Err(GroundError::UnboundVar(x))
        );
    }
}
