//! The paper's fixed walkthrough instances (Figs. 1–4) and the
//! relational pigeonhole family, packaged for benches, the harness and
//! the examples. One definition — every lane that used to hand-build
//! these fixtures (E1/E2/E5, the incremental lane, the S1 corpus)
//! consumes them from here, byte-identically.

use muppet::Session;
use muppet_goals::{fig2, IstioGoal};
use muppet_logic::{Domain, Formula, PartyId, RelId, Term, Universe, Vocabulary};
use muppet_mesh::MeshVocab;

/// Which Istio goal table to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IstioTable {
    /// Fig. 3: strict concrete ports (conflicts with the Fig. 2 ban).
    Fig3,
    /// Fig. 4: relaxed, with existential port variables.
    Fig4,
}

/// The Fig. 1 mesh vocabulary (3 services, the 8 paper ports).
pub fn vocab() -> MeshVocab {
    MeshVocab::paper_example()
}

/// Build the paper's two-party session over a given vocabulary: the
/// Fig. 2 ban against the chosen Istio table.
pub fn session(mv: &MeshVocab, table: IstioTable) -> Session<'_> {
    let rows = match table {
        IstioTable::Fig3 => IstioGoal::fig3(),
        IstioTable::Fig4 => IstioGoal::fig4(),
    };
    muppet_domain::mesh::session(mv, &fig2(), &rows, None).expect("paper goals translate")
}

/// The relational pigeonhole principle PHP(`pigeons`, `holes`): every
/// pigeon sits in a hole, no hole holds two pigeons. Unsatisfiable iff
/// `pigeons > holes`, with a fully symmetric search space that no
/// Muppet workflow produces; the corpus keeps it as an UNSAT verdict
/// gate for the relational pipeline. Returns the universe,
/// vocabulary, the free `sits` relation and the two axioms.
pub fn php_relational(
    pigeons: usize,
    holes: usize,
) -> (Universe, Vocabulary, RelId, Vec<Formula>) {
    let mut u = Universe::new();
    let ps = u.add_sort("P");
    let hs = u.add_sort("H");
    for i in 0..pigeons {
        u.add_atom(ps, format!("p{i}"));
    }
    for i in 0..holes {
        u.add_atom(hs, format!("h{i}"));
    }
    let mut v = Vocabulary::new();
    let sits = v.add_simple_rel("sits", vec![ps, hs], Domain::Party(PartyId(0)));
    let p = v.fresh_var();
    let p2 = v.fresh_var();
    let h = v.fresh_var();
    let formulas = vec![
        Formula::forall(
            p,
            ps,
            Formula::exists(h, hs, Formula::pred(sits, [Term::Var(p), Term::Var(h)])),
        ),
        Formula::forall(
            h,
            hs,
            Formula::forall(
                p,
                ps,
                Formula::forall(
                    p2,
                    ps,
                    Formula::implies(
                        Formula::and([
                            Formula::pred(sits, [Term::Var(p), Term::Var(h)]),
                            Formula::pred(sits, [Term::Var(p2), Term::Var(h)]),
                        ]),
                        Formula::Eq(Term::Var(p), Term::Var(p2)),
                    ),
                ),
            ),
        ),
    ];
    (u, v, sits, formulas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet::ReconcileMode;
    use muppet_logic::{Instance, PartialInstance};
    use muppet_solver::{Budget, FormulaGroup, IncrementalQuery, Outcome};

    #[test]
    fn fig3_conflicts_fig4_reconciles() {
        let mv = vocab();
        let mut s3 = session(&mv, IstioTable::Fig3);
        assert!(!s3.reconcile(ReconcileMode::HardBounds).unwrap().success);
        let mut s4 = session(&mv, IstioTable::Fig4);
        assert!(s4.reconcile(ReconcileMode::HardBounds).unwrap().success);
    }

    #[test]
    fn php_relational_verdicts() {
        for (pigeons, holes, sat) in [(4usize, 3usize, false), (3, 3, true)] {
            let (u, v, sits, formulas) = php_relational(pigeons, holes);
            let mut q =
                IncrementalQuery::new(&v, &u, &[sits], &PartialInstance::new(), Instance::new());
            let groups = [FormulaGroup::new("php", formulas)];
            match q.solve(&groups, Budget::unlimited()).unwrap() {
                Outcome::Sat { .. } => assert!(sat, "PHP({pigeons},{holes}) must be unsat"),
                Outcome::Unsat { .. } => assert!(!sat, "PHP({pigeons},{holes}) must be sat"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
