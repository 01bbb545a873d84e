//! The traditional single-party synthesis baseline (Fig. 6).
//!
//! "Traditional approaches to configuration synthesis would configure
//! the two systems independently, which is unhelpful in this context
//! because the problem lies in their interaction. … existing monolithic
//! synthesis approaches fail to resolve these conflicts, as the union of
//! the two property sets is unsatisfiable" (Secs. 2–3). This module
//! implements that baseline for experiment E5: one synthesis query over
//! the union of all goals, with **no** per-goal groups, no envelopes and
//! no blame — on conflict it can only say "fail".

use muppet_logic::{Domain, Instance, PartyId};
use muppet_solver::{FormulaGroup, Outcome};
use std::collections::BTreeMap;

use crate::party::Party;
use crate::session::{MuppetError, ReconcileMode, Session};

/// The baseline's (information-poor) answer.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Did monolithic synthesis find a configuration?
    pub success: bool,
    /// The per-party configurations on success.
    pub configs: BTreeMap<PartyId, Instance>,
    /// Solver conflicts spent (for the E5 cost comparison).
    pub conflicts: u64,
}

/// Run monolithic synthesis: all goals as one opaque property set.
///
/// Offers enter as hard bounds (the baseline has no notion of blameable
/// commitments). On failure there is deliberately no core — that is the
/// point of the comparison.
pub fn monolithic_synthesis(session: &mut Session<'_>) -> Result<BaselineReport, MuppetError> {
    // The baseline differs from reconciliation only in lumping every
    // goal into one opaque unnamed-blame group; it solves through the
    // same session loop (free relations, structure, axiom group and
    // solver settings included) so solver defaults cannot drift.
    let refs: Vec<&Party> = session.parties().iter().collect();
    let (bounds, _commitments) = session.merge_offers(&refs, ReconcileMode::HardBounds);
    let mut formulas = Vec::new();
    for p in session.parties() {
        for g in &p.goals {
            formulas.push(g.formula.clone());
        }
    }
    let groups = [
        session.axiom_group(),
        FormulaGroup::new("all goals (monolithic)", formulas),
    ];
    let (outcome, _attempts) = session.solve(&bounds, &groups)?;
    match outcome {
        Outcome::Sat { solution, stats } => {
            let configs = session
                .parties()
                .iter()
                .map(|p| {
                    (
                        p.id,
                        solution.restrict_to_domain(session.vocab(), Domain::Party(p.id)),
                    )
                })
                .collect();
            Ok(BaselineReport {
                success: true,
                configs,
                conflicts: stats.conflicts,
            })
        }
        Outcome::Unsat { stats, .. } => Ok(BaselineReport {
            success: false,
            configs: BTreeMap::new(),
            conflicts: stats.conflicts,
        }),
        // The baseline has no degradation story — that is the point of
        // the comparison — so exhaustion is a hard error.
        Outcome::Unknown { phase, stats, .. } => {
            Err(MuppetError::Exhausted { phase, stats })
        }
    }
}

/// Convenience for E5: does the baseline agree with Muppet's
/// reconciliation verdict? (It must — both decide the same SAT
/// question; only the *information content* of failures differs.)
pub fn verdicts_agree(session: &mut Session<'_>) -> Result<bool, MuppetError> {
    let baseline = monolithic_synthesis(session)?;
    let muppet = session.reconcile(ReconcileMode::HardBounds)?;
    Ok(baseline.success == muppet.success)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{NamedGoal, Party};
    use muppet_goals::{fig2, translate_istio_goals, translate_k8s_goals, IstioGoal};
    use muppet_mesh::MeshVocab;

    fn session<'a>(mv: &'a MeshVocab, rows: &[IstioGoal]) -> Session<'a> {
        let mut vocab = mv.vocab.clone();
        let k8s_goals = translate_k8s_goals(&fig2(), mv, &mut vocab).unwrap();
        let istio_goals = translate_istio_goals(rows, mv, &mut vocab).unwrap();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let mut s = Session::new(&mv.universe, vocab, Instance::new());
        s.add_axioms(axioms);
        s.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        s.add_party(
            Party::new(mv.istio_party, "istio-admin")
                .with_goals(istio_goals.into_iter().map(NamedGoal::from)),
        );
        s
    }

    #[test]
    fn baseline_fails_opaquely_on_the_paper_conflict() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        let report = monolithic_synthesis(&mut s).unwrap();
        assert!(!report.success);
        assert!(report.configs.is_empty());
        // Muppet, on the same instance, localizes the conflict.
        let rec = s.reconcile(crate::session::ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success);
        assert_eq!(rec.core.len(), 2);
        assert!(verdicts_agree(&mut s).unwrap());
    }

    #[test]
    fn baseline_succeeds_when_goals_are_compatible() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig4());
        let report = monolithic_synthesis(&mut s).unwrap();
        assert!(report.success);
        let mut combined = s.structure().clone();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in s.check_goals(&combined) {
            assert!(holds, "{name}");
        }
        assert!(verdicts_agree(&mut s).unwrap());
    }
}
