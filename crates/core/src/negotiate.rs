//! The solver-aided negotiation workflow (Fig. 9).
//!
//! "Suppose A is now willing to negotiate over its initial configuration
//! (and perhaps even its goals). … all parties register their partial
//! configurations and properties in advance; and each administrator gets
//! a turn to revise in a round-robin fashion." The solver mediates:
//! after each failed reconciliation, the party whose turn it is receives
//! *feedback* — the blame core plus an envelope from the other parties —
//! and may revise its offer or goals. "We opted for a round-robin
//! approach … to avoid forcing administrators to accommodate a
//! potentially moving target."
//!
//! Revision behaviour is pluggable via [`Negotiator`]; the crate ships
//! simple strategies used by the experiments, and [`FnNegotiator`] wraps
//! arbitrary closures for scripted episodes.

use std::collections::BTreeMap;

use muppet_logic::{Instance, PartyId};
use muppet_solver::Phase;

use crate::envelope::Envelope;
use crate::party::Party;
use crate::session::{MuppetError, ReconcileMode, Session};

/// The feedback a party receives on its revision turn.
#[derive(Clone, Debug)]
pub struct Feedback {
    /// Minimal blame from the failed reconciliation.
    pub core: Vec<String>,
    /// The envelope from all *other* parties (their goals, modulo their
    /// locally-consistent witness configurations) to this party.
    pub envelope: Envelope,
    /// The mediator's *counter-offer*: the minimal edit of the party's
    /// committed settings that satisfies the received envelope, when one
    /// exists. This is the target-oriented presentation mode of Sec. 7:
    /// "the resulting system would not outright reject goals or
    /// configurations, but rather return a minimally-edited
    /// 'counter-offer'". Paired with the edit distance.
    pub counter_offer: Option<(Instance, usize)>,
    /// The current negotiation round (0-based).
    pub round: usize,
}

/// A revision strategy: given the party's state and the solver's
/// feedback, mutate the party (offer and/or goals). Return `true` if
/// anything changed — a full cycle of unchanged parties ends the
/// negotiation as stuck.
pub trait Negotiator {
    /// Revise `party` in place.
    fn revise(&mut self, party: &mut Party, feedback: &Feedback) -> bool;
}

/// Never revises anything (a maximally stubborn administrator).
#[derive(Debug, Default)]
pub struct Stubborn;

impl Negotiator for Stubborn {
    fn revise(&mut self, _party: &mut Party, _feedback: &Feedback) -> bool {
        false
    }
}

/// Drops the party's *soft* goals that the blame core names (one per
/// turn, most recently added first). Hard goals are never dropped —
/// "some compromise or weakening of goals is necessary to move forward"
/// (Sec. 2), but only where the administrator marked flexibility.
#[derive(Debug, Default)]
pub struct DropBlamedSoftGoals;

impl Negotiator for DropBlamedSoftGoals {
    fn revise(&mut self, party: &mut Party, feedback: &Feedback) -> bool {
        let blamed: Vec<usize> = party
            .goals
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                !g.hard && feedback.core.iter().any(|c| c.contains(&g.name))
            })
            .map(|(i, _)| i)
            .collect();
        match blamed.last() {
            Some(&i) => {
                party.goals.remove(i);
                true
            }
            None => false,
        }
    }
}

/// Softens the party's blamed *committed settings*: when the blame core
/// names this party's commitments, one hard (lower-bound) tuple is
/// downgraded to soft (upper-bound only) per turn — the Sec. 4.1
/// revision of "widening the negotiable region of their partial
/// configuration" without touching any goal.
#[derive(Debug, Default)]
pub struct SoftenBlamedCommitments;

impl Negotiator for SoftenBlamedCommitments {
    fn revise(&mut self, party: &mut Party, feedback: &Feedback) -> bool {
        let blamed = feedback
            .core
            .iter()
            .any(|c| c.contains(&party.name) && c.contains("committed settings"));
        if !blamed {
            return false;
        }
        // Rebuild the offer with one fewer required tuple (the first, in
        // deterministic order); everything stays permitted.
        let old = party.offer.clone();
        let mut softened = muppet_logic::PartialInstance::new();
        let mut dropped = false;
        for rel in old.bounded_rels() {
            softened.bound(rel);
            for t in old.upper(rel) {
                softened.permit(rel, t.clone());
            }
            for t in old.lower(rel) {
                if !dropped {
                    dropped = true; // downgrade this one to soft
                    continue;
                }
                softened.require(rel, t.clone());
            }
        }
        if dropped {
            party.offer = softened;
        }
        dropped
    }
}

/// Adopts the mediator's minimally-edited counter-offer as the party's
/// new committed configuration (hard settings), leaving goals untouched.
/// A party using this strategy converges whenever its *goals* are not
/// themselves part of the conflict.
#[derive(Debug, Default)]
pub struct AcceptCounterOffer;

impl Negotiator for AcceptCounterOffer {
    fn revise(&mut self, party: &mut Party, feedback: &Feedback) -> bool {
        let Some((offer, _distance)) = &feedback.counter_offer else {
            return false;
        };
        // Adopt the counter-offer exactly: require its tuples, permit
        // nothing extra (the mediator already verified it against the
        // envelope).
        let mut new_offer = muppet_logic::PartialInstance::new();
        for rel in party.offer.bounded_rels() {
            new_offer.bound(rel);
        }
        for (rel, tuple) in offer.all_tuples() {
            new_offer.require(rel, tuple);
        }
        if new_offer != party.offer {
            party.offer = new_offer;
            true
        } else {
            false
        }
    }
}

/// Wraps a closure as a [`Negotiator`] — handy for scripted episodes in
/// tests and examples (e.g. "on round 2, swap in the Fig. 4 goals").
pub struct FnNegotiator<F: FnMut(&mut Party, &Feedback) -> bool>(pub F);

impl<F: FnMut(&mut Party, &Feedback) -> bool> Negotiator for FnNegotiator<F> {
    fn revise(&mut self, party: &mut Party, feedback: &Feedback) -> bool {
        (self.0)(party, feedback)
    }
}

fn feedback_names_commitments(core: &[String], party_name: &str) -> bool {
    core.iter()
        .any(|c| c.contains(party_name) && c.contains("committed settings"))
}

/// Who gets revision turns, and in what order. The paper's Fig. 9 is
/// [`Schedule::RoundRobin`]; a hub-and-spoke deployment (one fixed
/// provider, N tenants revising around it) is the degenerate case where
/// the hub never takes a turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Every party takes turns in registration order ("each
    /// administrator gets a turn to revise in a round-robin fashion").
    RoundRobin,
    /// The named hub never revises; the remaining parties (spokes)
    /// round-robin among themselves. Equivalent to `RoundRobin` with a
    /// [`Stubborn`] hub, except the hub's turns are not burned from
    /// `max_rounds` and a stuck verdict needs only a full *spoke* cycle.
    HubAndSpoke(PartyId),
}

impl Schedule {
    /// The cyclic turn order over the session's parties.
    fn turn_cycle(&self, party_ids: &[PartyId]) -> Vec<PartyId> {
        match self {
            Schedule::RoundRobin => party_ids.to_vec(),
            Schedule::HubAndSpoke(hub) => {
                let spokes: Vec<PartyId> =
                    party_ids.iter().copied().filter(|p| p != hub).collect();
                // A hub that isn't registered (or is the only party)
                // degrades to round-robin rather than an empty cycle.
                if spokes.is_empty() || spokes.len() == party_ids.len() {
                    party_ids.to_vec()
                } else {
                    spokes
                }
            }
        }
    }
}

/// The outcome of a negotiation.
#[derive(Clone, Debug)]
pub struct NegotiationReport {
    /// Did the parties converge on a joint configuration?
    pub success: bool,
    /// Reconciliation attempts made (1 = agreed immediately).
    pub rounds: usize,
    /// Delivered per-party configurations on success.
    pub configs: BTreeMap<PartyId, Instance>,
    /// Step-by-step log (who revised, what was blamed).
    pub trace: Vec<String>,
    /// Where the first step that ran out of budget stopped: a round's
    /// reconciliation, a sender's consistency check or a counter-offer.
    /// The outcome then depends on the budget and is no verdict.
    pub exhausted: Option<Phase>,
}

/// Run the Fig. 9 negotiation under a [`Schedule`] (the paper's is
/// [`Schedule::RoundRobin`]).
///
/// Each round attempts reconciliation (Alg. 2, blameable mode). On
/// failure, the party whose turn it is receives [`Feedback`] (core +
/// multi-source envelope from everyone else) and its [`Negotiator`]
/// revises it. Negotiation ends on success, after `max_rounds`, or when
/// a full cycle passes with no party changing anything.
///
/// The whole negotiation runs on the session's warm engines: round `n`
/// starts from round `n-1`'s solver state, and a counter-offer is a
/// group swap plus assumption flips rather than a recompilation.
/// Answers are byte-identical to the same negotiation on a fresh
/// session by the engine's canonicalization contract.
pub fn run_negotiation(
    session: &mut Session<'_>,
    negotiators: &mut BTreeMap<PartyId, Box<dyn Negotiator>>,
    max_rounds: usize,
    schedule: Schedule,
) -> Result<NegotiationReport, MuppetError> {
    let mut trace = Vec::new();
    let party_ids: Vec<PartyId> = session.parties().iter().map(|p| p.id).collect();
    let turn_cycle = schedule.turn_cycle(&party_ids);
    let names = session.party_names();
    let mut unchanged_streak = 0usize;
    let mut exhausted = None;

    for round in 0..max_rounds {
        let rec = session.reconcile(ReconcileMode::Blameable)?;
        if let Some(ex) = &rec.exhausted {
            exhausted.get_or_insert(ex.phase);
        }
        if rec.success {
            trace.push(format!("round {}: reconciliation succeeded", round + 1));
            return Ok(NegotiationReport {
                success: true,
                rounds: round + 1,
                configs: rec.configs,
                trace,
                exhausted,
            });
        }
        let turn = turn_cycle[round % turn_cycle.len()];
        let turn_name = names.get(&turn).cloned().unwrap_or_default();
        if let Some(ex) = &rec.exhausted {
            // A timed-out round degrades instead of aborting the whole
            // negotiation: the revising party still gets whatever
            // partial blame the solver salvaged.
            trace.push(format!(
                "round {}: {ex}; continuing with partial feedback; {} revises",
                round + 1,
                turn_name
            ));
        } else {
            trace.push(format!(
                "round {}: conflict {:?}; {} revises",
                round + 1,
                rec.core,
                turn_name
            ));
        }

        // Envelope from everyone else to the revising party, using each
        // sender's locally-consistent witness as its fixed configuration
        // (an inconsistent sender contributes an empty configuration —
        // its goals still shape the envelope).
        let mut senders = Vec::new();
        for &other in party_ids.iter().filter(|&&p| p != turn) {
            let lc = session.local_consistency(other)?;
            if let Some(ex) = &lc.exhausted {
                exhausted.get_or_insert(ex.phase);
            }
            senders.push((other, lc.witness.unwrap_or_default()));
        }
        let envelope = session.compute_multi_envelope(&senders, turn)?;
        // Mediator counter-offer: the minimal edit of the party's
        // committed settings that satisfies the envelope. A counter-offer
        // revises *commitments*, so it is only computed (the MaxSAT query
        // is not free) when the blame core actually names this party's
        // committed settings.
        let commitments_blamed = feedback_names_commitments(&rec.core, &turn_name);
        let counter_offer = if commitments_blamed {
            let committed = {
                let party = session.party(turn)?;
                let mut inst = Instance::new();
                for rel in party.offer.bounded_rels() {
                    for t in party.offer.lower(rel) {
                        inst.insert(rel, t.clone());
                    }
                }
                inst
            };
            let counter = session.counter_offer(turn, &envelope, &committed)?;
            if let Some(phase) = counter.exhausted {
                exhausted.get_or_insert(phase);
            }
            counter.offer
        } else {
            None
        };
        let feedback = Feedback {
            core: rec.core,
            envelope,
            counter_offer,
            round,
        };
        let negotiator = negotiators
            .get_mut(&turn)
            .ok_or(MuppetError::UnknownParty(turn))?;
        let changed = negotiator.revise(session.party_mut(turn)?, &feedback);
        if changed {
            unchanged_streak = 0;
            trace.push(format!("  {} changed its offer/goals", turn_name));
        } else {
            unchanged_streak += 1;
            trace.push(format!("  {} stood firm", turn_name));
            if unchanged_streak >= turn_cycle.len() {
                trace.push("negotiation stuck: a full cycle with no revisions".to_string());
                return Ok(NegotiationReport {
                    success: false,
                    rounds: round + 1,
                    configs: BTreeMap::new(),
                    trace,
                    exhausted,
                });
            }
        }
    }
    trace.push(format!("negotiation exhausted {max_rounds} rounds"));
    Ok(NegotiationReport {
        success: false,
        rounds: max_rounds,
        configs: BTreeMap::new(),
        trace,
        exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::NamedGoal;
    use muppet_goals::{fig2, translate_istio_goals, translate_k8s_goals, IstioGoal};
    use muppet_mesh::MeshVocab;

    fn session<'a>(mv: &'a MeshVocab, istio_rows: &[IstioGoal], soft_istio: bool) -> Session<'a> {
        let mut vocab = mv.vocab.clone();
        let k8s_goals = translate_k8s_goals(&fig2(), mv, &mut vocab).unwrap();
        let istio_goals = translate_istio_goals(istio_rows, mv, &mut vocab).unwrap();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let mut s = Session::new(&mv.universe, vocab, Instance::new());
        s.add_axioms(axioms);
        s.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        s.add_party(Party::new(mv.istio_party, "istio-admin").with_goals(
            istio_goals.into_iter().map(|g| {
                let mut g = NamedGoal::from(g);
                if soft_istio {
                    g.hard = false;
                }
                g
            }),
        ));
        s
    }

    #[test]
    fn stubborn_parties_get_stuck() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3(), false);
        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        negs.insert(mv.istio_party, Box::new(Stubborn));
        let report = run_negotiation(&mut s, &mut negs, 10, Schedule::RoundRobin).unwrap();
        assert!(!report.success);
        assert!(report.trace.iter().any(|t| t.contains("stuck")));
        assert!(report.rounds <= 3);
    }

    #[test]
    fn dropping_soft_goals_converges() {
        // Istio goals are soft: the conflicting row 2 gets dropped and
        // negotiation converges.
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3(), true);
        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        negs.insert(mv.istio_party, Box::new(DropBlamedSoftGoals));
        let report = run_negotiation(&mut s, &mut negs, 10, Schedule::RoundRobin).unwrap();
        assert!(report.success, "trace: {:#?}", report.trace);
        // The istio admin ends with 3 goals (row 2 dropped).
        assert_eq!(s.party(mv.istio_party).unwrap().goals.len(), 3);
        // Delivered configs satisfy the remaining goals.
        let mut combined = s.structure().clone();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in s.check_goals(&combined) {
            assert!(holds, "{name}");
        }
    }

    #[test]
    fn scripted_relaxation_via_fn_negotiator() {
        // The istio admin swaps the strict Fig. 3 row 2 for the relaxed
        // "reach the frontend on some port ∃z" goal when blamed —
        // mirroring the Sec. 3 narrative. Re-exposure on a spare port is
        // possible because port exposure is in the Istio domain.
        let mv = MeshVocab::paper_example();
        let s = session(&mv, &IstioGoal::fig3(), false);
        // Pre-translate the relaxed replacement goal (row 2 of Fig. 4).
        let mut vocab = mv.vocab.clone();
        let relaxed = translate_istio_goals(
            &IstioGoal::parse_csv("test-backend,test-frontend,?y,?z\n").unwrap(),
            &mv,
            &mut vocab,
        )
        .unwrap();
        // The session must know the fresh variables: rebuild it with the
        // extended vocabulary.
        let k8s_goals = translate_k8s_goals(&fig2(), &mv, &mut vocab).unwrap();
        let strict = translate_istio_goals(&IstioGoal::fig3(), &mv, &mut vocab).unwrap();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let mut s2 = Session::new(&mv.universe, vocab, Instance::new());
        s2.add_axioms(axioms);
        s2.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        s2.add_party(
            Party::new(mv.istio_party, "istio-admin")
                .with_goals(strict.into_iter().map(NamedGoal::from)),
        );
        drop(s);

        let relaxed_goal = NamedGoal::from(relaxed.into_iter().next().unwrap());
        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        let mut replacement = Some(relaxed_goal);
        negs.insert(
            mv.istio_party,
            Box::new(FnNegotiator(move |party: &mut Party, feedback: &Feedback| {
                let Some(idx) = party
                    .goals
                    .iter()
                    .position(|g| feedback.core.iter().any(|c| c.contains(&g.name)))
                else {
                    return false;
                };
                match replacement.take() {
                    Some(r) => {
                        party.goals[idx] = r;
                        true
                    }
                    None => false,
                }
            })),
        );
        let report = run_negotiation(&mut s2, &mut negs, 10, Schedule::RoundRobin).unwrap();
        assert!(report.success, "trace: {:#?}", report.trace);
        let mut combined = s2.structure().clone();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in s2.check_goals(&combined) {
            assert!(holds, "{name}");
        }
    }

    #[test]
    fn softening_commitments_converges() {
        // The K8s admin has no conflicting *goal*; instead it has
        // hard-committed the deny tuple that breaks istio goal 2. A
        // SoftenBlamedCommitments negotiator turns the commitment soft
        // when blamed, and reconciliation then succeeds by simply not
        // using the tuple.
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3(), false);
        let k8s_id = mv.k8s_party;
        s.party_mut(k8s_id).unwrap().goals.clear();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        let mut offer = muppet_logic::PartialInstance::new();
        offer.require(mv.k8s_in_deny, vec![fe, be, p23]);
        s.party_mut(k8s_id).unwrap().offer = offer;

        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(k8s_id, Box::new(SoftenBlamedCommitments));
        negs.insert(mv.istio_party, Box::new(Stubborn));
        let report = run_negotiation(&mut s, &mut negs, 10, Schedule::RoundRobin).unwrap();
        assert!(report.success, "trace: {:#?}", report.trace);
        // The offer no longer *requires* the tuple…
        let offer = &s.party(k8s_id).unwrap().offer;
        assert!(!offer.is_required(mv.k8s_in_deny, &[fe, be, p23]));
        // …but still permits it (soft, not deleted).
        assert!(offer.is_allowed(mv.k8s_in_deny, &[fe, be, p23]));
        // And the delivered K8s config does not use it.
        assert!(!report.configs[&k8s_id].holds(mv.k8s_in_deny, &[fe, be, p23]));
    }

    #[test]
    fn softening_does_nothing_when_not_blamed() {
        let mv = MeshVocab::paper_example();
        let mut party = crate::party::Party::new(mv.k8s_party, "k8s-admin");
        let fe = mv.svc_atom("test-frontend").unwrap();
        let mut offer = muppet_logic::PartialInstance::new();
        offer.require(mv.k8s_in_guard, vec![fe]);
        party.offer = offer.clone();
        let fb = Feedback {
            core: vec!["istio-admin: some goal".into()],
            envelope: crate::envelope::Envelope {
                from: vec![mv.istio_party],
                to: mv.k8s_party,
                predicates: vec![],
                impossible: vec![],
                residual_violations: vec![],
                self_satisfied: vec![],
            },
            counter_offer: None,
            round: 0,
        };
        let mut n = SoftenBlamedCommitments;
        assert!(!n.revise(&mut party, &fb));
        assert_eq!(party.offer, offer);
    }

    #[test]
    fn accepting_the_mediators_counter_offer_converges() {
        // The K8s admin *requires* backend:25 to stay reachable (an
        // ALLOW goal it cannot enforce alone), while the Istio admin has
        // hard-committed an egress lockdown on the frontend and fixed
        // every other Istio setting. The commitments break the goal; the
        // mediator's counter-offer is the minimal edit of them that
        // satisfies E_{K8s→Istio}, and adopting it converges.
        let mv = MeshVocab::paper_example();
        let mut vocab = mv.vocab.clone();
        let k8s_goals = muppet_goals::translate_k8s_goals(
            &muppet_goals::K8sGoal::parse_csv("25,ALLOW,test-backend\n").unwrap(),
            &mv,
            &mut vocab,
        )
        .unwrap();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let mut s = Session::new(&mv.universe, vocab, Instance::new());
        s.add_axioms(axioms);
        s.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        s.add_party(Party::new(mv.istio_party, "istio-admin"));
        let istio_id = mv.istio_party;
        // Commit the whole Istio side: deployment as-is, an egress
        // lockdown on the frontend, everything else fixed empty.
        let fe = mv.svc_atom("test-frontend").unwrap();
        let mut offer = muppet_logic::PartialInstance::new();
        offer.fix_from(mv.listens, &mv.structure_instance());
        offer.require(mv.istio_eg_guard, vec![fe]);
        for rel in mv.istio_rels() {
            offer.bound(rel); // everything not required is pinned empty
        }
        let committed_before: usize = offer
            .bounded_rels()
            .map(|r| offer.lower(r).count())
            .sum();
        s.party_mut(istio_id).unwrap().offer = offer;

        // Sanity: the commitments really do conflict with the goal.
        let rec = s.reconcile(crate::ReconcileMode::Blameable).unwrap();
        assert!(!rec.success);
        assert!(rec
            .core
            .iter()
            .any(|c| c.contains("istio-admin: committed settings")));

        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        negs.insert(istio_id, Box::new(AcceptCounterOffer));
        let report = run_negotiation(&mut s, &mut negs, 10, Schedule::RoundRobin).unwrap();
        assert!(report.success, "trace: {:#?}", report.trace);
        // The adopted commitments are one edit away from the originals.
        let new_offer = &s.party(istio_id).unwrap().offer;
        let committed_after: usize = new_offer
            .bounded_rels()
            .map(|r| new_offer.lower(r).count())
            .sum();
        assert!(
            committed_after.abs_diff(committed_before) == 1,
            "one-tuple edit expected: {committed_before} → {committed_after}"
        );
        let mut combined = Instance::new();
        for c in report.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in s.check_goals(&combined) {
            assert!(holds, "{name}");
        }
    }

    #[test]
    fn counter_offer_is_present_in_feedback() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3(), false);
        let seen: std::rc::Rc<std::cell::RefCell<Vec<Option<usize>>>> =
            std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        negs.insert(
            mv.istio_party,
            Box::new(FnNegotiator(move |_p: &mut Party, fb: &Feedback| {
                seen2
                    .borrow_mut()
                    .push(fb.counter_offer.as_ref().map(|(_, d)| *d));
                false
            })),
        );
        let _ = run_negotiation(&mut s, &mut negs, 6, Schedule::RoundRobin).unwrap();
        let seen = seen.borrow();
        assert!(!seen.is_empty());
        // The istio admin committed nothing, so its commitments are never
        // blamed and the mediator skips the (costly) counter-offer query.
        assert_eq!(seen[0], None);
    }

    #[test]
    fn feedback_contains_envelope_from_other_party() {
        let mv = MeshVocab::paper_example();
        let s = session(&mv, &IstioGoal::fig3(), false);
        let mut s = s;
        let mut negs: BTreeMap<PartyId, Box<dyn Negotiator>> = BTreeMap::new();
        negs.insert(mv.k8s_party, Box::new(Stubborn));
        let seen: std::rc::Rc<std::cell::RefCell<Vec<usize>>> =
            std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        negs.insert(
            mv.istio_party,
            Box::new(FnNegotiator(move |_party: &mut Party, fb: &Feedback| {
                seen2.borrow_mut().push(fb.envelope.predicates.len());
                false
            })),
        );
        let report = run_negotiation(&mut s, &mut negs, 6, Schedule::RoundRobin).unwrap();
        assert!(!report.success);
        // On the istio admin's turn(s) it saw the K8s envelope (≥1
        // predicate — the port-23 obligation).
        let seen = seen.borrow();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&n| n >= 1));
    }
}
