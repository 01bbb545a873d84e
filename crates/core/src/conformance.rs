//! The solver-aided conformance workflow (Fig. 7).
//!
//! "A central provider's settings override all others' goals, so tenants
//! must work around these inflexible demands." The provider states its
//! goals and (partial) configuration once; the system checks local
//! consistency (Alg. 1), computes the envelope (Alg. 3) — which "need
//! never be recomputed" — and each tenant then configures against it,
//! with Fig. 8's solver aid (synthesis, envelope checking, minimal-edit
//! counter-offers) on their side.

use muppet_logic::{Domain, Instance, PartyId};
use muppet_solver::{Outcome, PartialResult, Phase};

use crate::envelope::Envelope;
use crate::session::{CounterOffer, MuppetError, Session};

/// Log the Fig. 8 counter-offer and return its distance: the minimal
/// edit distance from the tenant's preferred configuration to the
/// nearest envelope-satisfying one, or the best-so-far (possibly
/// non-minimal) distance when the budget ran out mid-search.
fn counter_offer_distance(
    counter: &CounterOffer,
    tname: &str,
    log: &mut Vec<String>,
    exhausted: &mut Option<Phase>,
) -> Option<usize> {
    match (&counter.offer, counter.exhausted) {
        (Some((_, dist)), None) => log.push(format!(
            "{tname}: nearest envelope-satisfying config is {dist} edit(s) away"
        )),
        (Some((_, dist)), Some(phase)) => log.push(format!(
            "{tname}: budget exhausted at phase {phase} while minimizing; \
             an envelope-satisfying config exists within {dist} edit(s)"
        )),
        (None, Some(phase)) => log.push(format!(
            "{tname}: budget exhausted at phase {phase}; no counter-offer"
        )),
        (None, None) => {}
    }
    if let Some(phase) = counter.exhausted {
        exhausted.get_or_insert(phase);
    }
    counter.offer.as_ref().map(|&(_, dist)| dist)
}

/// What happened in one conformance run.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Was the provider's own offer consistent with its goals (Alg. 1)?
    pub provider_consistent: bool,
    /// The provider's fixed configuration (the Alg. 1 witness).
    pub provider_config: Option<Instance>,
    /// The envelope sent to the tenant.
    pub envelope: Option<Envelope>,
    /// Did the tenant find a conforming configuration?
    pub success: bool,
    /// The tenant's synthesized configuration on success.
    pub tenant_config: Option<Instance>,
    /// On failure: blame (group names from the tenant-side query).
    pub blame: Vec<String>,
    /// On failure: the minimal-edit counter-offer distance, if one
    /// exists (how far the tenant's preferred config is from the nearest
    /// envelope-satisfying one).
    pub counter_offer_distance: Option<usize>,
    /// Human-readable log of the workflow steps.
    pub log: Vec<String>,
    /// Where the first step that ran out of budget stopped. The report
    /// is then no verdict: a `false` above means "not proven", and the
    /// log names the step.
    pub exhausted: Option<Phase>,
}

/// Run the Fig. 7 conformance workflow: `provider` computes an envelope
/// once; `tenant` synthesizes against it. `tenant_preferred` (if any) is
/// the tenant's current configuration, used as the target for
/// minimal-edit feedback when synthesis fails.
///
/// Every query runs on the session's warm engines, so repeated
/// conformance checks (revision loops, daemon sessions) reuse the
/// ground/encode state and solver clauses across calls.
pub fn run_conformance(
    session: &mut Session<'_>,
    provider: PartyId,
    tenant: PartyId,
    tenant_preferred: Option<&Instance>,
) -> Result<ConformanceReport, MuppetError> {
    conformance(session, provider, tenant, tenant_preferred, &mut None)
}

/// [`run_conformance`], keeping the tenant's counter-offer in `counter`
/// once computed: it depends only on the envelope and the preferred
/// configuration, so a revision loop solves it once.
fn conformance(
    session: &mut Session<'_>,
    provider: PartyId,
    tenant: PartyId,
    tenant_preferred: Option<&Instance>,
    counter: &mut Option<CounterOffer>,
) -> Result<ConformanceReport, MuppetError> {
    let names = session.party_names();
    let pname = names.get(&provider).cloned().unwrap_or_default();
    let tname = names.get(&tenant).cloned().unwrap_or_default();
    let mut log = Vec::new();

    // Step 1 (Alg. 1): provider's local consistency.
    let lc = session.local_consistency(provider)?;
    if !lc.ok {
        match &lc.exhausted {
            Some(ex) => log.push(format!("{pname}: consistency check {ex}; no verdict")),
            None => log.push(format!(
                "{pname}: offer is locally inconsistent; blame: {:?}",
                lc.core
            )),
        }
        return Ok(ConformanceReport {
            provider_consistent: false,
            provider_config: None,
            envelope: None,
            success: false,
            tenant_config: None,
            blame: lc.core,
            counter_offer_distance: None,
            log,
            exhausted: lc.exhausted.map(|ex| ex.phase),
        });
    }
    let provider_config = lc.witness.expect("consistent check returns a witness");
    log.push(format!(
        "{pname}: locally consistent; fixed configuration has {} settings",
        provider_config.total_tuples()
    ));

    // Step 2 (Alg. 3): compute the envelope once.
    let envelope = session.compute_envelope(provider, tenant, &provider_config)?;
    log.push(format!(
        "computed E_{{{pname}→{tname}}}: {} predicate(s), {} impossible goal(s)",
        envelope.predicates.len(),
        envelope.impossible.len()
    ));

    tenant_step(
        session,
        tenant,
        provider_config,
        envelope,
        tenant_preferred,
        counter,
        log,
    )
}

/// Step 3 of the Fig. 7 workflow (Fig. 8 solver aid), given an
/// already-validated provider: the tenant synthesizes against the
/// envelope plus its own goals, with minimal-edit counter-offer
/// feedback on failure. Factored out so the revision loop can re-run
/// only this step — the provider check and envelope "need never be
/// recomputed", and neither does the counter-offer held in `counter`.
fn tenant_step(
    session: &mut Session<'_>,
    tenant: PartyId,
    provider_config: Instance,
    envelope: Envelope,
    tenant_preferred: Option<&Instance>,
    counter: &mut Option<CounterOffer>,
    mut log: Vec<String>,
) -> Result<ConformanceReport, MuppetError> {
    let tname = session
        .party_names()
        .get(&tenant)
        .cloned()
        .unwrap_or_default();
    let mut exhausted = None;
    let (tenant_config, blame) = match session.synthesize_against(tenant, &envelope)? {
        Outcome::Sat { solution, .. } => {
            let tenant_config =
                solution.restrict_to_domain(session.vocab(), Domain::Party(tenant));
            log.push(format!(
                "{tname}: synthesized a conforming configuration ({} settings)",
                tenant_config.total_tuples()
            ));
            (Some(tenant_config), Vec::new())
        }
        Outcome::Unsat { core, .. } => {
            log.push(format!("{tname}: synthesis failed; blame: {core:?}"));
            (None, core)
        }
        Outcome::Unknown { phase, stats, partial } => {
            // Degraded: no verdict within budget. Surface where the
            // budget went and any partial core.
            log.push(format!(
                "{tname}: synthesis budget exhausted at phase {phase} ({stats}); \
                 raise the session budget or retry policy for a verdict"
            ));
            exhausted = Some(phase);
            match partial {
                Some(PartialResult::Core(core)) => (None, core),
                _ => (None, Vec::new()),
            }
        }
    };
    // Fig. 8 counter-offer on failure: the minimal edit of the preferred
    // config that satisfies the envelope alone (an independently
    // budgeted query, tried even when synthesis ran out).
    let counter_offer_distance = match tenant_preferred {
        Some(target) if tenant_config.is_none() => {
            if counter.is_none() {
                *counter = Some(session.counter_offer(tenant, &envelope, target)?);
            }
            let counter = counter.as_ref().expect("computed above");
            counter_offer_distance(counter, &tname, &mut log, &mut exhausted)
        }
        _ => None,
    };
    Ok(ConformanceReport {
        provider_consistent: true,
        provider_config: Some(provider_config),
        envelope: Some(envelope),
        success: tenant_config.is_some(),
        tenant_config,
        blame,
        counter_offer_distance,
        log,
        exhausted,
    })
}

/// One tenant's line in a [`MultiTenantReport`].
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// The tenant party.
    pub tenant: PartyId,
    /// Did this tenant find a conforming configuration?
    pub success: bool,
    /// Its synthesized configuration on success.
    pub config: Option<Instance>,
    /// Blame on failure.
    pub blame: Vec<String>,
    /// Where this tenant's synthesis, or the provider check it rests
    /// on, ran out of budget: the outcome is then no verdict.
    pub exhausted: Option<Phase>,
}

/// The outcome of provider-to-many-tenants conformance.
#[derive(Clone, Debug)]
pub struct MultiTenantReport {
    /// Was the provider's offer locally consistent?
    pub provider_consistent: bool,
    /// The provider's fixed configuration.
    pub provider_config: Option<Instance>,
    /// Per-tenant envelopes (one per recipient domain) — each computed
    /// exactly once.
    pub envelopes: BTreeMap<PartyId, Envelope>,
    /// Per-tenant results.
    pub tenants: Vec<TenantOutcome>,
}

use std::collections::BTreeMap;

/// Conformance with many tenants: "the K8s administrator sends
/// E_{K8s→Istio} to **all** their Istio customers" (Sec. 3). The
/// provider's consistency is checked and its configuration fixed once;
/// every tenant then synthesizes independently against its own envelope
/// (envelopes differ per tenant because each tenant owns a different
/// configuration domain).
pub fn run_conformance_multi_tenant(
    session: &mut Session<'_>,
    provider: PartyId,
    tenants: &[PartyId],
) -> Result<MultiTenantReport, MuppetError> {
    let lc = session.local_consistency(provider)?;
    if !lc.ok {
        return Ok(MultiTenantReport {
            provider_consistent: false,
            provider_config: None,
            envelopes: BTreeMap::new(),
            tenants: tenants
                .iter()
                .map(|&t| TenantOutcome {
                    tenant: t,
                    success: false,
                    config: None,
                    blame: lc.core.clone(),
                    exhausted: lc.exhausted.as_ref().map(|ex| ex.phase),
                })
                .collect(),
        });
    }
    let provider_config = lc.witness.expect("consistent check returns a witness");
    let mut envelopes = BTreeMap::new();
    let mut outcomes = Vec::new();
    for &tenant in tenants {
        let envelope = session.compute_envelope(provider, tenant, &provider_config)?;
        let outcome = match session.synthesize_against(tenant, &envelope)? {
            Outcome::Sat { solution, .. } => TenantOutcome {
                tenant,
                success: true,
                config: Some(
                    solution.restrict_to_domain(session.vocab(), Domain::Party(tenant)),
                ),
                blame: Vec::new(),
                exhausted: None,
            },
            Outcome::Unsat { core, .. } => TenantOutcome {
                tenant,
                success: false,
                config: None,
                blame: core,
                exhausted: None,
            },
            // One tenant's exhausted budget must not abort the other
            // tenants' runs: record a degraded (unproven) failure.
            Outcome::Unknown { phase, partial, .. } => TenantOutcome {
                tenant,
                success: false,
                config: None,
                blame: match partial {
                    Some(PartialResult::Core(core)) => core,
                    _ => Vec::new(),
                },
                exhausted: Some(phase),
            },
        };
        envelopes.insert(tenant, envelope);
        outcomes.push(outcome);
    }
    Ok(MultiTenantReport {
        provider_consistent: true,
        provider_config: Some(provider_config),
        envelopes,
        tenants: outcomes,
    })
}

/// The full Fig. 7 loop with tenant revisions: run conformance; on
/// failure hand the tenant's [`crate::negotiate::Negotiator`] the blame
/// plus envelope as feedback and retry, up to `max_revisions` times.
/// The envelope is computed once and reused across retries ("the
/// envelope E_{A→B} need never be recomputed").
pub fn run_conformance_with_revisions(
    session: &mut Session<'_>,
    provider: PartyId,
    tenant: PartyId,
    tenant_preferred: Option<&Instance>,
    strategy: &mut dyn crate::negotiate::Negotiator,
    max_revisions: usize,
) -> Result<ConformanceReport, MuppetError> {
    // The provider is checked and the envelope computed exactly once
    // (tenant revisions touch only tenant-owned goals and offers, which
    // enter neither), and every retry re-runs only the tenant-side step
    // on the session's warm engines.
    let mut counter = None;
    let mut report = conformance(session, provider, tenant, tenant_preferred, &mut counter)?;
    let mut revisions = 0usize;
    while !report.success && report.provider_consistent && revisions < max_revisions {
        let envelope = report
            .envelope
            .clone()
            .expect("provider consistent ⇒ envelope exists");
        // The mediator's counter-offer for the tenant: the minimal edit
        // of the preferred configuration that satisfies the envelope,
        // solved by the failed tenant step (its exhaustion, if any, is
        // already in the report).
        let counter_offer = counter.as_ref().and_then(|c| c.offer.clone());
        let feedback = crate::negotiate::Feedback {
            core: report.blame.clone(),
            envelope: envelope.clone(),
            counter_offer,
            round: revisions,
        };
        let changed = strategy.revise(session.party_mut(tenant)?, &feedback);
        if !changed {
            report.log.push(format!(
                "tenant declined to revise after {revisions} revision(s); stopping"
            ));
            break;
        }
        revisions += 1;
        // Retry only the tenant side: the provider's witness and the
        // envelope are carried over unchanged.
        let provider_config = report
            .provider_config
            .clone()
            .expect("provider consistent ⇒ witness exists");
        let retry_log = vec![format!("— retry after tenant revision {revisions} —")];
        let mut next = tenant_step(
            session,
            tenant,
            provider_config,
            envelope,
            tenant_preferred,
            &mut counter,
            retry_log,
        )?;
        let mut log = report.log;
        log.extend(next.log.clone());
        next.log = log;
        // A revision that followed degraded feedback is not definite.
        next.exhausted = report.exhausted.or(next.exhausted);
        report = next;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{NamedGoal, Party};
    use crate::session::Session;
    use muppet_goals::{fig2, translate_istio_goals, translate_k8s_goals, IstioGoal};
    use muppet_mesh::MeshVocab;

    fn session<'a>(mv: &'a MeshVocab, istio_rows: &[IstioGoal]) -> Session<'a> {
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
        s.add_party(
            Party::new(mv.istio_party, "istio-admin")
                .with_goals(istio_goals.into_iter().map(NamedGoal::from)),
        );
        s
    }

    #[test]
    fn exhausted_steps_are_reported_not_refuted() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig4());
        s.set_budget(crate::Budget::unlimited().with_timeout(std::time::Duration::ZERO));
        let report = run_conformance(&mut s, mv.k8s_party, mv.istio_party, None).unwrap();
        assert!(report.exhausted.is_some(), "log: {:?}", report.log);
        assert!(!report.log.iter().any(|l| l.contains("inconsistent")), "{:?}", report.log);
        let multi = run_conformance_multi_tenant(&mut s, mv.k8s_party, &[mv.istio_party]).unwrap();
        assert!(multi.tenants[0].exhausted.is_some());
    }

    #[test]
    fn strict_tenant_goals_fail_with_feedback() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        // The tenant's preferred configuration is its current deployment.
        let preferred = mv.structure_instance();
        let report =
            run_conformance(&mut s, mv.k8s_party, mv.istio_party, Some(&preferred)).unwrap();
        assert!(report.provider_consistent);
        assert!(!report.success);
        assert!(!report.blame.is_empty());
        // Counter-offer exists: the envelope alone is satisfiable.
        let d = report.counter_offer_distance.expect("counter offer");
        assert_eq!(d, 1, "unexposing port 23 is the one-edit counter-offer");
        assert!(report.envelope.is_some());
    }

    #[test]
    fn relaxed_tenant_goals_succeed_and_verify() {
        // Fig. 4 relaxation: the synthesizer may re-expose the frontend
        // on a spare port (port exposure is Istio-owned).
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig4());
        let report = run_conformance(&mut s, mv.k8s_party, mv.istio_party, None).unwrap();
        assert!(report.success, "log: {:?}", report.log);
        // End-to-end verification: provider config + tenant config
        // satisfy everyone's goals.
        let combined = s
            .structure()
            .union(report.provider_config.as_ref().unwrap())
            .union(report.tenant_config.as_ref().unwrap());
        for (name, holds) in s.check_goals(&combined) {
            assert!(holds, "{name} violated");
        }
        // And the envelope accepts the tenant's config.
        let env = report.envelope.unwrap();
        assert!(env
            .check(report.tenant_config.as_ref().unwrap(), &mv.universe)
            .is_empty());
    }

    #[test]
    fn revision_loop_reaches_conformance() {
        // Strict tenant fails; a revision strategy that swaps the blamed
        // goal for its Fig. 4 relaxation lets the retry succeed.
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        // Pre-translate the relaxed replacement row with the session's
        // own vocabulary lineage.
        let mut vocab = mv.vocab.clone();
        let _burn: Vec<_> = (0..64).map(|_| vocab.fresh_var()).collect();
        let relaxed = muppet_goals::translate_istio_goals(
            &IstioGoal::parse_csv("test-backend,test-frontend,?y,?z\n").unwrap(),
            &mv,
            &mut vocab,
        )
        .unwrap();
        let mut replacement = Some(NamedGoal::from(relaxed.into_iter().next().unwrap()));
        let mut strategy =
            crate::negotiate::FnNegotiator(move |party: &mut Party, fb: &crate::negotiate::Feedback| {
                let Some(idx) = party
                    .goals
                    .iter()
                    .position(|g| fb.core.iter().any(|c| c.contains(&g.name)))
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
            });
        let report = run_conformance_with_revisions(
            &mut s,
            mv.k8s_party,
            mv.istio_party,
            None,
            &mut strategy,
            3,
        )
        .unwrap();
        assert!(report.success, "log: {:#?}", report.log);
        assert!(report.log.iter().any(|l| l.contains("retry after tenant revision 1")));
    }

    #[test]
    fn revision_loop_stops_on_stubborn_tenant() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        let mut strategy = crate::negotiate::Stubborn;
        let report = run_conformance_with_revisions(
            &mut s,
            mv.k8s_party,
            mv.istio_party,
            None,
            &mut strategy,
            3,
        )
        .unwrap();
        assert!(!report.success);
        assert!(report.log.iter().any(|l| l.contains("declined to revise")));
    }

    /// The counter-offer depends only on the envelope and the preferred
    /// configuration, which no tenant revision touches: a run whose
    /// every revision fails solves the minimal edit once and offers the
    /// same counter-offer each time.
    #[test]
    fn failed_revisions_solve_the_minimal_edit_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        let preferred = mv.structure_instance();
        // Count this thread's minimal-edit solves (span closes are
        // process-wide; other tests' threads are filtered out).
        muppet_obs::set_enabled(true);
        let solves = Arc::new(AtomicUsize::new(0));
        let (counted, me) = (Arc::clone(&solves), std::thread::current().id());
        muppet_obs::on_span_close(move |e| {
            if e.name == "minimal_edit" && std::thread::current().id() == me {
                counted.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Every revision adds a harmless goal and keeps the conflict.
        let mut offers = Vec::new();
        let mut strategy =
            crate::negotiate::FnNegotiator(|party: &mut Party, fb: &crate::negotiate::Feedback| {
                offers.push(fb.counter_offer.clone());
                let goal = party.goals[0].clone();
                party.goals.push(NamedGoal {
                    name: format!("copy {}", fb.round),
                    ..goal
                });
                true
            });
        let report = run_conformance_with_revisions(
            &mut s,
            mv.k8s_party,
            mv.istio_party,
            Some(&preferred),
            &mut strategy,
            3,
        )
        .unwrap();
        assert!(!report.success);
        assert_eq!(report.counter_offer_distance, Some(1));
        let retries = report
            .log
            .iter()
            .filter(|l| l.contains("retry after tenant"));
        assert_eq!(retries.count(), 3);
        assert_eq!(solves.load(Ordering::Relaxed), 1, "log: {:#?}", report.log);
        assert_eq!(offers.len(), 3);
        assert!(offers.iter().all(|o| matches!(o, Some((_, 1)))));
        assert!(offers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn inconsistent_provider_is_caught_before_envelope() {
        let mv = MeshVocab::paper_example();
        let mut s = session(&mv, &IstioGoal::fig3());
        // A self-contradictory provider: two opposite goals over its own
        // relations.
        let fe = mv.svc_atom("test-frontend").unwrap();
        let guard =
            muppet_logic::Formula::pred(mv.k8s_in_guard, [muppet_logic::Term::Const(fe)]);
        s.party_mut(mv.k8s_party).unwrap().goals.extend([
            NamedGoal::hard("guard fe", guard.clone()),
            NamedGoal::hard("never guard fe", muppet_logic::Formula::not(guard)),
        ]);
        let report = run_conformance(&mut s, mv.k8s_party, mv.istio_party, None).unwrap();
        assert!(!report.provider_consistent);
        assert!(!report.success);
        assert!(report.envelope.is_none());
        assert!(!report.blame.is_empty());
    }
}
