//! Sessions: the shared context for Algs. 1–3.

use std::collections::BTreeMap;
use std::fmt;

use muppet_logic::{
    decompose, nnf, partial_eval, simplify, Domain, Formula, Instance, PartialInstance, PartyId,
    RelId, Term, Universe, Vocabulary,
};
use muppet_solver::{
    Budget, FormulaGroup, IncrementalQuery, Outcome, PartialResult, Phase, PortfolioConfig,
    PreparedStore, QueryError, QueryStats, RetryPolicy,
};

use crate::envelope::{Envelope, EnvelopePredicate};
use crate::fingerprint::{FingerprintExt, Fingerprinter};
use crate::party::Party;

/// Errors from session operations.
#[derive(Debug)]
pub enum MuppetError {
    /// Underlying solver/query failure.
    Query(QueryError),
    /// A party id was not registered in the session.
    UnknownParty(PartyId),
    /// A solver budget was exhausted in a context with no graceful
    /// degradation channel (e.g. envelope learning), with the work
    /// counters at the point of exhaustion.
    Exhausted {
        /// Pipeline phase that ran out of budget.
        phase: Phase,
        /// Solver work counters at exhaustion.
        stats: QueryStats,
    },
}

impl fmt::Display for MuppetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuppetError::Query(e) => write!(f, "{e}"),
            MuppetError::UnknownParty(p) => write!(f, "unknown party {p}"),
            MuppetError::Exhausted { phase, stats } => {
                write!(f, "solver budget exhausted at phase {phase} ({stats})")
            }
        }
    }
}

impl std::error::Error for MuppetError {}

impl From<QueryError> for MuppetError {
    fn from(e: QueryError) -> MuppetError {
        MuppetError::Query(e)
    }
}

/// Why (and where) a session query gave up instead of answering.
///
/// Attached to [`ConsistencyReport`] and [`Reconciliation`] when every
/// retry attempt came back unknown: the verdict fields then mean "not
/// proven", not "no". Callers that need a definite answer should raise
/// the budget ([`Session::set_budget`]) or allow more escalation
/// attempts ([`Session::set_retry_policy`]) and re-run.
#[derive(Clone, Debug)]
pub struct ExhaustionReport {
    /// Pipeline phase that ran out of budget on the final attempt.
    pub phase: Phase,
    /// Solver work counters at exhaustion.
    pub stats: QueryStats,
    /// Solve attempts made (1 = no retries configured or possible).
    pub attempts: u32,
}

impl fmt::Display for ExhaustionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted at phase {} after {} attempt(s) ({})",
            self.phase, self.attempts, self.stats
        )
    }
}

/// Result of a local-consistency check (Alg. 1).
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// Can the offer be completed so the party's goals hold?
    pub ok: bool,
    /// On success: a completion of the party's own relations that (with
    /// some choice for everyone else) satisfies its goals. This is the
    /// `r.C_A` Alg. 1 returns, and what conformance uses as the
    /// provider's fixed configuration.
    pub witness: Option<Instance>,
    /// On failure: minimal blame — goal names (and axiom/commitment
    /// group names) that jointly conflict.
    pub core: Vec<String>,
    /// Solver work counters.
    pub stats: QueryStats,
    /// Present when the budget ran out before a verdict: `ok` is then
    /// "not proven" and `core` holds the best (possibly unminimized)
    /// partial core, if any.
    pub exhausted: Option<ExhaustionReport>,
}

/// Result of offer reconciliation (Alg. 2).
#[derive(Clone, Debug)]
pub struct Reconciliation {
    /// Did reconciliation succeed?
    pub success: bool,
    /// On success: the delivered total configuration of each party
    /// (`deliver C_A, C_B` in Figs. 7 and 9).
    pub configs: BTreeMap<PartyId, Instance>,
    /// On failure: minimal blame across *all* parties' goals and (in
    /// [`ReconcileMode::Blameable`]) committed settings.
    pub core: Vec<String>,
    /// Solver work counters.
    pub stats: QueryStats,
    /// Present when the budget ran out before a verdict: `success` is
    /// then "not proven" and `core` holds the best (possibly
    /// unminimized) partial core, if any.
    pub exhausted: Option<ExhaustionReport>,
}

/// How offers' hard settings enter the reconciliation query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconcileMode {
    /// Lower bounds are hard solver bounds: fast, but conflicts cannot
    /// blame individual committed settings.
    HardBounds,
    /// Lower bounds become named "committed settings" groups so that
    /// unsat cores can blame them alongside goals (the paper's
    /// "feedback … with blame information").
    Blameable,
}

/// Which engine a solve runs on. The two one-shot kinds are fresh
/// engines dropped after the call, for queries whose clauses must not
/// outlive them.
#[derive(Clone, Copy)]
pub(crate) enum Engine {
    /// The session store's warm engine for the query's shape.
    Warm,
    /// One-shot, with lex-leader symmetry breaking over the query's
    /// groups: the lex clauses are permanent and depend on the goal set.
    SymmetryBreaking,
    /// One-shot, without core minimization: envelope learning's
    /// generalization probes change their bounds (and with them the
    /// engine shape) on every probe, and need only the verdict.
    Probe,
}

/// What the retry loop needs to know about a solve's result type.
pub(crate) trait Answer {
    /// Did the attempt end without a verdict?
    fn is_unknown(&self) -> bool;
}

impl Answer for Outcome {
    fn is_unknown(&self) -> bool {
        Outcome::is_unknown(self)
    }
}

impl Answer for (Outcome, usize) {
    fn is_unknown(&self) -> bool {
        self.0.is_unknown()
    }
}

/// A Muppet session: universe, vocabulary, shared structure, axioms and
/// parties. All of Algs. 1–3 are methods here.
///
/// A session owns a [`PreparedStore`] of warm incremental engines, one
/// per query shape: repeating a query (or a negotiation round that
/// changes one goal) re-encodes only groups whose content changed. Answers do not depend on that
/// state — models and cores are canonical — so the cold reference for
/// any call is the same call on a fresh `Session`.
pub struct Session<'a> {
    universe: &'a Universe,
    vocab: Vocabulary,
    structure: Instance,
    axioms: Vec<Formula>,
    parties: Vec<Party>,
    symmetry_breaking: bool,
    budget: Budget,
    retry: RetryPolicy,
    portfolio: Option<PortfolioConfig>,
    store: PreparedStore,
}

impl<'a> Session<'a> {
    /// Create a session over a universe/vocabulary with the given fixed
    /// structure instance.
    pub fn new(universe: &'a Universe, vocab: Vocabulary, structure: Instance) -> Session<'a> {
        Session {
            universe,
            vocab,
            structure,
            axioms: Vec::new(),
            parties: Vec::new(),
            symmetry_breaking: false,
            budget: Budget::unlimited(),
            retry: RetryPolicy::default(),
            portfolio: None,
            store: PreparedStore::new(),
        }
    }

    /// Set the resource budget applied to every solver query this
    /// session runs. Wall-clock deadlines and cancellation tokens are
    /// shared across retry attempts (they are absolute); conflict caps
    /// apply per attempt and combine with the retry policy's escalation
    /// schedule (the smaller cap wins).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The session's query budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Set the escalation schedule for retrying queries that come back
    /// unknown: attempt `i` gets `initial_conflicts * luby(i)`
    /// conflicts, up to `max_attempts` tries. The default is a single
    /// uncapped attempt.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The session's retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Run the search phase of satisfiability queries on a parallel
    /// portfolio of `n` diversified solvers racing over a shared
    /// learned-clause pool. `n <= 1` restores plain sequential solving.
    /// Verdicts are identical either way; only wall-clock time and the
    /// reported work counters differ. Grounding, encoding, core
    /// shrinking, target optimization and enumeration stay sequential.
    pub fn set_threads(&mut self, n: usize) {
        self.portfolio = if n > 1 {
            Some(PortfolioConfig::with_threads(n))
        } else {
            None
        };
    }

    /// Full control over the portfolio configuration (worker count,
    /// deterministic mode, clause-sharing thresholds). `None` or a
    /// non-parallel config solves sequentially.
    pub fn set_portfolio(&mut self, portfolio: Option<PortfolioConfig>) {
        self.portfolio = portfolio.filter(PortfolioConfig::is_parallel);
    }

    /// The session's portfolio configuration, if parallel search is on.
    pub fn portfolio(&self) -> Option<&PortfolioConfig> {
        self.portfolio.as_ref()
    }

    /// Enable interchangeable-atom symmetry breaking for the session's
    /// satisfiability queries (Alg. 1/2 and envelope-side synthesis).
    /// Minimal-edit queries are unaffected — they must see the full
    /// model space. Most useful when the universe carries spare ports
    /// for ∃-port goals. The lex clauses are permanent, so these
    /// queries run on one-shot engines and bypass the warm store.
    pub fn set_symmetry_breaking(&mut self, enable: bool) {
        self.symmetry_breaking = enable;
    }

    /// The session's warm engine store.
    pub fn store(&self) -> &PreparedStore {
        &self.store
    }

    /// Mutable access to the warm engine store. Callers that rebuild a
    /// session per request (the daemon's warm sessions, stream
    /// sessions) swap their long-lived store in before a call and take
    /// it back afterwards, so warm state outlives the session.
    pub fn store_mut(&mut self) -> &mut PreparedStore {
        &mut self.store
    }

    /// Add domain well-formedness axioms (always included as a hard
    /// group named `"structural axioms"`).
    pub fn add_axioms(&mut self, axioms: impl IntoIterator<Item = Formula>) {
        self.axioms.extend(axioms);
    }

    /// The registered axioms.
    pub fn axioms(&self) -> &[Formula] {
        &self.axioms
    }

    /// Register a party.
    pub fn add_party(&mut self, party: Party) {
        self.parties.push(party);
    }

    /// The registered parties.
    pub fn parties(&self) -> &[Party] {
        &self.parties
    }

    /// Look up a party.
    pub fn party(&self, id: PartyId) -> Result<&Party, MuppetError> {
        self.parties
            .iter()
            .find(|p| p.id == id)
            .ok_or(MuppetError::UnknownParty(id))
    }

    /// Mutable party lookup (for negotiation revisions).
    pub fn party_mut(&mut self, id: PartyId) -> Result<&mut Party, MuppetError> {
        self.parties
            .iter_mut()
            .find(|p| p.id == id)
            .ok_or(MuppetError::UnknownParty(id))
    }

    /// Party id → display-name map.
    pub fn party_names(&self) -> BTreeMap<PartyId, String> {
        self.parties
            .iter()
            .map(|p| (p.id, p.name.clone()))
            .collect()
    }

    /// The vocabulary (including any fresh variables created so far).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The universe.
    pub fn universe(&self) -> &Universe {
        self.universe
    }

    /// The shared structure instance.
    pub fn structure(&self) -> &Instance {
        &self.structure
    }

    /// The relations owned by a party's configuration domain.
    pub fn owned_rels(&self, id: PartyId) -> Vec<RelId> {
        self.vocab
            .rels()
            .filter(|(_, d)| d.owner == Domain::Party(id))
            .map(|(r, _)| r)
            .collect()
    }

    fn all_party_rels(&self) -> Vec<RelId> {
        self.parties
            .iter()
            .flat_map(|p| self.owned_rels(p.id))
            .collect()
    }

    pub(crate) fn axiom_group(&self) -> FormulaGroup {
        FormulaGroup::new("structural axioms", self.axioms.clone())
    }

    pub(crate) fn goal_groups(&self, party: &Party) -> Vec<FormulaGroup> {
        party
            .goals
            .iter()
            .map(|g| {
                // Tagged with the party id: the display name is only a
                // label, so renaming a party can never alias another
                // party's cached group encodings.
                FormulaGroup::new(
                    format!("{}: {}", party.name, g.name),
                    vec![g.formula.clone()],
                )
                .with_tag(u64::from(party.id.0))
            })
            .collect()
    }

    /// Merge offers of the given parties into one bounds object. In
    /// blameable mode, lower bounds are returned as commitment groups
    /// instead of bounds.
    pub(crate) fn merge_offers(
        &self,
        parties: &[&Party],
        mode: ReconcileMode,
    ) -> (PartialInstance, Vec<FormulaGroup>) {
        let mut bounds = PartialInstance::new();
        let mut groups = Vec::new();
        for p in parties {
            let mut committed = Vec::new();
            for rel in p.offer.bounded_rels() {
                bounds.bound(rel);
                for t in p.offer.upper(rel) {
                    bounds.permit(rel, t.clone());
                }
                for t in p.offer.lower(rel) {
                    match mode {
                        ReconcileMode::HardBounds => bounds.require(rel, t.clone()),
                        ReconcileMode::Blameable => {
                            committed.push(Formula::pred(
                                rel,
                                t.iter().map(|&a| Term::Const(a)),
                            ));
                        }
                    }
                }
            }
            if !committed.is_empty() {
                groups.push(
                    FormulaGroup::new(
                        format!("{}: committed settings", p.name),
                        committed,
                    )
                    .with_tag(u64::from(p.id.0)),
                );
            }
        }
        (bounds, groups)
    }

    /// The bounds and groups of a one-party satisfiability query (Alg. 1
    /// and envelope-side synthesis): the party's offer as hard bounds,
    /// then the axiom group, `extra`, and the party's goals.
    fn party_input(
        &self,
        party: &Party,
        extra: Vec<FormulaGroup>,
    ) -> (PartialInstance, Vec<FormulaGroup>) {
        // Hard bounds derive no commitment groups.
        let (bounds, _) = self.merge_offers(&[party], ReconcileMode::HardBounds);
        let mut groups = vec![self.axiom_group()];
        groups.extend(extra);
        groups.extend(self.goal_groups(party));
        (bounds, groups)
    }

    /// The bounds and groups Alg. 2 submits, in submission order: the
    /// axiom group, any commitment groups the mode derives from offers,
    /// then each party's goal groups.
    fn reconcile_input(&self, mode: ReconcileMode) -> (PartialInstance, Vec<FormulaGroup>) {
        let refs: Vec<&Party> = self.parties.iter().collect();
        let (bounds, commit_groups) = self.merge_offers(&refs, mode);
        let mut groups = vec![self.axiom_group()];
        groups.extend(commit_groups);
        for p in &self.parties {
            groups.extend(self.goal_groups(p));
        }
        (bounds, groups)
    }

    /// **Alg. 1 — local consistency.** Can `C??_A` be completed (with
    /// some configuration for everyone else) so that φ_A holds?
    pub fn local_consistency(&mut self, id: PartyId) -> Result<ConsistencyReport, MuppetError> {
        let party = self.party(id)?;
        let mut op_span = muppet_obs::span("consistency");
        op_span.attr("party", party.name.clone());
        let (bounds, groups) = self.party_input(party, Vec::new());
        let (outcome, attempts) = self.solve(&bounds, &groups)?;
        op_span.record("attempts", u64::from(attempts));
        drop(op_span);
        Ok(self.consistency_report(id, outcome, attempts))
    }

    /// Map a solve outcome onto the Alg. 1 report shape.
    fn consistency_report(
        &self,
        id: PartyId,
        outcome: Outcome,
        attempts: u32,
    ) -> ConsistencyReport {
        match outcome {
            Outcome::Sat { solution, stats } => ConsistencyReport {
                ok: true,
                witness: Some(solution.restrict_to_domain(&self.vocab, Domain::Party(id))),
                core: Vec::new(),
                stats,
                exhausted: None,
            },
            Outcome::Unsat { core, stats } => ConsistencyReport {
                ok: false,
                witness: None,
                core,
                stats,
                exhausted: None,
            },
            Outcome::Unknown { phase, stats, partial } => ConsistencyReport {
                ok: false,
                witness: None,
                core: match partial {
                    Some(PartialResult::Core(core)) => core,
                    _ => Vec::new(),
                },
                stats,
                exhausted: Some(ExhaustionReport { phase, stats, attempts }),
            },
        }
    }

    /// **Alg. 2 — reconciliation.** Can all offers be extended to total
    /// configurations that jointly satisfy everyone's goals?
    pub fn reconcile(&mut self, mode: ReconcileMode) -> Result<Reconciliation, MuppetError> {
        let mut op_span = muppet_obs::span("reconcile");
        op_span.attr("mode", format!("{mode:?}"));
        let (bounds, groups) = self.reconcile_input(mode);
        let (outcome, attempts) = self.solve(&bounds, &groups)?;
        op_span.record("attempts", u64::from(attempts));
        drop(op_span);
        Ok(self.reconciliation_report(outcome, attempts))
    }

    /// The `(name, content_key)` signature of every formula group a
    /// [`Session::reconcile`] call would submit, in submission order.
    /// Diffing two sessions' signatures predicts exactly which groups a
    /// shared warm engine will re-encode — unchanged keys are reused
    /// from the incremental engine's content index — which is how the
    /// stream session maps a config delta to its dirtied groups without
    /// touching the solver (DESIGN.md §16).
    pub fn reconcile_group_signatures(&self, mode: ReconcileMode) -> Vec<(String, u128)> {
        self.reconcile_input(mode)
            .1
            .into_iter()
            .map(|g| {
                let key = g.content_key();
                (g.name, key)
            })
            .collect()
    }

    /// Map a solve outcome onto the Alg. 2 report shape.
    fn reconciliation_report(&self, outcome: Outcome, attempts: u32) -> Reconciliation {
        match outcome {
            Outcome::Sat { solution, stats } => {
                let configs = self
                    .parties
                    .iter()
                    .map(|p| {
                        (
                            p.id,
                            solution.restrict_to_domain(&self.vocab, Domain::Party(p.id)),
                        )
                    })
                    .collect();
                Reconciliation {
                    success: true,
                    configs,
                    core: Vec::new(),
                    stats,
                    exhausted: None,
                }
            }
            Outcome::Unsat { core, stats } => Reconciliation {
                success: false,
                configs: BTreeMap::new(),
                core,
                stats,
                exhausted: None,
            },
            Outcome::Unknown { phase, stats, partial } => Reconciliation {
                success: false,
                configs: BTreeMap::new(),
                core: match partial {
                    Some(PartialResult::Core(core)) => core,
                    _ => Vec::new(),
                },
                stats,
                exhausted: Some(ExhaustionReport { phase, stats, attempts }),
            },
        }
    }

    /// Fingerprint of everything that shapes a warm query's variable
    /// layout: universe, vocabulary, the given fixed instance, bounds
    /// and free relations. Queries agreeing on this key share one warm
    /// engine in the store.
    fn warm_key(&self, bounds: &PartialInstance, free: &[RelId], fixed: &Instance) -> u128 {
        let mut fp = Fingerprinter::new();
        fp.add_universe(self.universe)
            .add_vocab(&self.vocab)
            .add_instance(fixed)
            .add_partial(bounds)
            .add_hash(&free);
        fp.digest()
    }

    /// Fingerprint of the session's full semantic content — universe,
    /// vocabulary, structure, axioms, every party's goals and offer,
    /// and the symmetry flag. Daemon-level caches key on this.
    pub fn content_fingerprint(&self) -> u128 {
        let mut fp = Fingerprinter::new();
        fp.add_universe(self.universe)
            .add_vocab(&self.vocab)
            .add_instance(&self.structure)
            .add_hash(&self.axioms)
            .add_bool(self.symmetry_breaking);
        fp.add_u64(self.parties.len() as u64);
        for p in &self.parties {
            fp.add_party(p);
        }
        fp.digest()
    }

    /// The one budget/retry loop every solve runs through. Takes the
    /// engine for the `free`/`bounds`/`fixed` shape (`fixed` defaults
    /// to the session structure) — the store's warm one, or a fresh
    /// one-shot — and per attempt derives the attempt's budget (the
    /// session budget, with the retry policy's conflict cap when that
    /// is smaller) and runs `op` with the groups on it; the engine
    /// encodes the groups it has not seen. Re-runs while the answer is
    /// unknown, attempts remain, and the shared deadline/cancellation
    /// has not already fired (retrying past an absolute deadline cannot
    /// help). Returns the final answer and the number of attempts.
    pub(crate) fn run<A: Answer>(
        &mut self,
        engine: Engine,
        free: &[RelId],
        bounds: &PartialInstance,
        fixed: Option<&Instance>,
        groups: &[FormulaGroup],
        mut op: impl FnMut(&mut IncrementalQuery, &[FormulaGroup], Budget) -> Result<A, QueryError>,
    ) -> Result<(A, u32), MuppetError> {
        let fixed = fixed.unwrap_or(&self.structure);
        let build =
            || IncrementalQuery::new(&self.vocab, self.universe, free, bounds, fixed.clone());
        let mut one_shot;
        let pq = match engine {
            Engine::Warm => {
                let key = self.warm_key(bounds, free, fixed);
                self.store.get_or_build(key, build)
            }
            Engine::SymmetryBreaking => {
                one_shot = build();
                one_shot.add_symmetry_breaking();
                &mut one_shot
            }
            Engine::Probe => {
                one_shot = build();
                one_shot.set_minimize_cores(false);
                &mut one_shot
            }
        };
        pq.set_portfolio(self.portfolio);
        let attempts = self.retry.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            let mut budget = self.budget.clone();
            if let Some(cap) = self.retry.conflict_cap(attempt) {
                let cap = match budget.conflict_cap() {
                    Some(own) => own.min(cap),
                    None => cap,
                };
                budget.set_conflict_cap(Some(cap));
            }
            let mut attempt_span = muppet_obs::span("attempt");
            attempt_span.record("attempt", u64::from(attempt));
            let out = op(pq, groups, budget)?;
            drop(attempt_span);
            if out.is_unknown() && attempt < attempts && self.budget.poll().is_none() {
                attempt += 1;
                continue;
            }
            return Ok((out, attempt));
        }
    }

    /// A satisfiability solve over every party's relations against the
    /// structure — the shape of Alg. 1/2, synthesis and the monolithic
    /// baseline. Symmetry-breaking sessions solve on a one-shot engine.
    pub(crate) fn solve(
        &mut self,
        bounds: &PartialInstance,
        groups: &[FormulaGroup],
    ) -> Result<(Outcome, u32), MuppetError> {
        let engine = if self.symmetry_breaking {
            Engine::SymmetryBreaking
        } else {
            Engine::Warm
        };
        let free = self.all_party_rels();
        self.run(engine, &free, bounds, None, groups, |pq, groups, budget| {
            pq.solve(groups, budget)
        })
    }

    /// **Alg. 3 — envelope extraction.** `E_{from→to}` modulo the
    /// sender's fixed configuration `c_from`.
    pub fn compute_envelope(
        &self,
        from: PartyId,
        to: PartyId,
        c_from: &Instance,
    ) -> Result<Envelope, MuppetError> {
        self.compute_multi_envelope(&[(from, c_from.clone())], to)
    }

    /// **Sec. 7 extension — multi-source envelopes.** `E_{S→to}` for a
    /// set `S` of senders with fixed configurations: "envelopes would
    /// also need to encapsulate the needs of multiple agents (e.g.
    /// `E_{{A,B}→C}`), which our algorithm could produce via multiple
    /// passes of substitution". Each predicate is tagged with the party
    /// whose goal imposed it.
    pub fn compute_multi_envelope(
        &self,
        senders: &[(PartyId, Instance)],
        to: PartyId,
    ) -> Result<Envelope, MuppetError> {
        self.compute_multi_envelope_opt(senders, to, true)
    }

    /// [`Session::compute_multi_envelope`] with the "elementary
    /// simplifications" switchable — ablation A1 measures what
    /// simplification buys in envelope size and configuration leakage
    /// (the paper's privacy mitigation, Sec. 7).
    pub fn compute_multi_envelope_opt(
        &self,
        senders: &[(PartyId, Instance)],
        to: PartyId,
        simplify_predicates: bool,
    ) -> Result<Envelope, MuppetError> {
        self.party(to)?;
        let mut op_span = muppet_obs::span("envelope");
        op_span.record("senders", senders.len() as u64);
        let eval_domains: std::collections::BTreeSet<Domain> =
            senders.iter().map(|(id, _)| Domain::Party(*id)).collect();
        let mut fixed_all = self.structure.clone();
        for (_, c) in senders {
            fixed_all = fixed_all.union(c);
        }
        let to_domain = Domain::Party(to);
        let mut predicates = Vec::new();
        let mut impossible = Vec::new();
        let mut residual_violations = Vec::new();
        let mut self_satisfied = Vec::new();

        for (sender_id, sender_config) in senders {
            let sender = self.party(*sender_id)?;
            for goal in &sender.goals {
                for psi in decompose(&goal.formula) {
                    if psi.mentions_domain(&self.vocab, to_domain) {
                        // subst(ψ, C_from): partial evaluation of the
                        // senders' atoms, then NNF + simplification (the
                        // paper's "elementary simplifications", which are
                        // also its privacy mitigation).
                        let raw = nnf(&partial_eval(
                            &psi,
                            sender_config,
                            &eval_domains,
                            &self.vocab,
                            self.universe,
                        ));
                        let pe = if simplify_predicates {
                            simplify(&raw)
                        } else {
                            raw
                        };
                        match pe {
                            Formula::True => self_satisfied.push(goal.name.clone()),
                            Formula::False => impossible.push(goal.name.clone()),
                            f => predicates.push(EnvelopePredicate {
                                source_goal: goal.name.clone(),
                                obligated_by: *sender_id,
                                formula: f,
                                var_names: goal.var_names.clone(),
                            }),
                        }
                    } else {
                        // Recipient-free residue: check it against the
                        // senders' fixed configurations if it involves no
                        // third party.
                        let doms = psi.domains(&self.vocab);
                        let third_party = doms.iter().any(|d| {
                            *d != Domain::Structure && !eval_domains.contains(d)
                        });
                        if !third_party && psi.free_vars().is_empty() {
                            let holds = muppet_logic::evaluate_closed(
                                &psi,
                                &fixed_all,
                                self.universe,
                            )
                            .unwrap_or(false);
                            if !holds {
                                residual_violations.push(goal.name.clone());
                            }
                        }
                    }
                }
            }
        }
        residual_violations.dedup();
        impossible.dedup();
        self_satisfied.dedup();
        // A goal is only "self-satisfied" if no predicate or
        // impossibility of the same goal remains.
        self_satisfied.retain(|g| {
            !predicates.iter().any(|p| &p.source_goal == g) && !impossible.contains(g)
        });
        op_span.record("predicates", predicates.len() as u64);
        drop(op_span);
        Ok(Envelope {
            from: senders.iter().map(|(id, _)| *id).collect(),
            to,
            predicates,
            impossible,
            residual_violations,
            self_satisfied,
        })
    }

    /// Fig. 8 solver aid: synthesize a candidate configuration for `to`
    /// that provably satisfies the received envelope *and* the party's
    /// own goals, within the party's offer bounds. Other parties'
    /// relations are treated existentially (as in Alg. 1).
    pub fn synthesize_against(
        &mut self,
        to: PartyId,
        envelope: &Envelope,
    ) -> Result<Outcome, MuppetError> {
        let party = self.party(to)?;
        let mut op_span = muppet_obs::span("synthesize");
        op_span.attr("party", party.name.clone());
        let (bounds, groups) =
            self.party_input(party, envelope.to_groups(&self.party_names()));
        let (outcome, attempts) = self.solve(&bounds, &groups)?;
        op_span.record("attempts", u64::from(attempts));
        drop(op_span);
        Ok(outcome)
    }

    /// Fig. 8 solver aid: the *minimal edit* of `target` (the party's
    /// current or preferred configuration) that satisfies the envelope.
    /// Returns the edited configuration and the edit distance (tuple
    /// flips over the party's relations). The query ranges over the
    /// party's own relations with no symmetry breaking (lex-leader
    /// pruning would hide the true nearest model); its warm engine keeps
    /// the cardinality encoding and learned clauses, so a negotiation's
    /// counter-offer queries get cheaper round over round.
    pub fn minimal_edit(
        &mut self,
        to: PartyId,
        envelope: &Envelope,
        target: &Instance,
    ) -> Result<(Outcome, usize), MuppetError> {
        self.party(to)?;
        let mut op_span = muppet_obs::span("minimal_edit");
        let free = self.owned_rels(to);
        let mut groups = vec![self.axiom_group()];
        groups.extend(envelope.to_groups(&self.party_names()));
        let (result, attempts) = self.run(
            Engine::Warm,
            &free,
            &PartialInstance::new(),
            None,
            &groups,
            |pq, groups, budget| pq.solve_target(groups, target, budget),
        )?;
        op_span.record("attempts", u64::from(attempts));
        op_span.record("distance", result.1 as u64);
        drop(op_span);
        Ok(result)
    }

    /// Evaluate every party's goals over a complete combined instance
    /// (structure ∪ all configs). Returns `(goal name, holds)` pairs.
    /// Used to verify delivered configurations end-to-end.
    pub fn check_goals(&self, combined: &Instance) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for p in &self.parties {
            for g in &p.goals {
                let holds =
                    muppet_logic::evaluate_closed(&g.formula, combined, self.universe)
                        .unwrap_or(false);
                out.push((format!("{}: {}", p.name, g.name), holds));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::NamedGoal;
    use muppet_goals::{fig2, translate_istio_goals, translate_k8s_goals, IstioGoal};
    use muppet_mesh::MeshVocab;

    /// Build the paper's running example session: K8s admin with the
    /// Fig. 2 ban, Istio admin with the given goal rows.
    fn paper_session<'a>(mv: &'a MeshVocab, istio_rows: &[IstioGoal]) -> Session<'a> {
        let mut vocab = mv.vocab.clone();
        let k8s_goals = translate_k8s_goals(&fig2(), mv, &mut vocab).unwrap();
        let istio_goals = translate_istio_goals(istio_rows, mv, &mut vocab).unwrap();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let mut session = Session::new(&mv.universe, vocab, Instance::new());
        session.add_axioms(axioms);
        session.add_party(
            Party::new(mv.k8s_party, "k8s-admin")
                .with_goals(k8s_goals.into_iter().map(NamedGoal::from)),
        );
        session.add_party(
            Party::new(mv.istio_party, "istio-admin")
                .with_goals(istio_goals.into_iter().map(NamedGoal::from)),
        );
        session
    }

    #[test]
    fn renaming_a_party_cannot_alias_another_partys_group_keys() {
        // Cache fingerprints of goal/commitment groups must derive from
        // the stable PartyId, not the display name: if party 0 is
        // renamed to what party 1 used to be called (and handed its
        // goals), the resulting groups must NOT collide with party 1's
        // original encodings in any warm store keyed by content_key.
        let mv = MeshVocab::paper_example();
        let session = paper_session(&mv, &IstioGoal::fig3());
        let istio = session.party(mv.istio_party).unwrap().clone();
        let istio_keys: Vec<u128> = session
            .goal_groups(&istio)
            .iter()
            .map(|g| g.content_key())
            .collect();
        // Same name, same goals, different identity (the k8s slot).
        let impostor = Party::new(mv.k8s_party, istio.name.clone())
            .with_goals(istio.goals.iter().cloned());
        let impostor_keys: Vec<u128> = session
            .goal_groups(&impostor)
            .iter()
            .map(|g| g.content_key())
            .collect();
        assert_eq!(istio_keys.len(), impostor_keys.len());
        for (a, b) in istio_keys.iter().zip(&impostor_keys) {
            assert_ne!(a, b, "party rename aliased a cached group key");
        }
        // Commitment groups are tagged the same way.
        let mut committed = istio.clone();
        committed.offer.require(mv.istio_eg_guard, vec![mv.svc_atom("test-frontend").unwrap()]);
        let mut impostor_committed = impostor.clone();
        impostor_committed.offer = committed.offer.clone();
        let (_, a) = session.merge_offers(&[&committed], ReconcileMode::Blameable);
        let (_, b) = session.merge_offers(&[&impostor_committed], ReconcileMode::Blameable);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].name, b[0].name, "display names intentionally equal");
        assert_ne!(a[0].content_key(), b[0].content_key());
    }

    #[test]
    fn e1_fig3_goals_conflict_with_port_ban() {
        // The paper's central conflict: the union of the Fig. 2 and
        // Fig. 3 goal sets is unsatisfiable.
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success);
        // The minimal core blames exactly the ban and the backend →
        // frontend:23 reachability goal.
        assert_eq!(rec.core.len(), 2, "core: {:?}", rec.core);
        assert!(rec.core.iter().any(|n| n.contains("DENY port 23")));
        assert!(rec
            .core
            .iter()
            .any(|n| n.contains("test-backend -> test-frontend")));
    }

    #[test]
    fn e2_fig4_relaxation_reconciles() {
        // Relaxed goals (∃ ports): because service port exposure is in
        // the Istio administrator's domain, the synthesizer can re-expose
        // the frontend on one of the spare universe ports — the paper's
        // "choose up to four different ports".
        let mv = MeshVocab::paper_example();
        let mesh = mv.mesh().clone();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.success, "core: {:?}", rec.core);
        // Verify the delivered configs satisfy every goal.
        let mut combined = session.structure().clone();
        for c in rec.configs.values() {
            combined = combined.union(c);
        }
        for (name, holds) in session.check_goals(&combined) {
            assert!(holds, "goal {name} violated by delivered configs");
        }
        // And the K8s ban really bites: no flow to port 23 anywhere.
        let p23 = mv.port_atom(23).unwrap();
        for s in mesh.services() {
            for d in mesh.services() {
                let f = mv.allowed_formula(
                    Term::Const(mv.svc_atom(&s.name).unwrap()),
                    Term::Const(mv.svc_atom(&d.name).unwrap()),
                    Term::Const(p23),
                );
                assert!(
                    !muppet_logic::evaluate_closed(&f, &combined, &mv.universe).unwrap(),
                    "{} -> {} :23 should be blocked",
                    s.name,
                    d.name
                );
            }
        }
    }

    #[test]
    fn local_consistency_of_each_side() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        // Each party alone is locally consistent (the conflict is joint).
        let k8s = session.local_consistency(mv.k8s_party).unwrap();
        assert!(k8s.ok);
        assert!(k8s.witness.is_some());
        let istio = session.local_consistency(mv.istio_party).unwrap();
        assert!(istio.ok);
    }

    #[test]
    fn local_consistency_fails_on_self_contradiction() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        // Give the K8s admin two directly contradictory goals over its
        // own relations.
        let fe = mv.svc_atom("test-frontend").unwrap();
        let guard = Formula::pred(mv.k8s_in_guard, [Term::Const(fe)]);
        let k8s_id = mv.k8s_party;
        session.party_mut(k8s_id).unwrap().goals.extend([
            NamedGoal::hard("guard the frontend", guard.clone()),
            NamedGoal::hard("never guard the frontend", Formula::not(guard)),
        ]);
        let report = session.local_consistency(k8s_id).unwrap();
        assert!(!report.ok);
        assert_eq!(report.core.len(), 2, "core: {:?}", report.core);
        assert!(report.core.iter().all(|c| c.contains("guard the frontend")));
    }

    #[test]
    fn e3_envelope_has_fig5_shape() {
        let mv = MeshVocab::paper_example();
        let session = paper_session(&mv, &IstioGoal::fig3());
        // Conformance: K8s is the provider; its fixed configuration is
        // (so far) empty — the envelope speaks entirely in Istio terms.
        let env = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        assert_eq!(env.predicates.len(), 1);
        assert!(env.impossible.is_empty());
        let f = &env.predicates[0].formula;
        // Shape: ∀src ∀dst (or of exactly 5 disjunct families).
        let Formula::Forall(_, _, body) = f else {
            panic!("expected ∀src, got {f:?}");
        };
        let Formula::Forall(_, _, body) = body.as_ref() else {
            panic!("expected ∀dst");
        };
        let Formula::Or(disjuncts) = body.as_ref() else {
            panic!("expected disjunction, got {body:?}");
        };
        assert_eq!(disjuncts.len(), 5, "{disjuncts:#?}");
        // No K8s relation survives substitution.
        assert!(!f.mentions_domain(session.vocab(), Domain::Party(mv.k8s_party)));
        // The five families of Fig. 5: ¬listens(dst,23); istio_in_deny;
        // (istio_in_guard ∧ ¬istio_in_allow); istio_eg_deny;
        // (istio_eg_guard ∧ ¬istio_eg_allow).
        let mut seen_not_listens = false;
        let mut seen_eg_deny = false;
        let mut seen_eg_implicit = false;
        let mut seen_in_deny = false;
        let mut seen_in_implicit = false;
        for d in disjuncts {
            match d {
                Formula::Not(inner) => {
                    if let Formula::Pred(r, _) = inner.as_ref() {
                        if *r == mv.listens {
                            seen_not_listens = true;
                        }
                    }
                }
                Formula::Pred(r, _) if *r == mv.istio_eg_deny => seen_eg_deny = true,
                Formula::Pred(r, _) if *r == mv.istio_in_deny => seen_in_deny = true,
                Formula::And(parts) => {
                    let rels: Vec<_> = parts.iter().flat_map(|p| p.rels()).collect();
                    if rels.contains(&mv.istio_eg_guard) && rels.contains(&mv.istio_eg_allow) {
                        seen_eg_implicit = true;
                    }
                    if rels.contains(&mv.istio_in_guard) && rels.contains(&mv.istio_in_allow) {
                        seen_in_implicit = true;
                    }
                }
                other => panic!("unexpected disjunct {other:?}"),
            }
        }
        assert!(
            seen_not_listens
                && seen_eg_deny
                && seen_eg_implicit
                && seen_in_deny
                && seen_in_implicit
        );
        // Privacy: the envelope reveals the special status of port 23
        // "but little else".
        let leak = env.leakage(&mv.universe);
        assert_eq!(leak.revealed_atoms, vec!["23".to_string()]);
    }

    #[test]
    fn envelope_check_accepts_and_rejects_istio_configs() {
        let mv = MeshVocab::paper_example();
        let session = paper_session(&mv, &IstioGoal::fig3());
        let env = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        // Open Istio config (the current deployment): the frontend
        // listens on 23 and nothing blocks it ⇒ violates the envelope.
        let open = mv.structure_instance();
        assert!(!env.check(&open, &mv.universe).is_empty());
        // Istio config that bans egress to 23 for every service.
        let lockdown = mv
            .compile_istio(&[muppet_mesh::AuthorizationPolicy {
                name: "deny-23-egress".into(),
                selector: muppet_mesh::Selector::All,
                direction: muppet_mesh::Direction::Egress,
                action: muppet_mesh::Action::Deny,
                rules: vec![muppet_mesh::AuthPolicyRule::to_ports([23])],
            }])
            .unwrap();
        let with_lockdown = mv.structure_instance().union(&lockdown);
        assert!(env.check(&with_lockdown, &mv.universe).is_empty());
    }

    #[test]
    fn synthesize_against_envelope_produces_compatible_config() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        let env = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        match session.synthesize_against(mv.istio_party, &env).unwrap() {
            Outcome::Sat { solution, .. } => {
                let istio_cfg =
                    solution.restrict_to_domain(session.vocab(), Domain::Party(mv.istio_party));
                assert!(env.check(&istio_cfg, &mv.universe).is_empty());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn fig3_goals_cannot_satisfy_envelope() {
        // With the strict Fig. 3 goals (backend→frontend:23 required),
        // no Istio configuration satisfies envelope + goals.
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let env = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        match session.synthesize_against(mv.istio_party, &env).unwrap() {
            Outcome::Unsat { core, .. } => {
                assert!(core.iter().any(|n| n.contains("envelope from k8s-admin")));
                assert!(core
                    .iter()
                    .any(|n| n.contains("test-backend -> test-frontend")));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn minimal_edit_against_envelope_is_small() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let env = session
            .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
            .unwrap();
        // Target: the Istio admin's current deployment (frontend exposed
        // on 23, no policies). Two one-edit fixes exist, both straight
        // out of Fig. 5: stop exposing port 23 (disjunct 1), or add an
        // empty ingress ALLOW policy on the frontend — a guard with no
        // allow rules, i.e. implicit-deny-everything (disjunct 5).
        let target = mv.structure_instance();
        let (outcome, dist) = session
            .minimal_edit(mv.istio_party, &env, &target)
            .unwrap();
        match outcome {
            Outcome::Sat { solution, .. } => {
                let istio_cfg =
                    solution.restrict_to_domain(session.vocab(), Domain::Party(mv.istio_party));
                assert!(env.check(&istio_cfg, &mv.universe).is_empty());
                assert_eq!(dist, 1, "a one-edit fix exists");
                assert_eq!(istio_cfg.distance(&target), 1);
                let fe = mv.svc_atom("test-frontend").unwrap();
                let p23 = mv.port_atom(23).unwrap();
                let unexposed = !istio_cfg.holds(mv.listens, &[fe, p23]);
                let locked_down = istio_cfg.holds(mv.istio_in_guard, &[fe])
                    && istio_cfg.count(mv.istio_in_allow) == 0;
                assert!(unexposed || locked_down, "{istio_cfg:?}");
            }
            other => panic!("expected sat at distance 1, got {other:?}"),
        }
    }

    #[test]
    fn blameable_mode_blames_committed_settings() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        // Drop the K8s *goal* and instead have the K8s admin hard-commit
        // a deny tuple that breaks istio goal 2.
        let k8s_id = mv.k8s_party;
        session.party_mut(k8s_id).unwrap().goals.clear();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        let mut offer = PartialInstance::new();
        offer.require(mv.k8s_in_deny, vec![fe, be, p23]);
        // Permit everything else for the K8s admin (an unbounded upper
        // bound would also work; requiring the single tuple plus leaving
        // other relations unbounded is simplest).
        session.party_mut(k8s_id).unwrap().offer = offer;
        let rec = session.reconcile(ReconcileMode::Blameable).unwrap();
        assert!(!rec.success);
        assert!(rec
            .core
            .iter()
            .any(|n| n.contains("k8s-admin: committed settings")));
        assert!(rec
            .core
            .iter()
            .any(|n| n.contains("test-backend -> test-frontend")));
        // Hard-bounds mode also fails but cannot name the commitment.
        let rec2 = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(!rec2.success);
        assert!(!rec2.core.iter().any(|n| n.contains("committed settings")));
    }

    #[test]
    fn impossible_goals_are_reported() {
        // ∃x (istio_in_guard(x) ∧ k8s_in_guard(x)) with an empty K8s
        // config: the quantifier expands (the variable reaches a K8s
        // atom), every disjunct contains a false K8s conjunct, and the
        // predicate collapses to False — no Istio configuration can
        // rescue the goal, so it lands in `impossible`.
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let mut vocab = mv.vocab.clone();
        let x = vocab.fresh_var();
        let goal = Formula::exists(
            x,
            mv.svc_sort,
            Formula::and([
                Formula::pred(mv.istio_in_guard, [Term::Var(x)]),
                Formula::pred(mv.k8s_in_guard, [Term::Var(x)]),
            ]),
        );
        let k8s_id = mv.k8s_party;
        session
            .party_mut(k8s_id)
            .unwrap()
            .goals
            .push(NamedGoal::hard("joint guard somewhere", goal));
        let env = session
            .compute_envelope(k8s_id, mv.istio_party, &Instance::new())
            .unwrap();
        assert!(env
            .impossible
            .contains(&"joint guard somewhere".to_string()));
        assert!(!env.is_trivial());
        // With a K8s config guarding the frontend, the goal becomes a
        // real obligation on Istio instead.
        let fe = mv.svc_atom("test-frontend").unwrap();
        let mut c_a = Instance::new();
        c_a.insert(mv.k8s_in_guard, vec![fe]);
        let env = session
            .compute_envelope(k8s_id, mv.istio_party, &c_a)
            .unwrap();
        assert!(env.impossible.is_empty());
        assert!(env
            .predicates
            .iter()
            .any(|p| p.source_goal == "joint guard somewhere"));
    }

    #[test]
    fn residual_violations_are_detected() {
        // A K8s-only goal the K8s fixed config violates: "some service
        // must have an ingress guard" vs an empty C_A.
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let mut vocab = mv.vocab.clone();
        let v = vocab.fresh_var();
        let goal = Formula::exists(
            v,
            mv.svc_sort,
            Formula::pred(mv.k8s_in_guard, [Term::Var(v)]),
        );
        let k8s_id = mv.k8s_party;
        session
            .party_mut(k8s_id)
            .unwrap()
            .goals
            .push(NamedGoal::hard("guard somewhere", goal));
        let env = session
            .compute_envelope(k8s_id, mv.istio_party, &Instance::new())
            .unwrap();
        assert!(env
            .residual_violations
            .contains(&"guard somewhere".to_string()));
    }

    #[test]
    fn unknown_party_errors() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig3());
        let ghost = PartyId(9);
        assert!(matches!(
            session.local_consistency(ghost),
            Err(MuppetError::UnknownParty(_))
        ));
        assert!(session.party(ghost).is_err());
    }

    /// Acceptance: a deadline-bounded reconciliation that hits an
    /// (injected) Search-phase exhaustion degrades to a structured
    /// report instead of erroring or hanging.
    #[test]
    fn budgeted_reconcile_degrades_to_exhaustion_report() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        session.set_budget(
            Budget::unlimited().with_timeout(std::time::Duration::from_millis(100)),
        );
        let _armed = muppet_solver::fault::Armed::new(Phase::Search, 1);
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success, "exhausted run must not claim success");
        let ex = rec.exhausted.expect("must carry an exhaustion report");
        assert_eq!(ex.phase, Phase::Search);
        assert_eq!(ex.attempts, 1);
    }

    /// Acceptance: the same injected exhaustion is absorbed by an
    /// escalated retry — the failpoint consumes itself on attempt 1 and
    /// attempt 2 solves the instance for real.
    #[test]
    fn escalated_retry_recovers_from_injected_exhaustion() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        session.set_retry_policy(RetryPolicy::new(u64::MAX, 2));
        let _armed = muppet_solver::fault::Armed::new(Phase::Search, 1);
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.exhausted.is_none(), "retry must clear the exhaustion");
        assert!(rec.success, "core: {:?}", rec.core);
    }

    /// Local consistency follows the same degradation contract.
    #[test]
    fn budgeted_local_consistency_degrades() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        session.set_budget(Budget::unlimited().with_conflict_cap(u64::MAX));
        let _armed = muppet_solver::fault::Armed::new(Phase::Search, 1);
        let report = session.local_consistency(mv.k8s_party).unwrap();
        assert!(!report.ok);
        let ex = report.exhausted.expect("must carry an exhaustion report");
        assert_eq!(ex.phase, Phase::Search);
    }

    /// The verdict fields of a reconciliation (stats excluded: a warm
    /// engine does less work by design).
    fn verdict(rec: &Reconciliation) -> String {
        format!("{} {:?} {:?} {:?}", rec.success, rec.configs, rec.core, rec.exhausted.is_some())
    }

    /// A second identical call on the same session encodes no new
    /// groups and answers byte-identically to the first — on the UNSAT
    /// (Fig. 3) and SAT (Fig. 4) cases, for Alg. 1 and Alg. 2.
    #[test]
    fn repeat_call_on_one_session_reuses_every_group() {
        let mv = MeshVocab::paper_example();
        for rows in [IstioGoal::fig3(), IstioGoal::fig4()] {
            let mut s = paper_session(&mv, &rows);
            let first = s.reconcile(ReconcileMode::HardBounds).unwrap();
            let (encoded, reused) = s.store().group_counters();
            let second = s.reconcile(ReconcileMode::HardBounds).unwrap();
            assert_eq!(verdict(&first), verdict(&second));
            assert_eq!(s.store().group_counters(), (encoded, reused + encoded));
            assert_eq!(s.store().hits(), 1, "second call must hit the warm engine");

            let k1 = s.local_consistency(mv.k8s_party).unwrap();
            let (encoded, reused) = s.store().group_counters();
            let k2 = s.local_consistency(mv.k8s_party).unwrap();
            assert_eq!(
                format!("{} {:?} {:?}", k1.ok, k1.witness, k1.core),
                format!("{} {:?} {:?}", k2.ok, k2.witness, k2.core)
            );
            let (encoded2, reused2) = s.store().group_counters();
            assert_eq!(encoded2, encoded, "repeat consistency check encoded new groups");
            assert!(reused2 > reused);
        }
    }

    /// A fresh session's reconcile encodes exactly one group per
    /// distinct signature key, so the stream session's dirty-group
    /// prediction matches what reconcile submits.
    #[test]
    fn reconcile_encodes_one_group_per_signature_key() {
        let mv = MeshVocab::paper_example();
        for mode in [ReconcileMode::HardBounds, ReconcileMode::Blameable] {
            let mut s = paper_session(&mv, &IstioGoal::fig3());
            let fe = mv.svc_atom("test-frontend").unwrap();
            s.party_mut(mv.istio_party)
                .unwrap()
                .offer
                .require(mv.istio_eg_guard, vec![fe]);
            let keys: std::collections::BTreeSet<u128> = s
                .reconcile_group_signatures(mode)
                .into_iter()
                .map(|(_, k)| k)
                .collect();
            s.reconcile(mode).unwrap();
            let (encoded, _) = s.store().group_counters();
            assert_eq!(encoded, keys.len() as u64, "{mode:?}");
        }
    }

    /// Symmetry-breaking solves run on one-shot engines: the permanent
    /// lex clauses must never enter the warm store.
    #[test]
    fn symmetry_breaking_solves_bypass_the_store() {
        let mv = MeshVocab::paper_example();
        let mut s = paper_session(&mv, &IstioGoal::fig4());
        s.set_symmetry_breaking(true);
        let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.success);
        assert!(s.store().is_empty(), "one-shot solves must not populate the store");
    }

    /// An expired deadline (no fault injection at all) also yields the
    /// structured report rather than a panic or a wrong verdict.
    #[test]
    fn expired_deadline_reconcile_reports_exhaustion() {
        let mv = MeshVocab::paper_example();
        let mut session = paper_session(&mv, &IstioGoal::fig4());
        session.set_budget(
            Budget::unlimited().with_timeout(std::time::Duration::from_millis(0)),
        );
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success);
        assert!(rec.exhausted.is_some(), "expired deadline must degrade");
    }
}
