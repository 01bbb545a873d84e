//! The incremental compilation engine: one warm ground→encode→search→
//! minimize pipeline behind every solve path (DESIGN.md §13).
//!
//! An [`IncrementalQuery`] owns its vocabulary/universe (no borrowed
//! lifetimes, so it can outlive the session that built it), keeps the
//! SAT solver, variable map and every Tseitin-encoded formula group
//! alive across requests, and gates each group behind a selector
//! literal. A later request that shares groups with an earlier one
//! re-grounds and re-encodes *nothing*: it just assumes the selectors
//! of the groups it needs. Groups absent from a request are inert
//! (their clauses are `¬sel ∨ …` and `sel` is not assumed), which is
//! what makes delta-aware reuse sound.
//!
//! Learned clauses and variable activity persist in the warm solver,
//! so negotiation round *N* starts from round *N−1*'s search state.
//! Because a warm solver's heuristic state differs from a cold one's,
//! every satisfiable answer is **canonicalized** to the
//! lexicographically smallest model over the free tuple variables (in
//! ascending variable order, `false < true`) and every minimized core
//! is shrunk by deterministic ordered deletion — so warm, cold and
//! portfolio runs return byte-identical verdicts, models and cores.
//! Canonicalization costs one incremental solve per `true` variable,
//! so it applies below a free-variable cap
//! ([`DEFAULT_CANONICAL_CAP`], adjustable per engine): the cap is a
//! pure function of the instance, so warm and cold agree on whether it
//! fires, and above it answers stay valid but the witness model is
//! whichever the search produced.
//!
//! The one-shot [`crate::Query`] facade compiles into a fresh engine
//! per call; [`crate::PreparedStore`] keeps warm engines keyed by
//! query shape.

use std::collections::HashMap;

use muppet_logic::fingerprint::Fingerprinter;
use muppet_logic::{Formula, Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_obs::{Counter, Gauge};
use muppet_portfolio::{solve_portfolio, PortfolioConfig, PortfolioSummary};
use muppet_sat::{mus, Budget, Lit, Model, ReduceStrategy, SolveResult, Solver, SolverStats, Var};

use crate::ground::{ground, GroundError};
use crate::query::{FormulaGroup, Outcome, PartialResult, Phase, QueryError, QueryStats};
use crate::totalizer::Totalizer;
use crate::tseitin::encode;
use crate::varmap::VarMap;

/// Handle to a formula group already grounded + encoded into an
/// [`IncrementalQuery`]. Only meaningful for the engine that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupId(usize);

/// How [`IncrementalQuery::ensure_group`] can fail.
#[derive(Debug)]
pub enum PrepareError {
    /// The group's formulas could not be grounded (free variables).
    Ground(GroundError),
    /// The budget fired while grounding or encoding the group.
    Exhausted(Phase),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Ground(e) => write!(f, "grounding failed: {e}"),
            PrepareError::Exhausted(phase) => {
                write!(f, "budget exhausted at phase {phase} while preparing group")
            }
        }
    }
}

impl std::error::Error for PrepareError {}

/// Default free-variable cap under which satisfiable models are
/// canonicalized (see the module docs). Covers every scenario in the
/// paper — the Fig. 1–4 mesh reconcile sits at 390 free tuple
/// variables — with headroom for moderately larger meshes; big
/// synthetic instances skip the canonical walk rather than pay
/// `O(free vars)` extra solves per answer.
pub const DEFAULT_CANONICAL_CAP: usize = 768;

/// Fingerprint tag separating OLL relaxation-sum totalizers from the
/// difference-indicator totalizers in the shared cache: the two kinds
/// can range over overlapping literal sets but encode different
/// constraints.
const OLL_SUM_TAG: u64 = 0x4f4c_4c5f_5355_4d31; // "OLL_SUM1"

/// How [`IncrementalQuery::solve_target`] proves the minimal edit
/// distance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TargetStrategy {
    /// Core-guided (OLL-style) ascent: every UNSAT core raises the
    /// proven lower bound by one and is relaxed through a cached
    /// totalizer, so hard instances climb in conflict-driven steps
    /// instead of one solve per candidate distance.
    #[default]
    CoreGuided,
    /// Linear search upward from distance 0 over the cached difference
    /// totalizer — the pre-OLL baseline, kept as a differential oracle
    /// and as the semantics both strategies degrade to under budget
    /// exhaustion (best-so-far partial model).
    Linear,
}

/// The warm incremental engine: solver + varmap built once, formula
/// groups encoded on first use and activated by selector assumptions
/// ever after. See the module docs for the reuse and canonicalization
/// contracts.
///
/// Restriction: [`IncrementalQuery::add_symmetry_breaking`] installs
/// *permanent*, goal-set-dependent lex clauses, so it is only sound on
/// an engine used once and dropped. Warm callers must not enable it —
/// `Session` runs symmetry-breaking solves on a one-shot engine.
pub struct IncrementalQuery {
    vocab: Vocabulary,
    universe: Universe,
    free_rels: Vec<RelId>,
    bounds: PartialInstance,
    fixed: Instance,
    solver: Solver,
    varmap: VarMap,
    selectors: Vec<(String, Lit)>,
    /// Group content fingerprint → index into `selectors`.
    index: HashMap<u128, usize>,
    /// Difference-input fingerprint → cardinality network, so repeated
    /// target-oriented solves against the same target reuse the
    /// (permanent, one-sided, assumption-activated) totalizer clauses.
    totalizers: HashMap<u128, Totalizer>,
    minimize_cores: bool,
    canonical_cap: usize,
    portfolio: Option<PortfolioConfig>,
    target_strategy: TargetStrategy,
    /// Lifetime count of OLL cores consumed by core-guided target
    /// solves on this engine; [`QueryStats::oll_cores`] reports the
    /// per-solve delta.
    oll_rounds: u64,
    /// Kernel counter values already pushed to the metrics registry;
    /// [`Self::publish_kernel_metrics`] publishes the delta since.
    kernel_published: SolverStats,
    encoded_groups: u64,
    reused_groups: u64,
    ctr_encoded: Counter,
    ctr_reused: Counter,
    ctr_inprocessings: Counter,
    ctr_subsumed: Counter,
    ctr_strengthened: Counter,
    ctr_vivified: Counter,
    ctr_oll_cores: Counter,
    gauge_tier_core: Gauge,
    gauge_tier_mid: Gauge,
    gauge_tier_local: Gauge,
}

impl IncrementalQuery {
    /// Build the warm state: allocate the free-relation variables under
    /// `bounds` against `fixed`. Groups are added lazily via
    /// [`IncrementalQuery::ensure_group`].
    ///
    /// The vocabulary and universe are cloned so the engine is
    /// self-contained (`'static`) and can be cached across sessions
    /// that rebuild their borrowed views per request.
    pub fn new(
        vocab: &Vocabulary,
        universe: &Universe,
        free_rels: &[RelId],
        bounds: &PartialInstance,
        fixed: Instance,
    ) -> IncrementalQuery {
        let vocab = vocab.clone();
        let universe = universe.clone();
        let mut solver = Solver::new();
        let varmap = VarMap::build(&vocab, &universe, free_rels, bounds, &mut solver);
        let metrics = muppet_obs::registry();
        IncrementalQuery {
            vocab,
            universe,
            free_rels: free_rels.to_vec(),
            bounds: bounds.clone(),
            fixed,
            solver,
            varmap,
            selectors: Vec::new(),
            index: HashMap::new(),
            totalizers: HashMap::new(),
            minimize_cores: true,
            canonical_cap: DEFAULT_CANONICAL_CAP,
            portfolio: None,
            target_strategy: TargetStrategy::default(),
            oll_rounds: 0,
            kernel_published: SolverStats::default(),
            encoded_groups: 0,
            reused_groups: 0,
            ctr_encoded: metrics.counter("engine.groups.encoded"),
            ctr_reused: metrics.counter("engine.groups.reused"),
            ctr_inprocessings: metrics.counter("kernel.inprocessings"),
            ctr_subsumed: metrics.counter("kernel.subsumed_clauses"),
            ctr_strengthened: metrics.counter("kernel.strengthened_clauses"),
            ctr_vivified: metrics.counter("kernel.vivified_clauses"),
            ctr_oll_cores: metrics.counter("kernel.oll_cores"),
            gauge_tier_core: metrics.gauge("kernel.tier.core"),
            gauge_tier_mid: metrics.gauge("kernel.tier.mid"),
            gauge_tier_local: metrics.gauge("kernel.tier.local"),
        }
    }

    /// How target-oriented solves prove the minimal distance (default:
    /// core-guided). The two strategies return byte-identical outcomes
    /// and distances; only the search trajectory (and therefore cost)
    /// differs.
    pub fn set_target_strategy(&mut self, strategy: TargetStrategy) -> &mut Self {
        self.target_strategy = strategy;
        self
    }

    /// The current target-oriented search strategy.
    pub fn target_strategy(&self) -> TargetStrategy {
        self.target_strategy
    }

    /// Toggle the kernel's restart-boundary inprocessing (subsumption,
    /// self-subsuming resolution, vivification). Passthrough to
    /// [`muppet_sat::Solver::set_inprocessing`]; on by default.
    pub fn set_inprocessing(&mut self, on: bool) -> &mut Self {
        self.solver.set_inprocessing(on);
        self
    }

    /// Conflicts between kernel inprocessing passes (clamped to ≥ 1).
    /// Passthrough to [`muppet_sat::Solver::set_inprocess_interval`];
    /// meant for differential tests that need the pass to fire on small
    /// instances.
    pub fn set_inprocess_interval(&mut self, conflicts: u64) -> &mut Self {
        self.solver.set_inprocess_interval(conflicts);
        self
    }

    /// Select the kernel's learnt-clause retention policy. Passthrough
    /// to [`muppet_sat::Solver::set_reduce_strategy`]; the tiered DB is
    /// the default, the flat cap is the pre-change baseline.
    pub fn set_reduce_strategy(&mut self, strategy: ReduceStrategy) -> &mut Self {
        self.solver.set_reduce_strategy(strategy);
        self
    }

    /// Whether UNSAT cores are shrunk to minimal ones (default: yes).
    /// Shrinking uses deterministic ordered deletion, so minimized
    /// cores are identical warm and cold; with minimization off the
    /// solver's first core is returned, which *does* depend on search
    /// state.
    pub fn set_minimize_cores(&mut self, minimize: bool) -> &mut Self {
        self.minimize_cores = minimize;
        self
    }

    /// Free-variable cap under which satisfiable models are
    /// canonicalized (default [`DEFAULT_CANONICAL_CAP`]).
    pub fn canonical_cap(&self) -> usize {
        self.canonical_cap
    }

    /// Adjust the canonicalization cap. `usize::MAX` canonicalizes
    /// unconditionally; `0` disables the canonical walk. Must be set
    /// identically on every engine whose answers are compared
    /// byte-for-byte.
    pub fn set_canonical_cap(&mut self, cap: usize) -> &mut Self {
        self.canonical_cap = cap;
        self
    }

    /// Fan the search phase of [`IncrementalQuery::solve`] out across a
    /// portfolio of diversified workers. `None` (the default) or a
    /// config with `threads <= 1` keeps the search sequential. The
    /// shared proofs flow back into the warm solver, so later solves on
    /// this engine benefit from earlier races. Target-oriented solving
    /// and enumeration stay sequential either way.
    pub fn set_portfolio(&mut self, portfolio: Option<PortfolioConfig>) -> &mut Self {
        self.portfolio = portfolio;
        self
    }

    /// Content fingerprint of a group — [`FormulaGroup::content_key`].
    fn group_key(group: &FormulaGroup) -> u128 {
        group.content_key()
    }

    /// Ground + encode `group` if this engine has not seen its content
    /// before; otherwise reuse the existing encoding. The returned id
    /// activates the group in a later solve.
    pub fn ensure_group(
        &mut self,
        group: &FormulaGroup,
        budget: &Budget,
    ) -> Result<GroupId, PrepareError> {
        let key = Self::group_key(group);
        if let Some(&i) = self.index.get(&key) {
            self.reused_groups += 1;
            self.ctr_reused.inc();
            return Ok(GroupId(i));
        }
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Ground) {
            return Err(PrepareError::Exhausted(Phase::Ground));
        }
        if budget.poll().is_some() {
            return Err(PrepareError::Exhausted(Phase::Ground));
        }
        let mut ground_span = muppet_obs::span("ground");
        ground_span.record("groups", 1);
        let exprs = group
            .formulas
            .iter()
            .map(|f| ground(f, &self.varmap, &self.fixed, &self.universe))
            .collect::<Result<Vec<_>, _>>()
            .map_err(PrepareError::Ground)?;
        drop(ground_span);
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Encode) {
            return Err(PrepareError::Exhausted(Phase::Encode));
        }
        if budget.poll().is_some() {
            return Err(PrepareError::Exhausted(Phase::Encode));
        }
        // Encode phase: the group's selector implies each formula's
        // root literal (`¬sel ∨ lit_f` per formula — one-sided, so the
        // clauses are inert whenever `sel` is not assumed).
        let mut encode_span = muppet_obs::span("encode");
        encode_span.record("groups", 1);
        let sel = Lit::pos(self.solver.new_var());
        for expr in &exprs {
            let lit = encode(expr, &mut self.solver);
            self.solver.add_clause([!sel, lit]);
        }
        drop(encode_span);
        let i = self.selectors.len();
        self.selectors.push((group.name.clone(), sel));
        self.index.insert(key, i);
        self.encoded_groups += 1;
        self.ctr_encoded.inc();
        Ok(GroupId(i))
    }

    /// Install lex-leader symmetry-breaking clauses for the given goal
    /// set. The clauses are **permanent** and goal-set dependent, so
    /// this is only sound on an engine used as a one-shot (the
    /// [`crate::Query`] facade); never call it on a warm engine.
    pub fn add_symmetry_breaking(&mut self, groups: &[FormulaGroup]) {
        let formulas: Vec<&Formula> = groups.iter().flat_map(|g| g.formulas.iter()).collect();
        let classes = crate::symmetry::interchangeable_classes(
            &self.vocab,
            &self.universe,
            &formulas,
            &self.fixed,
            &self.bounds,
        );
        crate::symmetry::add_symmetry_breaking(
            &classes,
            &self.free_rels,
            &self.vocab,
            &self.universe,
            &self.varmap,
            &mut self.solver,
            crate::symmetry::DEFAULT_MAX_PAIRS,
        );
    }

    /// Counters snapshot before a solve; [`Self::delta_stats`] reports
    /// the work done since.
    fn stats_base(&self) -> QueryStats {
        QueryStats {
            free_tuple_vars: 0,
            conflicts: self.solver.stats.conflicts,
            decisions: self.solver.stats.decisions,
            propagations: self.solver.stats.propagations,
            restarts: self.solver.stats.restarts,
            inprocessings: self.solver.stats.inprocessings,
            oll_cores: self.oll_rounds,
            portfolio: None,
        }
    }

    fn delta_stats(&self, base: &QueryStats, summary: Option<PortfolioSummary>) -> QueryStats {
        QueryStats {
            free_tuple_vars: self.varmap.num_free_vars(),
            conflicts: self.solver.stats.conflicts.saturating_sub(base.conflicts),
            decisions: self.solver.stats.decisions.saturating_sub(base.decisions),
            propagations: self.solver.stats.propagations.saturating_sub(base.propagations),
            restarts: self.solver.stats.restarts.saturating_sub(base.restarts),
            inprocessings: self
                .solver
                .stats
                .inprocessings
                .saturating_sub(base.inprocessings),
            oll_cores: self.oll_rounds.saturating_sub(base.oll_cores),
            portfolio: summary,
        }
    }

    /// Push the kernel's inprocessing counters to the metrics registry
    /// as deltas since the last publish, and refresh the tier-size
    /// gauges. Called at the end of every solve entry point so the
    /// daemon's `stats` op sees live kernel numbers.
    fn publish_kernel_metrics(&mut self) {
        let s = self.solver.stats;
        let p = self.kernel_published;
        self.ctr_inprocessings
            .add(s.inprocessings.saturating_sub(p.inprocessings));
        self.ctr_subsumed
            .add(s.subsumed_clauses.saturating_sub(p.subsumed_clauses));
        self.ctr_strengthened
            .add(s.strengthened_clauses.saturating_sub(p.strengthened_clauses));
        self.ctr_vivified
            .add(s.vivified_clauses.saturating_sub(p.vivified_clauses));
        self.kernel_published = s;
        let (core, mid, local) = self.solver.tier_sizes();
        self.gauge_tier_core.set(core as u64);
        self.gauge_tier_mid.set(mid as u64);
        self.gauge_tier_local.set(local as u64);
    }

    fn assumptions_for(&self, active: &[GroupId]) -> Vec<Lit> {
        active
            .iter()
            .filter_map(|g| self.selectors.get(g.0).map(|(_, l)| *l))
            .collect()
    }

    /// Group names of the core `lits`, ordered by the **current
    /// solve's assumption order** (= the caller's group submission
    /// order), not the engine's selector-creation order. A warm engine
    /// carries selectors from earlier solves in whatever order history
    /// created them, so ordering by `self.selectors` would make core
    /// order depend on engine history; ordering by `assumptions` makes
    /// warm, cold and portfolio cores byte-identical. (The shrinker
    /// already returns an ordered subsequence of the assumptions; this
    /// also normalizes raw solver-reported cores, whose order is
    /// heuristic-dependent.)
    fn names_of_in(&self, assumptions: &[Lit], lits: &[Lit]) -> Vec<String> {
        assumptions
            .iter()
            .filter(|l| lits.contains(l))
            .filter_map(|l| {
                self.selectors
                    .iter()
                    .find(|(_, sl)| sl == l)
                    .map(|(n, _)| n.clone())
            })
            .collect()
    }

    /// Reduce `model` to the canonical (lexicographically smallest)
    /// model under `assumptions`: walk the free tuple variables in
    /// ascending variable order, fixing each to `false` when some model
    /// agrees with the prefix built so far and to `true` otherwise.
    ///
    /// Each variable's final value is a pure function of the problem
    /// semantics and the variable order — independent of solver
    /// heuristic state — which is what makes warm, cold and portfolio
    /// answers byte-identical. Costs at most one incremental solve per
    /// variable the intermediate models assign `true`, so instances
    /// with more than [`Self::canonical_cap`] free variables skip the
    /// walk (the cap itself is a pure function of the instance, so the
    /// skip is identical warm and cold); a budget firing mid-walk
    /// returns the current (valid, possibly non-canonical) model rather
    /// than losing the answer.
    fn canonicalize(&mut self, mut model: Model, assumptions: &[Lit]) -> Model {
        if self.varmap.num_free_vars() > self.canonical_cap {
            return model;
        }
        let free: Vec<Var> = self.varmap.free_tuples().map(|(v, _, _)| v).collect();
        let mut assms = assumptions.to_vec();
        let base_len = assms.len();
        let mut prefix: Vec<Lit> = Vec::with_capacity(free.len());
        for v in free {
            if !model.value(v) {
                // `model` satisfies prefix ∪ {¬v}: no probe needed.
                prefix.push(Lit::neg(v));
                continue;
            }
            assms.truncate(base_len);
            assms.extend_from_slice(&prefix);
            assms.push(Lit::neg(v));
            match self.solver.solve_with_assumptions(&assms) {
                SolveResult::Sat(better) => {
                    model = better;
                    prefix.push(Lit::neg(v));
                }
                SolveResult::Unsat(_) => prefix.push(Lit::pos(v)),
                SolveResult::Unknown => return model,
            }
        }
        model
    }

    /// Ensure the global difference-count totalizer for a
    /// `solve_target` call is encoded and return its negated outputs
    /// (`&outputs[k..]` assumes "at most k differences"). Cached by the
    /// difference-indicator fingerprint, so warm engines re-solving
    /// against the same target reuse the clauses.
    fn target_totalizer(&mut self, diff_inputs: &[Lit], tkey: u128) -> Vec<Lit> {
        if !self.totalizers.contains_key(&tkey) {
            let tot = Totalizer::build(diff_inputs, &mut self.solver);
            self.totalizers.insert(tkey, tot);
        }
        self.totalizers[&tkey].at_most(0)
    }

    /// The shared search → minimize tail: run the CDCL search under the
    /// already-installed budget (fanning out across a portfolio when
    /// configured), canonicalize satisfiable models, shrink cores by
    /// ordered deletion, and report work counters as the delta from
    /// `base`.
    fn run_search(&mut self, assumptions: &[Lit], base: &QueryStats) -> Outcome {
        // Failpoints are thread-local: check on the calling thread
        // before any portfolio fan-out, so fault-injected queries
        // always degrade on the sequential path.
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Search) {
            return Outcome::Unknown {
                phase: Phase::Search,
                stats: self.delta_stats(base, None),
                partial: None,
            };
        }
        let mut summary: Option<PortfolioSummary> = None;
        let mut search_span = muppet_obs::span("search");
        let search_result = match self.portfolio {
            Some(cfg) if cfg.is_parallel() => {
                let (result, s) = solve_portfolio(&mut self.solver, assumptions, &cfg);
                summary = Some(s);
                result
            }
            _ => self.solver.solve_with_assumptions(assumptions),
        };
        // Canonicalize inside the search span so its probes are
        // attributed to the search phase.
        let search_result = match search_result {
            SolveResult::Sat(model) => SolveResult::Sat(self.canonicalize(model, assumptions)),
            other => other,
        };
        if search_span.is_recording() {
            let d = self.delta_stats(base, summary);
            search_span.record("conflicts", d.conflicts);
            search_span.record("decisions", d.decisions);
            search_span.record("propagations", d.propagations);
            search_span.record("restarts", d.restarts);
            search_span.attr(
                "result",
                match &search_result {
                    SolveResult::Sat(_) => "sat",
                    SolveResult::Unsat(_) => "unsat",
                    SolveResult::Unknown => "unknown",
                },
            );
        }
        drop(search_span);
        match search_result {
            SolveResult::Sat(model) => {
                let solution = self.fixed.union(&self.varmap.decode(&model));
                let stats = self.delta_stats(base, summary);
                Outcome::Sat { solution, stats }
            }
            SolveResult::Unsat(first_core) => {
                let core_lits = if self.minimize_cores {
                    let mut minimize_span = muppet_obs::span("minimize");
                    let pre_conflicts = self.solver.stats.conflicts;
                    let shrunk = mus::shrink_core_ordered(&mut self.solver, assumptions);
                    minimize_span.record(
                        "conflicts",
                        self.solver.stats.conflicts.saturating_sub(pre_conflicts),
                    );
                    drop(minimize_span);
                    match shrunk {
                        mus::ShrinkResult::Minimal(core) => core,
                        // The assumptions were just proved UNSAT, so a
                        // Sat answer here cannot happen; fall back to
                        // the first core rather than panic.
                        mus::ShrinkResult::Sat => first_core,
                        mus::ShrinkResult::Exhausted { best } => {
                            // UNSAT is established; surface the best
                            // (unminimized) core as a partial artifact.
                            let stats = self.delta_stats(base, summary);
                            let partial = Some(PartialResult::Core(
                                self.names_of_in(assumptions, &best.unwrap_or(first_core)),
                            ));
                            return Outcome::Unknown {
                                phase: Phase::Minimize,
                                stats,
                                partial,
                            };
                        }
                    }
                } else {
                    first_core
                };
                let core = self.names_of_in(assumptions, &core_lits);
                let stats = self.delta_stats(base, summary);
                Outcome::Unsat { core, stats }
            }
            SolveResult::Unknown => Outcome::Unknown {
                phase: Phase::Search,
                stats: self.delta_stats(base, None),
                partial: None,
            },
        }
    }

    /// Solve with exactly the given groups active, under `budget`.
    /// Work counters in the outcome are the *delta* for this solve, not
    /// the warm solver's lifetime totals. Satisfiable answers are the
    /// canonical (lex-smallest) model up to the canonicalization cap;
    /// UNSAT cores are minimized by ordered deletion — see the module
    /// docs.
    pub fn solve(&mut self, active: &[GroupId], budget: Budget) -> Outcome {
        let base = self.stats_base();
        self.solver.set_budget(budget);
        let assumptions = self.assumptions_for(active);
        let outcome = self.run_search(&assumptions, &base);
        self.publish_kernel_metrics();
        outcome
    }

    /// Find the satisfying instance *closest to `target`* (fewest tuple
    /// flips over the free relations) with the given groups active.
    /// Returns the outcome and, when SAT, the achieved distance.
    ///
    /// This reproduces Pardinus's target-oriented model finding over a
    /// cached totalizer cardinality network. The default
    /// [`TargetStrategy::CoreGuided`] proves the minimum by OLL-style
    /// core-guided ascent (each UNSAT core raises the lower bound by
    /// one and is relaxed through a cached sum totalizer);
    /// [`TargetStrategy::Linear`] searches upward from distance 0 one
    /// bound at a time. Both return byte-identical results. The
    /// totalizers' clauses are one-sided (inputs drive outputs) and
    /// activated purely by assumptions, so they stay inert for every
    /// other solve on this warm engine. Among the minimal-distance
    /// models the canonical one (see [`Self::solve`]) is returned. On
    /// budget exhaustion the returned [`Outcome::Unknown`] carries the
    /// best model found so far as a [`PartialResult::Model`], so a
    /// counter-offer can still be made.
    pub fn solve_target(
        &mut self,
        active: &[GroupId],
        target: &Instance,
        budget: Budget,
    ) -> (Outcome, usize) {
        let result = self.solve_target_inner(active, target, budget);
        self.publish_kernel_metrics();
        result
    }

    fn solve_target_inner(
        &mut self,
        active: &[GroupId],
        target: &Instance,
        budget: Budget,
    ) -> (Outcome, usize) {
        let base = self.stats_base();
        self.solver.set_budget(budget);
        let assumptions = self.assumptions_for(active);
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Search) {
            return (
                Outcome::Unknown {
                    phase: Phase::Search,
                    stats: self.delta_stats(&base, None),
                    partial: None,
                },
                0,
            );
        }

        // Difference indicators: literal true iff the tuple's value in
        // the model differs from its value in the target.
        let mut diff_inputs = Vec::new();
        for (var, rel, tuple) in self.varmap.free_tuples() {
            let in_target = target.holds(rel, tuple);
            diff_inputs.push(Lit::new(var, !in_target));
        }
        // Pinned tuples that disagree with the target contribute a
        // fixed base distance no model can avoid. Walk the varmap's
        // stored states (pinned-true vs target) plus the target's own
        // tuples (pinned-false, stored or implicit outside a sparse
        // bound) instead of the full tuple product — the two sweeps
        // together count exactly the disagreeing pins.
        let mut dist_base = 0usize;
        for &rel in &self.free_rels {
            for (tuple, state) in self.varmap.rel_states(rel) {
                if state == crate::varmap::TupleState::True && !target.holds(rel, tuple) {
                    dist_base += 1;
                }
            }
            for tuple in target.tuples(rel) {
                if self.varmap.state(rel, tuple) == Some(crate::varmap::TupleState::False) {
                    dist_base += 1;
                }
            }
        }

        // Initial unconstrained probe: establishes feasibility and an
        // upper bound on the distance.
        let mut search_span = muppet_obs::span("search");
        search_span.attr("mode", "target");
        let (best_solution, best_dist) = match self.solver.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(model) => {
                let dist = diff_inputs.iter().filter(|&&l| model.lit_value(l)).count();
                (self.fixed.union(&self.varmap.decode(&model)), dist)
            }
            SolveResult::Unsat(first_core) => {
                drop(search_span);
                // Infeasible at any distance: produce a core.
                let _minimize_span = muppet_obs::span("minimize");
                let core = match mus::shrink_core_ordered(&mut self.solver, &assumptions) {
                    mus::ShrinkResult::Minimal(core) => self.names_of_in(&assumptions, &core),
                    mus::ShrinkResult::Sat => self.names_of_in(&assumptions, &first_core),
                    mus::ShrinkResult::Exhausted { best } => {
                        let stats = self.delta_stats(&base, None);
                        let partial = Some(PartialResult::Core(
                            self.names_of_in(&assumptions, &best.unwrap_or(first_core)),
                        ));
                        return (
                            Outcome::Unknown {
                                phase: Phase::Minimize,
                                stats,
                                partial,
                            },
                            0,
                        );
                    }
                };
                let stats = self.delta_stats(&base, None);
                return (Outcome::Unsat { core, stats }, 0);
            }
            SolveResult::Unknown => {
                return (
                    Outcome::Unknown {
                        phase: Phase::Search,
                        stats: self.delta_stats(&base, None),
                        partial: None,
                    },
                    0,
                );
            }
        };

        // Cardinality network over the difference indicators, cached by
        // their content so repeated solves against the same target (and
        // bound set) reuse the clauses. Built lazily: the linear arm
        // and the bounded finisher need it, but a core-guided ascent
        // that ends holding a witness (and skips the canonical walk)
        // never pays for the O(n log n) global network — its cores see
        // only the small per-core relaxation sums.
        let mut fp = Fingerprinter::new();
        for &l in &diff_inputs {
            fp.add_u64(l.var().index() as u64);
            fp.add_bool(l.is_positive());
        }
        let tkey = fp.digest();

        // Prove the minimal number of true difference indicators
        // (`optimum <= best_dist`). Strategy-dependent: both arms either
        // return early (Sat found in the Linear loop, budget fired) or
        // fall through to the shared finisher below with a proven
        // optimum — and, for the core-guided arm, a witness model at
        // that optimum when one is in hand.
        let optimum: usize;
        let mut witness: Option<Model> = None;
        match self.target_strategy {
            TargetStrategy::Linear => {
                // Linear search upward from distance 0, bounded above by
                // the probe's distance: minimal edits are small in
                // practice, so this touches few bounds.
                let neg_outputs = self.target_totalizer(&diff_inputs, tkey);
                let at_most = |k: usize| &neg_outputs[k.min(neg_outputs.len())..];
                for k in 0..best_dist {
                    let mut assms = assumptions.clone();
                    assms.extend_from_slice(at_most(k));
                    match self.solver.solve_with_assumptions(&assms) {
                        SolveResult::Sat(model) => {
                            let model = self.canonicalize(model, &assms);
                            let solution = self.fixed.union(&self.varmap.decode(&model));
                            drop(search_span);
                            let stats = self.delta_stats(&base, None);
                            return (Outcome::Sat { solution, stats }, dist_base + k);
                        }
                        SolveResult::Unsat(_) => continue,
                        SolveResult::Unknown => {
                            // Budget fired mid-search: the probe model is
                            // still a valid (if non-minimal) counter-offer.
                            drop(search_span);
                            let stats = self.delta_stats(&base, None);
                            let partial = Some(PartialResult::Model {
                                solution: best_solution,
                                distance: dist_base + best_dist,
                            });
                            return (
                                Outcome::Unknown {
                                    phase: Phase::Search,
                                    stats,
                                    partial,
                                },
                                0,
                            );
                        }
                    }
                }
                optimum = best_dist;
            }
            TargetStrategy::CoreGuided => {
                // OLL-style ascent. Every difference indicator `d` gets
                // the soft assumption `¬d`. Each UNSAT core proves one
                // more unavoidable flip: the blamed softs are retired
                // and — when the core blames two or more indicators —
                // replaced by a totalizer over them whose bound starts
                // at 1 and is raised one unit each time a later core
                // blames its current bound output. The loop ends when
                // the softs-plus-bounds state is satisfiable (cost
                // exactly `lb`) or `lb` meets the probe's upper bound.
                let mut softs: Vec<Lit> = diff_inputs.iter().map(|&d| !d).collect();
                // Live relaxation sums: (totalizer cache key, current
                // bound, input count). The one-sided tree forces
                // outputs monotonically, so assuming the single
                // literal `¬output(bound)` enforces "≤ bound".
                let mut sums: Vec<(u128, usize, usize)> = Vec::new();
                let mut lb = 0usize;
                loop {
                    if lb >= best_dist {
                        // The probe model already attains the proven
                        // lower bound.
                        optimum = best_dist;
                        break;
                    }
                    let mut assms = assumptions.clone();
                    assms.extend_from_slice(&softs);
                    for &(key, bound, _) in &sums {
                        if let Some(o) = self.totalizers[&key].output(bound) {
                            assms.push(!o);
                        }
                    }
                    match self.solver.solve_with_assumptions(&assms) {
                        SolveResult::Sat(model) => {
                            // Cost of this model is exactly `lb`, which
                            // the cores prove minimal.
                            optimum = lb;
                            witness = Some(model);
                            break;
                        }
                        SolveResult::Unsat(core) => {
                            self.oll_rounds += 1;
                            self.ctr_oll_cores.inc();
                            lb += 1;
                            // Collect the difference indicators this
                            // core blames: retired softs contribute the
                            // indicator itself, relaxation sums their
                            // violated bound output.
                            let mut indicators: Vec<Lit> = Vec::new();
                            softs.retain(|&s| {
                                if core.contains(&s) {
                                    indicators.push(!s);
                                    false
                                } else {
                                    true
                                }
                            });
                            let mut next_sums = Vec::with_capacity(sums.len());
                            for (key, bound, len) in sums.drain(..) {
                                let o = self.totalizers[&key]
                                    .output(bound)
                                    .expect("sum bound < input count");
                                if core.contains(&!o) {
                                    indicators.push(o);
                                    if bound + 1 < len {
                                        next_sums.push((key, bound + 1, len));
                                    }
                                    // A sum at full bound can never be
                                    // violated again; drop it.
                                } else {
                                    next_sums.push((key, bound, len));
                                }
                            }
                            sums = next_sums;
                            if indicators.len() >= 2 {
                                let mut sfp = Fingerprinter::new();
                                sfp.add_u64(OLL_SUM_TAG);
                                for &l in &indicators {
                                    sfp.add_u64(l.var().index() as u64);
                                    sfp.add_bool(l.is_positive());
                                }
                                let skey = sfp.digest();
                                if !self.totalizers.contains_key(&skey) {
                                    let tot = Totalizer::build(&indicators, &mut self.solver);
                                    self.totalizers.insert(skey, tot);
                                }
                                sums.push((skey, 1, indicators.len()));
                            } else if indicators.is_empty() {
                                // Defensive — unreachable: the probe
                                // proved the hard groups satisfiable, so
                                // every core must blame a soft. Degrade
                                // to linear search from the bound the
                                // genuine cores proved.
                                let neg_outputs =
                                    self.target_totalizer(&diff_inputs, tkey);
                                let at_most =
                                    |k: usize| &neg_outputs[k.min(neg_outputs.len())..];
                                let mut k = lb.saturating_sub(1);
                                loop {
                                    if k >= best_dist {
                                        break;
                                    }
                                    let mut assms = assumptions.clone();
                                    assms.extend_from_slice(at_most(k));
                                    match self.solver.solve_with_assumptions(&assms) {
                                        SolveResult::Sat(_) => break,
                                        SolveResult::Unsat(_) => k += 1,
                                        SolveResult::Unknown => {
                                            drop(search_span);
                                            let stats = self.delta_stats(&base, None);
                                            let partial = Some(PartialResult::Model {
                                                solution: best_solution,
                                                distance: dist_base + best_dist,
                                            });
                                            return (
                                                Outcome::Unknown {
                                                    phase: Phase::Search,
                                                    stats,
                                                    partial,
                                                },
                                                0,
                                            );
                                        }
                                    }
                                }
                                optimum = k.min(best_dist);
                                break;
                            }
                            // A single blamed indicator needs no sum:
                            // one Boolean can only be violated once, and
                            // its unit of cost is now counted in `lb`.
                        }
                        SolveResult::Unknown => {
                            // Budget fired mid-ascent: same best-so-far
                            // semantics as the linear strategy.
                            drop(search_span);
                            let stats = self.delta_stats(&base, None);
                            let partial = Some(PartialResult::Model {
                                solution: best_solution,
                                distance: dist_base + best_dist,
                            });
                            return (
                                Outcome::Unknown {
                                    phase: Phase::Search,
                                    stats,
                                    partial,
                                },
                                0,
                            );
                        }
                    }
                }
            }
        }
        // Shared finisher: (re-)derive a model at the proven optimal
        // distance and canonicalize among the distance-minimal models,
        // so both strategies return the same byte-identical answer. The
        // core-guided Sat exit already holds such a model and skips the
        // extra solve. The distance bound is needed to derive a missing
        // witness and to pin the canonical walk to distance-minimal
        // models; a witness-holding run with canonicalization skipped
        // (cap exceeded or disabled) needs no bound — and so never
        // builds the global totalizer at all.
        let will_canonicalize = self.canonical_cap >= self.varmap.num_free_vars();
        let mut assms = assumptions.clone();
        if witness.is_none() || will_canonicalize {
            let neg_outputs = self.target_totalizer(&diff_inputs, tkey);
            assms.extend_from_slice(&neg_outputs[optimum.min(neg_outputs.len())..]);
        }
        let found = match witness {
            Some(model) => Some(model),
            None => match self.solver.solve_with_assumptions(&assms) {
                SolveResult::Sat(model) => Some(model),
                // For `optimum == best_dist` the probe model witnesses
                // satisfiability at this distance; keep it if the budget
                // fires (or the defensive unreachable Unsat arm) here.
                _ => None,
            },
        };
        let solution = match found {
            Some(model) => {
                let model = self.canonicalize(model, &assms);
                self.fixed.union(&self.varmap.decode(&model))
            }
            None if optimum == best_dist => best_solution,
            None => {
                // The optimum is proven below the probe's distance but
                // the budget fired before a model at it could be
                // derived: report the probe model as best-so-far rather
                // than a Sat answer whose distance we cannot witness.
                drop(search_span);
                let stats = self.delta_stats(&base, None);
                let partial = Some(PartialResult::Model {
                    solution: best_solution,
                    distance: dist_base + best_dist,
                });
                return (
                    Outcome::Unknown {
                        phase: Phase::Search,
                        stats,
                        partial,
                    },
                    0,
                );
            }
        };
        drop(search_span);
        let stats = self.delta_stats(&base, None);
        (Outcome::Sat { solution, stats }, dist_base + optimum)
    }

    /// Enumerate up to `limit` distinct solutions (distinct over the
    /// free relations) with the given groups active, in canonical
    /// lexicographic order. Intended for exhaustive verification on
    /// small universes.
    ///
    /// Blocking clauses are gated behind a fresh per-call enumeration
    /// selector that is never assumed again afterwards, so enumeration
    /// leaves no trace in the warm engine.
    pub fn enumerate(
        &mut self,
        active: &[GroupId],
        limit: usize,
        budget: Budget,
    ) -> Result<Vec<Instance>, QueryError> {
        let base = self.stats_base();
        self.solver.set_budget(budget);
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Search) {
            return Err(QueryError::Exhausted {
                phase: Phase::Search,
                stats: self.delta_stats(&base, None),
            });
        }
        let esel = Lit::pos(self.solver.new_var());
        let mut assumptions = self.assumptions_for(active);
        assumptions.push(esel);
        let mut out = Vec::new();
        while out.len() < limit {
            match self.solver.solve_with_assumptions(&assumptions) {
                SolveResult::Sat(model) => {
                    let model = self.canonicalize(model, &assumptions);
                    out.push(self.fixed.union(&self.varmap.decode(&model)));
                    // Block this assignment of the free tuple vars,
                    // gated on the enumeration selector.
                    let mut blocking: Vec<Lit> = self
                        .varmap
                        .free_tuples()
                        .map(|(v, _, _)| Lit::new(v, !model.value(v)))
                        .collect();
                    if blocking.is_empty() {
                        break; // unique model
                    }
                    blocking.push(!esel);
                    self.solver.add_clause(blocking);
                }
                SolveResult::Unsat(_) => break,
                SolveResult::Unknown => {
                    return Err(QueryError::Exhausted {
                        phase: Phase::Search,
                        stats: self.delta_stats(&base, None),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Groups grounded + encoded by this engine so far.
    pub fn num_groups(&self) -> usize {
        self.selectors.len()
    }

    /// How many `ensure_group` calls did fresh ground/encode work.
    pub fn encoded_groups(&self) -> u64 {
        self.encoded_groups
    }

    /// How many `ensure_group` calls reused an existing encoding.
    pub fn reused_groups(&self) -> u64 {
        self.reused_groups
    }

    /// The owned vocabulary (for decoding / debugging).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{Domain, PartyId, Term};

    struct Fix {
        u: Universe,
        v: Vocabulary,
        allow: RelId,
        atoms: Vec<muppet_logic::AtomId>,
    }

    fn fix() -> Fix {
        let mut u = Universe::new();
        let s = u.add_sort("Service");
        let atoms = vec![u.add_atom(s, "fe"), u.add_atom(s, "be"), u.add_atom(s, "db")];
        let mut v = Vocabulary::new();
        let allow = v.add_simple_rel("allow", vec![s, s], Domain::Party(PartyId(0)));
        Fix { u, v, allow, atoms }
    }

    fn engine(f: &Fix) -> IncrementalQuery {
        IncrementalQuery::new(
            &f.v,
            &f.u,
            &[f.allow],
            &PartialInstance::new(),
            Instance::new(),
        )
    }

    fn tuple_pred(f: &Fix, i: usize, j: usize) -> Formula {
        Formula::pred(f.allow, [Term::Const(f.atoms[i]), Term::Const(f.atoms[j])])
    }

    #[test]
    fn groups_sharing_a_formula_stay_independent() {
        let f = fix();
        let shared = tuple_pred(&f, 0, 1);
        let own = tuple_pred(&f, 1, 2);
        let g1 = FormulaGroup::new("g1", vec![shared.clone()]);
        let g2 = FormulaGroup::new("g2", vec![shared.clone(), own]);
        let mut q = engine(&f);
        let b = Budget::unlimited();
        let i1 = q.ensure_group(&g1, &b).unwrap();
        let i2 = q.ensure_group(&g2, &b).unwrap();
        assert_ne!(i1, i2, "distinct groups get distinct selectors");
        assert_eq!(q.encoded_groups(), 2);
        assert!(q.solve(&[i1, i2], Budget::unlimited()).is_sat());
        let neg = FormulaGroup::new("neg", vec![Formula::not(shared)]);
        let i3 = q.ensure_group(&neg, &b).unwrap();
        match q.solve(&[i1, i3], Budget::unlimited()) {
            Outcome::Unsat { mut core, .. } => {
                core.sort();
                assert_eq!(core, vec!["g1".to_string(), "neg".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn models_are_canonical_across_warm_state() {
        let f = fix();
        // allow(fe,fe) ∨ allow(fe,be): two minimal models; canonical
        // answer must be stable no matter what solved before.
        let goal = FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        );
        let mut warm = engine(&f);
        let b = Budget::unlimited();
        let id = warm.ensure_group(&goal, &b).unwrap();
        let first = warm.solve(&[id], Budget::unlimited());
        // Perturb the warm solver with an unrelated (UNSAT) solve.
        let clash = FormulaGroup::new("clash", vec![tuple_pred(&f, 2, 2)]);
        let nclash = FormulaGroup::new("nclash", vec![Formula::not(tuple_pred(&f, 2, 2))]);
        let ic = warm.ensure_group(&clash, &b).unwrap();
        let inc = warm.ensure_group(&nclash, &b).unwrap();
        assert!(!warm.solve(&[ic, inc], Budget::unlimited()).is_sat());
        let again = warm.solve(&[id], Budget::unlimited());
        assert_eq!(
            first.solution(),
            again.solution(),
            "warm resolve must return the same canonical model"
        );
        // And a completely cold engine agrees byte-for-byte.
        let mut cold = engine(&f);
        let cid = cold.ensure_group(&goal, &b).unwrap();
        let cold_out = cold.solve(&[cid], Budget::unlimited());
        assert_eq!(first.solution(), cold_out.solution());
    }

    #[test]
    fn warm_solve_target_reuses_the_totalizer() {
        let f = fix();
        let goal = FormulaGroup::new("g", vec![tuple_pred(&f, 0, 1)]);
        let mut q = engine(&f);
        let id = q.ensure_group(&goal, &Budget::unlimited()).unwrap();
        let target = Instance::new();
        let (out1, d1) = q.solve_target(&[id], &target, Budget::unlimited());
        assert!(out1.is_sat());
        assert_eq!(d1, 1);
        assert_eq!(q.totalizers.len(), 1);
        let (out2, d2) = q.solve_target(&[id], &target, Budget::unlimited());
        assert_eq!(d2, 1);
        assert_eq!(out1.solution(), out2.solution());
        assert_eq!(q.totalizers.len(), 1, "same target reuses the cardinality network");
        // A plain solve on the same warm engine is unaffected by the
        // (assumption-gated) totalizer clauses.
        assert!(q.solve(&[id], Budget::unlimited()).is_sat());
    }

    #[test]
    fn core_guided_and_linear_target_strategies_agree() {
        let f = fix();
        // Two forced flips plus a one-of-two choice: the OLL ascent
        // sees both singleton cores (the forced tuples) and a
        // multi-indicator core (the disjunction), which exercises the
        // relaxation-sum path.
        let goal = FormulaGroup::new(
            "g",
            vec![
                tuple_pred(&f, 0, 1),
                tuple_pred(&f, 1, 2),
                Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 2, 2)]),
            ],
        );
        let target = Instance::new();
        let b = Budget::unlimited();
        let mut oll = engine(&f);
        assert_eq!(oll.target_strategy(), TargetStrategy::CoreGuided);
        let id = oll.ensure_group(&goal, &b).unwrap();
        let (out_oll, d_oll) = oll.solve_target(&[id], &target, Budget::unlimited());
        let mut lin = engine(&f);
        lin.set_target_strategy(TargetStrategy::Linear);
        let lid = lin.ensure_group(&goal, &b).unwrap();
        let (out_lin, d_lin) = lin.solve_target(&[lid], &target, Budget::unlimited());
        assert_eq!(d_oll, 3, "two forced tuples plus one disjunct");
        assert_eq!(d_lin, 3);
        assert_eq!(
            out_oll.solution(),
            out_lin.solution(),
            "strategies must return the byte-identical canonical model"
        );
        match out_oll {
            Outcome::Sat { stats, .. } => {
                assert!(stats.oll_cores >= 1, "core-guided run consumed no cores");
            }
            other => panic!("{other:?}"),
        }
        match out_lin {
            Outcome::Sat { stats, .. } => {
                assert_eq!(stats.oll_cores, 0, "linear run must not count OLL cores");
            }
            other => panic!("{other:?}"),
        }
        // Warm re-solve under the other strategy on the same engine
        // still agrees: the relaxation sums are assumption-gated.
        oll.set_target_strategy(TargetStrategy::Linear);
        let (out_again, d_again) = oll.solve_target(&[id], &target, Budget::unlimited());
        assert_eq!(d_again, 3);
        assert_eq!(out_again.solution(), out_lin.solution());
    }

    #[test]
    fn enumeration_leaves_the_warm_engine_reusable() {
        let f = fix();
        let t1 = vec![f.atoms[0], f.atoms[0]];
        let t2 = vec![f.atoms[0], f.atoms[1]];
        let mut bounds = PartialInstance::new();
        bounds.permit(f.allow, t1.clone());
        bounds.permit(f.allow, t2.clone());
        let goal = FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        );
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &bounds, Instance::new());
        let id = q.ensure_group(&goal, &Budget::unlimited()).unwrap();
        let models = q.enumerate(&[id], 10, Budget::unlimited()).unwrap();
        assert_eq!(models.len(), 3);
        // The blocking clauses are gated off: solves still see all
        // three models, and a second enumeration repeats exactly.
        assert!(q.solve(&[id], Budget::unlimited()).is_sat());
        let again = q.enumerate(&[id], 10, Budget::unlimited()).unwrap();
        assert_eq!(models, again, "canonical enumeration is deterministic");
    }
}
