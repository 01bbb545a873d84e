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
//! Every solve call takes the formula groups it should run with:
//! groups the engine has not seen are grounded and encoded on the way
//! in, the rest are reused. A one-shot caller builds an engine, makes
//! one call and drops it; [`crate::PreparedStore`] keeps warm engines
//! keyed by query shape.

use std::collections::HashMap;

use muppet_logic::fingerprint::Fingerprinter;
use muppet_logic::{Formula, Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_obs::{Counter, Gauge};
use muppet_portfolio::{solve_portfolio, PortfolioConfig, PortfolioSummary};
use muppet_sat::{mus, Budget, Lit, Model, ReduceStrategy, SolveResult, Solver, SolverStats, Var};

use crate::ground::ground;
use crate::query::{FormulaGroup, Outcome, PartialResult, Phase, QueryError, QueryStats};
use crate::totalizer::Totalizer;
use crate::tseitin::encode;
use crate::varmap::VarMap;

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
/// Restriction: [`IncrementalQuery::add_symmetry_breaking`] makes the
/// next solve install *permanent*, goal-set-dependent lex clauses, so
/// it is only sound on an engine used once and dropped. Warm callers
/// must not enable it — `Session` runs symmetry-breaking solves on a
/// one-shot engine.
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
    /// Set by [`IncrementalQuery::add_symmetry_breaking`]; the next
    /// [`IncrementalQuery::solve`] installs the lex clauses and clears it.
    lex_pending: bool,
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
    /// `bounds` against `fixed`. Groups are encoded lazily, by the
    /// first solve call that names them.
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
            lex_pending: false,
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

    /// Ground + encode `group` if this engine has not seen its content
    /// ([`FormulaGroup::content_key`]) before; otherwise reuse the
    /// existing encoding. Returns the group's selector literal.
    fn ensure_group(&mut self, group: &FormulaGroup, budget: &Budget) -> Result<Lit, QueryError> {
        let key = group.content_key();
        if let Some(&i) = self.index.get(&key) {
            self.reused_groups += 1;
            self.ctr_reused.inc();
            return Ok(self.selectors[i].1);
        }
        let exhausted = |phase| QueryError::Exhausted {
            phase,
            stats: QueryStats::default(),
        };
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Ground) {
            return Err(exhausted(Phase::Ground));
        }
        if budget.poll().is_some() {
            return Err(exhausted(Phase::Ground));
        }
        let mut ground_span = muppet_obs::span("ground");
        ground_span.record("groups", 1);
        let exprs = group
            .formulas
            .iter()
            .map(|f| ground(f, &self.varmap, &self.fixed, &self.universe))
            .collect::<Result<Vec<_>, _>>()?;
        drop(ground_span);
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::should_trip(Phase::Encode) {
            return Err(exhausted(Phase::Encode));
        }
        if budget.poll().is_some() {
            return Err(exhausted(Phase::Encode));
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
        self.index.insert(key, self.selectors.len());
        self.selectors.push((group.name.clone(), sel));
        self.encoded_groups += 1;
        self.ctr_encoded.inc();
        Ok(sel)
    }

    /// The selector literals that activate `groups`, in submission
    /// order, encoding each group this engine has not seen before. A
    /// budget that fires while grounding or encoding gives
    /// [`QueryError::Exhausted`] with empty stats.
    fn prepare(
        &mut self,
        groups: &[FormulaGroup],
        budget: &Budget,
    ) -> Result<Vec<Lit>, QueryError> {
        groups.iter().map(|g| self.ensure_group(g, budget)).collect()
    }

    /// Break symmetries on this one-shot engine: the next
    /// [`IncrementalQuery::solve`] installs lex-leader clauses over the
    /// interchangeable atoms of its goal set, after encoding its groups
    /// and before searching. The clauses are **permanent** and goal-set
    /// dependent, so this is only sound on an engine used once and
    /// dropped; never call it on a warm engine. `solve_target` and
    /// `enumerate` never install them: they must see the whole model
    /// space.
    pub fn add_symmetry_breaking(&mut self) {
        self.lex_pending = true;
    }

    fn install_symmetry_breaking(&mut self, groups: &[FormulaGroup]) {
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

    /// Solve with exactly `groups` active, under `budget`, encoding the
    /// groups this engine has not seen before. Work counters in the
    /// outcome are the *delta* for this solve, not the warm solver's
    /// lifetime totals. Satisfiable answers are the canonical
    /// (lex-smallest) model up to the canonicalization cap; UNSAT cores
    /// are minimized by ordered deletion — see the module docs.
    ///
    /// Under a [`Budget`] this never hangs: on exhaustion it returns
    /// [`Outcome::Unknown`] naming the phase that was running (with
    /// empty stats when it fired while grounding or encoding), and —
    /// when UNSAT was already established but the core was still being
    /// minimized — the unminimized core as a partial artifact. A group
    /// that cannot be grounded is a [`QueryError::Ground`].
    pub fn solve(
        &mut self,
        groups: &[FormulaGroup],
        budget: Budget,
    ) -> Result<Outcome, QueryError> {
        let assumptions = match self.prepare(groups, &budget) {
            Ok(assumptions) => assumptions,
            Err(QueryError::Exhausted { phase, stats }) => {
                return Ok(Outcome::Unknown { phase, stats, partial: None })
            }
            Err(e) => return Err(e),
        };
        if std::mem::take(&mut self.lex_pending) {
            self.install_symmetry_breaking(groups);
        }
        let base = self.stats_base();
        self.solver.set_budget(budget);
        let outcome = self.run_search(&assumptions, &base);
        self.publish_kernel_metrics();
        Ok(outcome)
    }

    /// Find the satisfying instance *closest to `target`* (fewest tuple
    /// flips over the free relations) with exactly `groups` active,
    /// encoding the groups this engine has not seen before. Returns the
    /// outcome and, when SAT, the achieved distance.
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
    /// counter-offer can still be made; a budget that fires while
    /// grounding or encoding gives distance 0 and empty stats, as in
    /// [`Self::solve`].
    pub fn solve_target(
        &mut self,
        groups: &[FormulaGroup],
        target: &Instance,
        budget: Budget,
    ) -> Result<(Outcome, usize), QueryError> {
        let assumptions = match self.prepare(groups, &budget) {
            Ok(assumptions) => assumptions,
            Err(QueryError::Exhausted { phase, stats }) => {
                return Ok((Outcome::Unknown { phase, stats, partial: None }, 0))
            }
            Err(e) => return Err(e),
        };
        let result = self.solve_target_inner(assumptions, target, budget);
        self.publish_kernel_metrics();
        Ok(result)
    }

    fn solve_target_inner(
        &mut self,
        assumptions: Vec<Lit>,
        target: &Instance,
        budget: Budget,
    ) -> (Outcome, usize) {
        let base = self.stats_base();
        self.solver.set_budget(budget);
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
    /// free relations) with exactly `groups` active, in canonical
    /// lexicographic order, encoding the groups this engine has not
    /// seen before. Intended for exhaustive verification on small
    /// universes. A budget that fires at any phase is a
    /// [`QueryError::Exhausted`]: a truncated list is no answer.
    ///
    /// Blocking clauses are gated behind a fresh per-call enumeration
    /// selector that is never assumed again afterwards, so enumeration
    /// leaves no trace in the warm engine.
    pub fn enumerate(
        &mut self,
        groups: &[FormulaGroup],
        limit: usize,
        budget: Budget,
    ) -> Result<Vec<Instance>, QueryError> {
        let mut assumptions = self.prepare(groups, &budget)?;
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

    /// How many group submissions did fresh ground/encode work.
    pub fn encoded_groups(&self) -> u64 {
        self.encoded_groups
    }

    /// How many group submissions reused an existing encoding.
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
    use muppet_logic::{evaluate_closed, Domain, PartyId, SortId, Term};

    struct Fix {
        u: Universe,
        v: Vocabulary,
        s: SortId,
        allow: RelId,
        listens: RelId,
        atoms: Vec<muppet_logic::AtomId>,
    }

    fn fix() -> Fix {
        let mut u = Universe::new();
        let s = u.add_sort("Service");
        let atoms = vec![u.add_atom(s, "fe"), u.add_atom(s, "be"), u.add_atom(s, "db")];
        let mut v = Vocabulary::new();
        let allow = v.add_simple_rel("allow", vec![s, s], Domain::Party(PartyId(0)));
        let listens = v.add_simple_rel("listens", vec![s], Domain::Structure);
        Fix { u, v, s, allow, listens, atoms }
    }

    /// An engine with `allow` free and unbounded over an empty fixed
    /// instance.
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
    fn synthesis_fills_free_relation() {
        let mut f = fix();
        let x = f.v.fresh_var();
        let mut fixed = Instance::new();
        fixed.insert(f.listens, vec![f.atoms[1]]);
        // Goal: every listening service is allowed-from fe.
        let goal = Formula::forall(
            x,
            f.s,
            Formula::implies(
                Formula::pred(f.listens, [Term::Var(x)]),
                Formula::pred(f.allow, [Term::Const(f.atoms[0]), Term::Var(x)]),
            ),
        );
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &PartialInstance::new(), fixed);
        let groups = [FormulaGroup::new("goal", vec![goal.clone()])];
        match q.solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Sat { solution, stats } => {
                assert!(solution.holds(f.allow, &[f.atoms[0], f.atoms[1]]));
                assert!(evaluate_closed(&goal, &solution, &f.u).unwrap());
                assert_eq!(stats.free_tuple_vars, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsat_core_names_minimal_groups() {
        let f = fix();
        let pos = tuple_pred(&f, 0, 1);
        let neg = Formula::not(pos.clone());
        let groups = [
            FormulaGroup::new("require", vec![pos]),
            FormulaGroup::new("forbid", vec![neg]),
            FormulaGroup::new("irrelevant", vec![tuple_pred(&f, 2, 2)]),
        ];
        match engine(&f).solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Unsat { core, .. } => {
                let mut core = core;
                core.sort();
                assert_eq!(core, vec!["forbid".to_string(), "require".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bounds_pin_choices() {
        let f = fix();
        let t_req = vec![f.atoms[0], f.atoms[0]];
        let t_opt = vec![f.atoms[0], f.atoms[1]];
        let mut bounds = PartialInstance::new();
        bounds.require(f.allow, t_req.clone());
        bounds.permit(f.allow, t_opt.clone());
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &bounds, Instance::new());
        match q.solve(&[], Budget::unlimited()).unwrap() {
            Outcome::Sat { solution, .. } => {
                assert!(solution.holds(f.allow, &t_req));
                // Upper bound excludes everything else except t_opt.
                for a in &f.atoms {
                    for b in &f.atoms {
                        let t = vec![*a, *b];
                        if t != t_req && t != t_opt {
                            assert!(!solution.holds(f.allow, &t));
                        }
                    }
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn target_solving_returns_closest_model() {
        let f = fix();
        // Goal: allow(fe,be) must hold. Target: empty config. Minimal
        // edit = 1 (add just that tuple).
        let groups = [FormulaGroup::new("g", vec![tuple_pred(&f, 0, 1)])];
        let target = Instance::new();
        let (outcome, dist) = engine(&f)
            .solve_target(&groups, &target, Budget::unlimited())
            .unwrap();
        match outcome {
            Outcome::Sat { solution, .. } => {
                assert_eq!(dist, 1);
                assert_eq!(solution.distance(&target), 1);
                assert!(solution.holds(f.allow, &[f.atoms[0], f.atoms[1]]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn target_solving_prefers_keeping_existing_tuples() {
        let f = fix();
        // Target has allow(db,db); goals don't mention it; the closest
        // model must keep it.
        let groups = [FormulaGroup::new("g", vec![tuple_pred(&f, 0, 1)])];
        let mut target = Instance::new();
        target.insert(f.allow, vec![f.atoms[2], f.atoms[2]]);
        let (outcome, dist) = engine(&f)
            .solve_target(&groups, &target, Budget::unlimited())
            .unwrap();
        let solution = outcome.solution().unwrap().clone();
        assert_eq!(dist, 1);
        assert!(solution.holds(f.allow, &[f.atoms[2], f.atoms[2]]));
        assert!(solution.holds(f.allow, &[f.atoms[0], f.atoms[1]]));
    }

    #[test]
    fn target_base_distance_counts_pinned_disagreements() {
        let f = fix();
        let t = vec![f.atoms[0], f.atoms[0]];
        let mut bounds = PartialInstance::new();
        bounds.require(f.allow, t.clone()); // pinned true
        // Target disagrees: does not contain t. Everything else outside
        // the upper bound is pinned false and agrees with empty target.
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &bounds, Instance::new());
        let (outcome, dist) = q.solve_target(&[], &Instance::new(), Budget::unlimited()).unwrap();
        assert!(outcome.is_sat());
        assert_eq!(dist, 1);
    }

    #[test]
    fn enumerate_counts_models() {
        let f = fix();
        // allow(fe,fe) ∨ allow(fe,be), all other tuples excluded by upper
        // bound ⇒ exactly 3 models (TT, TF, FT).
        let t1 = vec![f.atoms[0], f.atoms[0]];
        let t2 = vec![f.atoms[0], f.atoms[1]];
        let mut bounds = PartialInstance::new();
        bounds.permit(f.allow, t1.clone());
        bounds.permit(f.allow, t2.clone());
        let groups = [FormulaGroup::new(
            "g",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        )];
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &bounds, Instance::new());
        let models = q.enumerate(&groups, 10, Budget::unlimited()).unwrap();
        assert_eq!(models.len(), 3);
        // All distinct and all satisfying.
        for (i, m) in models.iter().enumerate() {
            assert!(m.holds(f.allow, &t1) || m.holds(f.allow, &t2));
            for m2 in &models[i + 1..] {
                assert_ne!(m, m2);
            }
        }
    }

    #[test]
    fn enumerate_respects_limit() {
        let f = fix();
        let models = engine(&f).enumerate(&[], 5, Budget::unlimited()).unwrap();
        assert_eq!(models.len(), 5);
    }

    #[test]
    fn no_groups_means_any_instance_works() {
        let f = fix();
        assert!(engine(&f).solve(&[], Budget::unlimited()).unwrap().is_sat());
    }

    #[test]
    fn symmetry_breaking_preserves_verdicts() {
        // ∃-style goal over interchangeable atoms: SAT with and without
        // SB; an UNSAT variant stays UNSAT.
        let f = fix();
        // atoms[0] appears as a constant; atoms 1,2 are interchangeable.
        let t1 = tuple_pred(&f, 0, 0);
        let mut q = engine(&f);
        q.add_symmetry_breaking();
        let g = FormulaGroup::new("g", vec![t1.clone()]);
        assert!(q.solve(std::slice::from_ref(&g), Budget::unlimited()).unwrap().is_sat());
        let mut q2 = engine(&f);
        q2.add_symmetry_breaking();
        let groups = [g, FormulaGroup::new("ng", vec![Formula::not(t1)])];
        match q2.solve(&groups, Budget::unlimited()).unwrap() {
            Outcome::Unsat { core, .. } => assert_eq!(core.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn symmetry_breaking_skipped_for_target_and_enumerate() {
        // enumerate must still see ALL models even with SB requested.
        let f = fix();
        let mut bounds = PartialInstance::new();
        // Two interchangeable-atom tuples only.
        bounds.permit(f.listens, vec![f.atoms[1]]);
        bounds.permit(f.listens, vec![f.atoms[2]]);
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.listens], &bounds, Instance::new());
        q.add_symmetry_breaking();
        let models = q.enumerate(&[], 10, Budget::unlimited()).unwrap();
        assert_eq!(models.len(), 4, "all 2^2 models, symmetric ones included");
        // Target solving also ignores SB: nearest model to
        // {listens(atom2)} is itself, not a canonical rotation.
        let mut target = Instance::new();
        target.insert(f.listens, vec![f.atoms[2]]);
        let (out, dist) = q.solve_target(&[], &target, Budget::unlimited()).unwrap();
        assert!(out.is_sat());
        assert_eq!(dist, 0);
    }

    /// Relational pigeonhole: `sits ⊆ P×H`, every pigeon sits somewhere,
    /// no hole holds two pigeons. Pure quantifiers — every atom is
    /// interchangeable — so symmetry breaking should slash the conflict
    /// count on the UNSAT instance.
    fn php_query(pigeons: usize, holes: usize) -> (Universe, Vocabulary, RelId) {
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
        (u, v, sits)
    }

    fn php_formulas(v: &mut Vocabulary, sits: RelId) -> Vec<Formula> {
        let ps = SortId(0);
        let hs = SortId(1);
        let p = v.fresh_var();
        let p2 = v.fresh_var();
        let h = v.fresh_var();
        vec![
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
        ]
    }

    fn php_engine(u: &Universe, v: &Vocabulary, sits: RelId) -> IncrementalQuery {
        IncrementalQuery::new(v, u, &[sits], &PartialInstance::new(), Instance::new())
    }

    #[test]
    fn symmetry_breaking_slashes_pigeonhole_conflicts() {
        let (u, mut v, sits) = php_query(7, 6);
        let groups = [FormulaGroup::new("php", php_formulas(&mut v, sits))];
        let run = |sb: bool| {
            let mut q = php_engine(&u, &v, sits);
            q.set_minimize_cores(false);
            if sb {
                q.add_symmetry_breaking();
            }
            match q.solve(&groups, Budget::unlimited()).unwrap() {
                Outcome::Unsat { stats, .. } => stats.conflicts,
                other => panic!("PHP(7,6) must be unsat, got {other:?}"),
            }
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "SB should prune the symmetric search: {with} vs {without} conflicts"
        );
    }

    #[test]
    fn symmetry_breaking_keeps_satisfiable_php_satisfiable() {
        let (u, mut v, sits) = php_query(5, 5);
        let formulas = php_formulas(&mut v, sits);
        let mut q = php_engine(&u, &v, sits);
        q.add_symmetry_breaking();
        let groups = [FormulaGroup::new("php", formulas.clone())];
        let Outcome::Sat { solution, .. } = q.solve(&groups, Budget::unlimited()).unwrap() else {
            panic!("PHP(5,5) is satisfiable");
        };
        // The model is a genuine perfect matching.
        for f in &formulas {
            assert!(evaluate_closed(f, &solution, &u).unwrap());
        }
    }

    #[test]
    fn open_formula_reports_ground_error() {
        let mut f = fix();
        let x = f.v.fresh_var();
        let open = Formula::pred(f.allow, [Term::Var(x), Term::Var(x)]);
        let groups = [FormulaGroup::new("open", vec![open])];
        assert!(matches!(
            engine(&f).solve(&groups, Budget::unlimited()),
            Err(QueryError::Ground(_))
        ));
    }

    #[test]
    fn groups_sharing_a_formula_stay_independent() {
        let f = fix();
        let shared = tuple_pred(&f, 0, 1);
        let own = tuple_pred(&f, 1, 2);
        let g1 = FormulaGroup::new("g1", vec![shared.clone()]);
        let g2 = FormulaGroup::new("g2", vec![shared.clone(), own]);
        let mut q = engine(&f);
        assert!(q.solve(&[g1.clone(), g2], Budget::unlimited()).unwrap().is_sat());
        assert_eq!(q.encoded_groups(), 2, "distinct groups get distinct selectors");
        let neg = FormulaGroup::new("neg", vec![Formula::not(shared)]);
        match q.solve(&[g1, neg], Budget::unlimited()).unwrap() {
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
        let goal = [FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        )];
        let mut warm = engine(&f);
        let first = warm.solve(&goal, Budget::unlimited()).unwrap();
        // Perturb the warm solver with an unrelated (UNSAT) solve.
        let clash = [
            FormulaGroup::new("clash", vec![tuple_pred(&f, 2, 2)]),
            FormulaGroup::new("nclash", vec![Formula::not(tuple_pred(&f, 2, 2))]),
        ];
        assert!(!warm.solve(&clash, Budget::unlimited()).unwrap().is_sat());
        let again = warm.solve(&goal, Budget::unlimited()).unwrap();
        assert_eq!(
            first.solution(),
            again.solution(),
            "warm resolve must return the same canonical model"
        );
        // And a completely cold engine agrees byte-for-byte.
        let cold_out = engine(&f).solve(&goal, Budget::unlimited()).unwrap();
        assert_eq!(first.solution(), cold_out.solution());
    }

    #[test]
    fn warm_solve_target_reuses_the_totalizer() {
        let f = fix();
        let goal = [FormulaGroup::new("g", vec![tuple_pred(&f, 0, 1)])];
        let mut q = engine(&f);
        let target = Instance::new();
        let (out1, d1) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert!(out1.is_sat());
        assert_eq!(d1, 1);
        assert_eq!(q.totalizers.len(), 1);
        let (out2, d2) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert_eq!(d2, 1);
        assert_eq!(out1.solution(), out2.solution());
        assert_eq!(q.totalizers.len(), 1, "same target reuses the cardinality network");
        // A plain solve on the same warm engine is unaffected by the
        // (assumption-gated) totalizer clauses.
        assert!(q.solve(&goal, Budget::unlimited()).unwrap().is_sat());
    }

    #[test]
    fn core_guided_and_linear_target_strategies_agree() {
        let f = fix();
        // Two forced flips plus a one-of-two choice: the OLL ascent
        // sees both singleton cores (the forced tuples) and a
        // multi-indicator core (the disjunction), which exercises the
        // relaxation-sum path.
        let goal = [FormulaGroup::new(
            "g",
            vec![
                tuple_pred(&f, 0, 1),
                tuple_pred(&f, 1, 2),
                Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 2, 2)]),
            ],
        )];
        let target = Instance::new();
        let mut oll = engine(&f);
        assert_eq!(oll.target_strategy(), TargetStrategy::CoreGuided);
        let (out_oll, d_oll) = oll.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        let mut lin = engine(&f);
        lin.set_target_strategy(TargetStrategy::Linear);
        let (out_lin, d_lin) = lin.solve_target(&goal, &target, Budget::unlimited()).unwrap();
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
        let (out_again, d_again) = oll.solve_target(&goal, &target, Budget::unlimited()).unwrap();
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
        let goal = [FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        )];
        let mut q = IncrementalQuery::new(&f.v, &f.u, &[f.allow], &bounds, Instance::new());
        let models = q.enumerate(&goal, 10, Budget::unlimited()).unwrap();
        assert_eq!(models.len(), 3);
        // The blocking clauses are gated off: solves still see all
        // three models, and a second enumeration repeats exactly.
        assert!(q.solve(&goal, Budget::unlimited()).unwrap().is_sat());
        let again = q.enumerate(&goal, 10, Budget::unlimited()).unwrap();
        assert_eq!(models, again, "canonical enumeration is deterministic");
    }

    /// A warm engine meeting a *new* group under an expired budget
    /// aborts in the ground phase at every entry point — `Unknown`
    /// with empty stats (distance 0 for targets), `Exhausted` for
    /// enumeration — and afterwards answers exactly like a fresh
    /// engine.
    #[test]
    fn new_group_under_expired_budget_aborts_then_answers_like_fresh() {
        let f = fix();
        let seen = FormulaGroup::new(
            "seen",
            vec![Formula::or([tuple_pred(&f, 0, 1), tuple_pred(&f, 1, 2)])],
        );
        let new = FormulaGroup::new("new", vec![Formula::not(tuple_pred(&f, 0, 1))]);
        let groups = [seen.clone(), new];
        let target = Instance::new();
        let mut warm = engine(&f);
        assert!(warm.solve(&[seen], Budget::unlimited()).unwrap().is_sat());
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        let aborted = |out: &Outcome| {
            matches!(
                out,
                Outcome::Unknown { phase: Phase::Ground, stats, partial: None }
                    if *stats == QueryStats::default()
            )
        };
        let out = warm.solve(&groups, expired.clone()).unwrap();
        assert!(aborted(&out), "solve: {out:?}");
        let (out, dist) = warm.solve_target(&groups, &target, expired.clone()).unwrap();
        assert!(aborted(&out), "solve_target: {out:?}");
        assert_eq!(dist, 0);
        match warm.enumerate(&groups, 10, expired) {
            Err(QueryError::Exhausted { phase: Phase::Ground, stats }) => {
                assert_eq!(stats, QueryStats::default());
            }
            other => panic!("enumerate: {other:?}"),
        }
        assert_eq!(warm.num_groups(), 1, "the aborted group was never encoded");
        // Byte for byte, work counters included.
        let warm_out = warm.solve(&groups, Budget::unlimited()).unwrap();
        let fresh_out = engine(&f).solve(&groups, Budget::unlimited()).unwrap();
        assert!(warm_out.is_sat());
        assert_eq!(format!("{warm_out:?}"), format!("{fresh_out:?}"));
        let warm_t = warm.solve_target(&groups, &target, Budget::unlimited()).unwrap();
        let fresh_t = engine(&f).solve_target(&groups, &target, Budget::unlimited()).unwrap();
        assert_eq!(format!("{warm_t:?}"), format!("{fresh_t:?}"));
        assert_eq!(
            warm.enumerate(&groups, 10, Budget::unlimited()).unwrap(),
            engine(&f).enumerate(&groups, 10, Budget::unlimited()).unwrap()
        );
    }
}
