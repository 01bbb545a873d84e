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
//! is shrunk by deterministic ordered deletion — so warm and cold runs
//! return byte-identical verdicts, models and cores at every instance
//! size. Each search is one [`Solver::solve_lex_min`] call: the
//! ordinary VSIDS search, then, if it finds a model, a second search
//! from its assumption levels that decides the free tuple variables
//! first.
//!
//! Every solve call takes the formula groups it should run with:
//! groups the engine has not seen are grounded and encoded on the way
//! in, the rest are reused. "Seen" means same meaning
//! ([`FormulaGroup::encoding_keys`]): the formulas up to α-equivalence
//! and the group's tag, not its name. The engine keeps no names; a
//! core names its groups by what the current call submitted. The
//! first call also lays out the free-tuple variables, under its
//! budget. A one-shot caller builds an engine, makes
//! one call and drops it; [`crate::PreparedStore`] keeps warm engines
//! keyed by query shape.
//!
//! Because an answer is canonical, it is a pure function of the
//! engine's clauses and the ordered selector list a call assumes, and
//! nothing a later call adds changes it: new groups are
//! selector-guarded, learnt clauses are implied, and totalizer and
//! enumeration clauses are definitional or gated. So [`IncrementalQuery::solve`]
//! keeps the answer of each call under its assumption list and answers
//! a repeat of that list without searching (the answer memo, DESIGN.md
//! §13).

use std::collections::{BTreeSet, HashMap, VecDeque};

use muppet_logic::fingerprint::Fingerprinter;
use muppet_logic::{Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_sat::{mus, Budget, Lit, Model, SolveResult, Solver, Var};

use crate::ground::{ground, GExpr};
use crate::query::{FormulaGroup, Outcome, PartialResult, Phase, QueryError, QueryStats};
use crate::totalizer::Totalizer;
use crate::tseitin::{encode, fresh_vars};
use crate::varmap::VarMap;

/// Most answers one engine's memo keeps, oldest out first. An entry
/// is its assumption list (one selector per submitted group) plus the
/// true free variables of a lex-min model or the selectors of a core,
/// 4 bytes each. Measured on the `stream-policy-churn` replay: at most
/// 24 selectors and 16 true variables (of 29,760 free ones), under
/// 200 bytes with the vectors' headers, so a full memo costs an engine
/// about 13 KiB.
const MEMO_CAP: usize = 64;

/// The warm incremental engine: solver + varmap built once, formula
/// groups encoded on first use and activated by selector assumptions
/// ever after. See the module docs for the reuse and canonicalization
/// contracts.
pub struct IncrementalQuery {
    vocab: Vocabulary,
    universe: Universe,
    free_rels: Vec<RelId>,
    bounds: PartialInstance,
    fixed: Instance,
    solver: Solver,
    /// The free-tuple layout, built under the budget of the first call
    /// (see [`Self::lay_out`]).
    varmap: Option<VarMap>,
    /// The free tuple variables in ascending order: the significance
    /// order of canonical models.
    free: Vec<Var>,
    /// Group encoding key ([`FormulaGroup::encoding_keys`]) → its
    /// encoding.
    index: HashMap<u128, EncodedGroup>,
    /// Relaxation-sum input fingerprint → its totalizer, so repeated
    /// target-oriented solves that meet the same cores reuse the
    /// (permanent, one-sided, assumption-activated) totalizer clauses.
    totalizers: HashMap<u128, Totalizer>,
    /// Canonical answers of earlier [`IncrementalQuery::solve`] calls,
    /// keyed by their assumption lists, oldest first.
    memo: VecDeque<(Vec<Lit>, Answer)>,
    answers_reused: u64,
    /// Lifetime count of OLL cores consumed by core-guided target
    /// solves on this engine; [`QueryStats::oll_cores`] reports the
    /// per-solve delta.
    oll_rounds: u64,
    encoded_groups: u64,
    reused_groups: u64,
}

/// A memoized canonical answer.
enum Answer {
    /// The true free variables of the lex-min model, ascending.
    Sat(Vec<Var>),
    /// The selectors of the ordered-deletion core.
    Unsat(Vec<Lit>),
}

/// An encoded group's selector literal and the number of solver
/// variables its encoding owns: the selector and the Tseitin gates,
/// allocated contiguously by `ensure_group` and never shared with
/// another group. The group's name is not kept: cores name groups by
/// what the current call submitted.
struct EncodedGroup {
    sel: Lit,
    vars: usize,
}

impl IncrementalQuery {
    /// Build the warm state for the free relations under `bounds`
    /// against `fixed`. Nothing is allocated yet: the first solve call
    /// lays out the free-tuple variables under its budget, and groups
    /// are encoded by the first call that names them.
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
        IncrementalQuery {
            vocab,
            universe,
            free_rels: free_rels.to_vec(),
            bounds: bounds.clone(),
            fixed,
            solver: Solver::new(),
            varmap: None,
            free: Vec::new(),
            index: HashMap::new(),
            totalizers: HashMap::new(),
            memo: VecDeque::new(),
            answers_reused: 0,
            oll_rounds: 0,
            encoded_groups: 0,
            reused_groups: 0,
        }
    }

    /// The free-tuple layout; every public entry point lays it out
    /// (through [`Self::prepare`]) before anything reads it.
    fn varmap(&self) -> &VarMap {
        self.varmap.as_ref().expect("free-tuple layout built by prepare")
    }

    /// Allocate the free-tuple variables on the first call, polling
    /// `budget` while the map is built; a budget that fires leaves the
    /// engine unbuilt and gives [`QueryError::Exhausted`] at
    /// [`Phase::Ground`], and the next call starts over.
    fn lay_out(&mut self, budget: &Budget) -> Result<(), QueryError> {
        if self.varmap.is_none() {
            let varmap = VarMap::build(
                &self.vocab,
                &self.universe,
                &self.free_rels,
                &self.bounds,
                &mut self.solver,
                budget,
            )?;
            self.free = varmap.free_vars().collect();
            self.varmap = Some(varmap);
        }
        Ok(())
    }

    /// Ground + encode `group` if this engine holds no encoding under
    /// `key` (its [`FormulaGroup::encoding_keys`] entry); otherwise
    /// reuse the existing encoding. Returns the group's selector
    /// literal.
    fn ensure_group(
        &mut self,
        group: &FormulaGroup,
        key: u128,
        budget: &Budget,
    ) -> Result<Lit, QueryError> {
        if let Some(g) = self.index.get(&key) {
            self.reused_groups += 1;
            return Ok(g.sel);
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
            .map(|f| ground(f, self.varmap(), &self.fixed, &self.universe, budget))
            .collect::<Result<Vec<_>, _>>()?;
        if ground_span.is_recording() {
            ground_span.attr("group", group.name.clone());
            ground_span.record("nodes", exprs.iter().map(GExpr::size).sum::<usize>() as u64);
            // What the encode below allocates: the selector plus
            // `fresh_vars` per formula.
            let vars = 1 + exprs.iter().map(fresh_vars).sum::<usize>();
            ground_span.record("vars", vars as u64);
        }
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
        let vars_before = self.solver.num_vars();
        let sel = Lit::pos(self.solver.new_var());
        for expr in &exprs {
            let lit = encode(expr, &mut self.solver);
            self.solver.add_clause([!sel, lit]);
        }
        drop(encode_span);
        let vars = self.solver.num_vars() - vars_before;
        self.index.insert(key, EncodedGroup { sel, vars });
        self.encoded_groups += 1;
        Ok(sel)
    }

    /// The selector literals that activate `groups`, in submission
    /// order, laying out the free tuples on the first call and encoding
    /// each group this engine has not seen before. A budget that fires
    /// while laying out, grounding or encoding gives
    /// [`QueryError::Exhausted`] with empty stats.
    fn prepare(
        &mut self,
        groups: &[FormulaGroup],
        budget: &Budget,
    ) -> Result<Vec<Lit>, QueryError> {
        self.lay_out(budget)?;
        let keys = FormulaGroup::encoding_keys(groups);
        groups
            .iter()
            .zip(keys)
            .map(|(g, key)| self.ensure_group(g, key, budget))
            .collect()
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
            oll_cores: self.oll_rounds,
        }
    }

    fn delta_stats(&self, base: &QueryStats) -> QueryStats {
        QueryStats {
            free_tuple_vars: self.varmap().num_free_vars(),
            conflicts: self.solver.stats.conflicts.saturating_sub(base.conflicts),
            decisions: self.solver.stats.decisions.saturating_sub(base.decisions),
            propagations: self.solver.stats.propagations.saturating_sub(base.propagations),
            restarts: self.solver.stats.restarts.saturating_sub(base.restarts),
            oll_cores: self.oll_rounds.saturating_sub(base.oll_cores),
        }
    }

    /// Group names of the core `lits`: the names `groups` (the current
    /// call's submission, parallel to `assumptions`) gives the blamed
    /// selectors, in submission order. Naming by the current call
    /// rather than by whatever name a group had when this engine first
    /// encoded it makes a renamed group's blame carry its new name, and
    /// ordering by the assumptions rather than by encoding history
    /// makes warm and cold cores byte-identical. (The shrinker already
    /// returns an ordered subsequence of the assumptions; this also
    /// normalizes raw solver-reported cores, whose order is
    /// heuristic-dependent.)
    fn names_of_in(groups: &[FormulaGroup], assumptions: &[Lit], lits: &[Lit]) -> Vec<String> {
        assumptions
            .iter()
            .zip(groups)
            .filter(|(l, _)| lits.contains(l))
            .map(|(_, g)| g.name.clone())
            .collect()
    }

    /// Search under `assumptions`; a model comes back canonical: the
    /// lexicographically smallest over the free tuple variables. The
    /// canonical model is a pure function of the problem semantics and
    /// the variable order, independent of solver heuristic state, which
    /// is what makes warm and cold answers byte-identical. The first
    /// search is the ordinary VSIDS one, so unsat answers and their
    /// cores are unaffected; a budget firing while canonicalizing keeps
    /// that search's (valid, possibly non-canonical) model rather than
    /// losing the answer.
    fn search_canonical(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_lex_min(assumptions, &self.free)
    }

    /// The canonical model under `assumptions`, or `fallback`, a model
    /// at the same distance, if the budget fires first.
    fn canonical_or(&mut self, assumptions: &[Lit], fallback: Model) -> Model {
        match self.search_canonical(assumptions) {
            SolveResult::Sat(model) => model,
            _ => fallback,
        }
    }

    /// The memoized answer to `assumptions`, as an outcome named by the
    /// current call's `groups`, with zero work counters.
    fn recall(&mut self, groups: &[FormulaGroup], assumptions: &[Lit]) -> Option<Outcome> {
        let (_, answer) = self.memo.iter().find(|(key, _)| key == assumptions)?;
        let stats = QueryStats {
            free_tuple_vars: self.varmap().num_free_vars(),
            ..QueryStats::default()
        };
        let outcome = match answer {
            Answer::Sat(trues) => {
                let free = self.varmap().decode_with(|v| trues.binary_search(&v).is_ok());
                Outcome::Sat { solution: self.fixed.union(&free), stats }
            }
            Answer::Unsat(core) => Outcome::Unsat {
                core: Self::names_of_in(groups, assumptions, core),
                stats,
            },
        };
        self.answers_reused += 1;
        Some(outcome)
    }

    /// Keep the canonical `answer` to `assumptions`, dropping the
    /// oldest entry beyond [`MEMO_CAP`].
    fn remember(&mut self, assumptions: &[Lit], answer: Answer) {
        if self.memo.len() >= MEMO_CAP {
            self.memo.pop_front();
        }
        self.memo.push_back((assumptions.to_vec(), answer));
    }

    /// Start a call: lay out, ground and encode `groups` ([`Self::prepare`]),
    /// install `budget`, and return the groups' selectors with the
    /// counter base the call's stats are measured from. This is the one
    /// place a call stops before searching: a budget that fires while
    /// preparing is [`QueryError::Exhausted`] at that phase with empty
    /// stats, and the `Search` failpoint or a budget already spent is
    /// [`QueryError::Exhausted`] at [`Phase::Search`] — checked before the
    /// memo, so an expired budget never gets an answer, known or not.
    fn begin(
        &mut self,
        groups: &[FormulaGroup],
        budget: Budget,
    ) -> Result<(Vec<Lit>, QueryStats), QueryError> {
        let assumptions = self.prepare(groups, &budget)?;
        let base = self.stats_base();
        self.solver.set_budget(budget);
        #[cfg(any(test, feature = "fault-inject"))]
        let tripped = crate::fault::should_trip(Phase::Search);
        #[cfg(not(any(test, feature = "fault-inject")))]
        let tripped = false;
        if tripped || self.solver.budget_exhausted().is_some() {
            let stats = self.delta_stats(&base);
            return Err(QueryError::Exhausted { phase: Phase::Search, stats });
        }
        Ok((assumptions, base))
    }

    /// A call that stopped in [`Self::begin`], as the answer
    /// [`Self::solve`] and [`Self::solve_target`] give: `Unknown` at the
    /// phase that stopped it. A ground error stays an error.
    fn stopped(e: QueryError) -> Result<Outcome, QueryError> {
        match e {
            QueryError::Exhausted { phase, stats } => {
                Ok(Outcome::Unknown { phase, stats, partial: None })
            }
            e => Err(e),
        }
    }

    /// `Unknown` at `phase`, with the work done since `base`.
    fn unknown(&self, phase: Phase, base: &QueryStats, partial: Option<PartialResult>) -> Outcome {
        Outcome::Unknown { phase, stats: self.delta_stats(base), partial }
    }

    /// The unsat tail every search ends in: shrink the search's
    /// `first_core` by ordered deletion to the minimal core, memoize it
    /// under `assumptions` and name it by the current call's `groups`. A
    /// budget that fires while shrinking leaves UNSAT established, so
    /// the answer is `Unknown` at [`Phase::Minimize`] carrying the best
    /// (unminimized) core as a partial artifact.
    fn unsat_tail(
        &mut self,
        groups: &[FormulaGroup],
        assumptions: &[Lit],
        first_core: &[Lit],
        base: &QueryStats,
    ) -> Outcome {
        let mut minimize_span = muppet_obs::span("minimize");
        let pre_conflicts = self.solver.stats.conflicts;
        let shrunk = mus::shrink_core_ordered(&mut self.solver, assumptions, first_core);
        minimize_span.record(
            "conflicts",
            self.solver.stats.conflicts.saturating_sub(pre_conflicts),
        );
        drop(minimize_span);
        match shrunk {
            mus::ShrinkResult::Minimal(core) => {
                let names = Self::names_of_in(groups, assumptions, &core);
                self.remember(assumptions, Answer::Unsat(core));
                Outcome::Unsat { core: names, stats: self.delta_stats(base) }
            }
            mus::ShrinkResult::Exhausted { best } => {
                let partial = PartialResult::Core(Self::names_of_in(groups, assumptions, &best));
                self.unknown(Phase::Minimize, base, Some(partial))
            }
        }
    }

    /// The search of [`Self::solve`]: answer from the memo when this
    /// engine has answered `assumptions` before, else run the CDCL
    /// search under the installed budget — a model comes back canonical
    /// and is memoized, a core goes through [`Self::unsat_tail`].
    fn run_search(
        &mut self,
        groups: &[FormulaGroup],
        assumptions: &[Lit],
        base: &QueryStats,
    ) -> Outcome {
        if let Some(outcome) = self.recall(groups, assumptions) {
            return outcome;
        }
        let mut search_span = muppet_obs::span("search");
        let search_result = self.search_canonical(assumptions);
        if search_span.is_recording() {
            let d = self.delta_stats(base);
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
                let solution = self.fixed.union(&self.varmap().decode(&model));
                let stats = self.delta_stats(base);
                // A budget that fired during the lex-min pass left the
                // first search's model, which is not canonical.
                if self.solver.budget_exhausted().is_none() {
                    let trues = self.free.iter().copied().filter(|&v| model.value(v)).collect();
                    self.remember(assumptions, Answer::Sat(trues));
                }
                Outcome::Sat { solution, stats }
            }
            SolveResult::Unsat(first_core) => {
                self.unsat_tail(groups, assumptions, &first_core, base)
            }
            SolveResult::Unknown => self.unknown(Phase::Search, base, None),
        }
    }

    /// Solve with exactly `groups` active, under `budget`, encoding the
    /// groups this engine has not seen before. Work counters in the
    /// outcome are the *delta* for this solve, not the warm solver's
    /// lifetime totals. Satisfiable answers are the canonical
    /// (lex-smallest) model; UNSAT cores are minimized by ordered
    /// deletion — see the module docs.
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
        let (assumptions, base) = match self.begin(groups, budget) {
            Ok(started) => started,
            Err(e) => return Self::stopped(e),
        };
        Ok(self.run_search(groups, &assumptions, &base))
    }

    /// Find the satisfying instance *closest to `target`* (fewest tuple
    /// flips over the free relations) with exactly `groups` active,
    /// encoding the groups this engine has not seen before. Returns the
    /// outcome and, when SAT, the achieved distance.
    ///
    /// This reproduces Pardinus's target-oriented model finding. A plain
    /// feasibility probe comes first: when the groups are unsatisfiable
    /// the answer is the minimal core, exactly as [`Self::solve`] gives
    /// it, and memoized for it. Otherwise an OLL-style core-guided
    /// ascent proves the minimal distance: each UNSAT core raises the
    /// lower bound by one and is relaxed through a cached totalizer,
    /// whose clauses are one-sided (inputs drive outputs) and activated
    /// purely by assumptions, so they stay inert for every other solve
    /// on this warm engine. Among the minimal-distance models the
    /// canonical one (see [`Self::solve`]) is returned. On budget
    /// exhaustion the returned [`Outcome::Unknown`] carries the best
    /// model found so far as a [`PartialResult::Model`], so a
    /// counter-offer can still be made; a budget that fires while
    /// grounding or encoding gives distance 0 and empty stats, as in
    /// [`Self::solve`].
    pub fn solve_target(
        &mut self,
        groups: &[FormulaGroup],
        target: &Instance,
        budget: Budget,
    ) -> Result<(Outcome, usize), QueryError> {
        let (assumptions, base) = match self.begin(groups, budget) {
            Ok(started) => started,
            Err(e) => return Self::stopped(e).map(|out| (out, 0)),
        };
        Ok(self.solve_target_inner(groups, &assumptions, target, &base))
    }

    fn solve_target_inner(
        &mut self,
        groups: &[FormulaGroup],
        assumptions: &[Lit],
        target: &Instance,
        base: &QueryStats,
    ) -> (Outcome, usize) {
        // Difference indicators: literal true iff the tuple's value in
        // the model differs from its value in the target.
        let mut diff_inputs = Vec::new();
        for (var, rel, tuple) in self.varmap().free_tuples() {
            let in_target = target.holds(rel, &tuple);
            diff_inputs.push(Lit::new(var, !in_target));
        }
        // Pinned tuples that disagree with the target contribute a
        // fixed base distance no model can avoid. Walk the varmap's
        // pinned-true tuples not in the target plus the target's own
        // tuples that are pinned false (stored or implicit outside a
        // sparse bound) instead of the full tuple product — the two
        // sweeps together count exactly the disagreeing pins.
        let mut dist_base = 0usize;
        for &rel in &self.free_rels {
            dist_base += self
                .varmap()
                .pinned_true(rel)
                .filter(|tuple| !target.holds(rel, tuple))
                .count();
            for tuple in target.tuples(rel) {
                if self.varmap().state(rel, tuple) == Some(crate::varmap::TupleState::False) {
                    dist_base += 1;
                }
            }
        }

        // Feasibility probe: a plain search (no lex-min pass) that
        // establishes an upper bound on the distance.
        let mut search_span = muppet_obs::span("search");
        search_span.attr("mode", "target");
        let probe = match self.solver.solve_with_assumptions(assumptions) {
            SolveResult::Sat(model) => model,
            SolveResult::Unsat(first_core) => {
                drop(search_span);
                // Infeasible at any distance.
                return (self.unsat_tail(groups, assumptions, &first_core, base), 0);
            }
            SolveResult::Unknown => return (self.unknown(Phase::Search, base, None), 0),
        };
        let best_dist = diff_inputs.iter().filter(|&&l| probe.lit_value(l)).count();
        // A budget that fires past the probe keeps the probe model as a
        // valid (if non-minimal) counter-offer.
        let best_so_far = |this: &Self, probe: &Model| {
            let partial = PartialResult::Model {
                solution: this.fixed.union(&this.varmap().decode(probe)),
                distance: dist_base + best_dist,
            };
            (this.unknown(Phase::Search, base, Some(partial)), 0)
        };

        // OLL-style ascent proving the minimal number of true difference
        // indicators (`optimum <= best_dist`). Every indicator `d` gets
        // the soft assumption `¬d`. Each UNSAT core proves one more
        // unavoidable flip: the blamed softs are retired and — when the
        // core blames two or more indicators — replaced by a totalizer
        // over them whose bound starts at 1 and is raised one unit each
        // time a later core blames its current bound output. The loop
        // ends when the softs-plus-bounds state is satisfiable (cost
        // exactly `lb`) or `lb` meets the probe's upper bound. Either way
        // every hard-satisfying model costs `lb` plus the number of
        // softs and bounds it violates, so the final softs-plus-bounds
        // set admits exactly the distance-minimal models, and the
        // canonical model under it is the answer.
        let mut softs: Vec<Lit> = diff_inputs.iter().map(|&d| !d).collect();
        // Live relaxation sums: (totalizer cache key, current bound,
        // input count). The one-sided tree forces outputs
        // monotonically, so assuming the single literal
        // `¬output(bound)` enforces "≤ bound".
        let mut sums: Vec<(u128, usize, usize)> = Vec::new();
        let mut lb = 0usize;
        let (optimum, model) = loop {
            let mut assms = assumptions.to_vec();
            assms.extend_from_slice(&softs);
            for &(key, bound, _) in &sums {
                if let Some(o) = self.totalizers[&key].output(bound) {
                    assms.push(!o);
                }
            }
            if lb >= best_dist {
                // The probe model already attains the proven lower
                // bound.
                break (best_dist, self.canonical_or(&assms, probe));
            }
            match self.search_canonical(&assms) {
                // Cost of this model is exactly `lb`, which the cores
                // prove minimal.
                SolveResult::Sat(model) => break (lb, model),
                SolveResult::Unsat(core) => {
                    self.oll_rounds += 1;
                    lb += 1;
                    // Collect the difference indicators this core
                    // blames: retired softs contribute the indicator
                    // itself, relaxation sums their violated bound
                    // output. The probe proved the hard groups
                    // satisfiable and totalizer clauses are
                    // definitional, so every core blames at least one.
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
                            // A sum at full bound can never be violated
                            // again; drop it.
                        } else {
                            next_sums.push((key, bound, len));
                        }
                    }
                    sums = next_sums;
                    // A single blamed indicator needs no sum: one
                    // Boolean can only be violated once, and its unit
                    // of cost is now counted in `lb`.
                    if indicators.len() >= 2 {
                        let mut fp = Fingerprinter::new();
                        for &l in &indicators {
                            fp.add_u64(l.var().index() as u64);
                            fp.add_bool(l.is_positive());
                        }
                        let key = fp.digest();
                        if !self.totalizers.contains_key(&key) {
                            let tot = Totalizer::build(&indicators, &mut self.solver);
                            self.totalizers.insert(key, tot);
                        }
                        sums.push((key, 1, indicators.len()));
                    }
                }
                SolveResult::Unknown => return best_so_far(self, &probe),
            }
        };
        let solution = self.fixed.union(&self.varmap().decode(&model));
        drop(search_span);
        let stats = self.delta_stats(base);
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
        let (mut assumptions, base) = self.begin(groups, budget)?;
        let esel = Lit::pos(self.solver.new_var());
        assumptions.push(esel);
        let mut out = Vec::new();
        while out.len() < limit {
            match self.search_canonical(&assumptions) {
                SolveResult::Sat(model) => {
                    out.push(self.fixed.union(&self.varmap().decode(&model)));
                    // Block this assignment of the free tuple vars,
                    // gated on the enumeration selector.
                    let mut blocking: Vec<Lit> =
                        self.free.iter().map(|&v| Lit::new(v, !model.value(v))).collect();
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
                        stats: self.delta_stats(&base),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Groups grounded + encoded by this engine so far.
    pub fn num_groups(&self) -> usize {
        self.index.len()
    }

    /// Solver variables allocated so far: the free-tuple layout, every
    /// encoded group, and any totalizer or enumeration selectors.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Does this engine hold an encoding under the group encoding key
    /// `key` ([`FormulaGroup::encoding_keys`])?
    pub fn holds_group(&self, key: u128) -> bool {
        self.index.contains_key(&key)
    }

    /// Solver variables owned by encoded groups whose encoding key
    /// ([`FormulaGroup::encoding_keys`]) is not in `live`.
    pub(crate) fn vars_outside(&self, live: &BTreeSet<u128>) -> usize {
        self.index
            .iter()
            .filter(|(key, _)| !live.contains(key))
            .map(|(_, g)| g.vars)
            .sum()
    }

    /// How many group submissions did fresh ground/encode work.
    pub fn encoded_groups(&self) -> u64 {
        self.encoded_groups
    }

    /// How many group submissions reused an existing encoding.
    pub fn reused_groups(&self) -> u64 {
        self.reused_groups
    }

    /// How many [`Self::solve`] calls were answered from the memo,
    /// without searching.
    pub fn answers_reused(&self) -> u64 {
        self.answers_reused
    }

    /// OLL cores consumed by core-guided [`Self::solve_target`] calls
    /// over this engine's lifetime.
    pub fn oll_cores(&self) -> u64 {
        self.oll_rounds
    }

    /// Free-tuple variables laid out so far: 0 until the first call
    /// builds the layout, constant after.
    pub fn layout_vars(&self) -> usize {
        self.free.len()
    }

    /// The owned vocabulary (for decoding / debugging).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{evaluate_closed, Domain, Formula, PartyId, SortId, Term, VarId};

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

    /// `∀a∀b allow(a,b)` over the given binder and argument variables.
    fn all_allow(f: &Fix, binders: [VarId; 2], args: [VarId; 2]) -> Formula {
        let body = Formula::pred(f.allow, args.map(Term::Var));
        Formula::forall(binders[0], f.s, Formula::forall(binders[1], f.s, body))
    }

    /// Encoding keys see meaning only: α-equivalent groups share one
    /// encoding whatever their names, a swapped argument order or a
    /// shadowed binder is different content, and the tag separates
    /// owners.
    #[test]
    fn alpha_equivalent_groups_share_one_encoding() {
        let mut f = fix();
        let [x, y, z, w] = [(); 4].map(|_| f.v.fresh_var());
        let g = |name: &str, formula: Formula| FormulaGroup::new(name, vec![formula]);
        let mut q = engine(&f);
        let encodes = |q: &mut IncrementalQuery, group: FormulaGroup| {
            let before = q.encoded_groups();
            assert!(q.solve(&[group], Budget::unlimited()).unwrap().is_sat());
            q.encoded_groups() - before
        };
        assert_eq!(encodes(&mut q, g("xy", all_allow(&f, [x, y], [x, y]))), 1);
        assert_eq!(encodes(&mut q, g("zw", all_allow(&f, [z, w], [z, w]))), 0, "α-equivalent");
        assert_eq!(encodes(&mut q, g("yx", all_allow(&f, [x, y], [y, x]))), 1, "swapped args");
        // ∀x∀x allow(x,x) binds both arguments to the inner x: the
        // diagonal, not ∀z∀w allow(z,w).
        assert_eq!(encodes(&mut q, g("shadow", all_allow(&f, [x, x], [x, x]))), 1);
        assert_eq!(encodes(&mut q, g("diag", all_allow(&f, [z, w], [w, w]))), 0);
        let tagged = g("xy", all_allow(&f, [x, y], [x, y])).with_tag(7);
        assert_eq!(encodes(&mut q, tagged), 1, "another owner's group");
        assert_eq!(q.num_groups(), 4);
    }

    /// A warm engine answers with the names of the current call: a
    /// renamed group reuses its encoding and is blamed under its new
    /// name, byte for byte like a fresh engine.
    #[test]
    fn renamed_group_reuses_its_encoding_and_blames_the_new_name() {
        let f = fix();
        let pos = tuple_pred(&f, 0, 1);
        let neg = FormulaGroup::new("forbid", vec![Formula::not(pos.clone())]);
        let mut warm = engine(&f);
        let old = [FormulaGroup::new("require v1", vec![pos.clone()]), neg.clone()];
        assert_eq!(warm.solve(&old, Budget::unlimited()).unwrap().core().unwrap().len(), 2);
        let renamed = [FormulaGroup::new("require v2", vec![pos]), neg];
        let out = warm.solve(&renamed, Budget::unlimited()).unwrap();
        assert_eq!(warm.encoded_groups(), 2, "the rename re-encoded a group");
        assert_eq!(warm.answers_reused(), 1, "same selectors, same answer");
        let fresh = engine(&f).solve(&renamed, Budget::unlimited()).unwrap();
        assert_eq!(out.core(), Some(&["require v2".to_string(), "forbid".to_string()][..]));
        assert_eq!(format!("{:?}", out.core()), format!("{:?}", fresh.core()));
    }

    /// Differently named groups with equal content in one call keep
    /// separate selectors, so blame names the one ordered deletion
    /// keeps, exactly as on a fresh engine, also when the engine
    /// already encoded that content under another name.
    #[test]
    fn equal_content_under_two_names_blames_like_a_fresh_engine() {
        let f = fix();
        let pos = tuple_pred(&f, 0, 1);
        let neg = FormulaGroup::new("forbid", vec![Formula::not(pos.clone())]);
        let groups = [
            FormulaGroup::new("b", vec![pos.clone()]),
            FormulaGroup::new("a", vec![pos.clone()]),
            neg,
        ];
        let keys = FormulaGroup::encoding_keys(&groups);
        assert_ne!(keys[0], keys[1]);
        let mut warm = engine(&f);
        let warmup = [FormulaGroup::new("a", vec![pos])];
        assert!(warm.solve(&warmup, Budget::unlimited()).unwrap().is_sat());
        let out = warm.solve(&groups, Budget::unlimited()).unwrap();
        let fresh = engine(&f).solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(out.core(), Some(&["a".to_string(), "forbid".to_string()][..]));
        assert_eq!(format!("{:?}", out.core()), format!("{:?}", fresh.core()));
        assert_eq!(warm.num_groups(), 3);
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
        // One of two tuples: the ascent's one core blames both
        // difference indicators and relaxes them through a sum.
        let goal = [FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 0, 0), tuple_pred(&f, 0, 1)])],
        )];
        let mut q = engine(&f);
        let target = Instance::new();
        let (out1, d1) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert!(out1.is_sat());
        assert_eq!(d1, 1);
        assert_eq!(q.totalizers.len(), 1);
        let (out2, d2) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert_eq!(d2, 1);
        assert_eq!(out1.solution(), out2.solution());
        assert_eq!(q.totalizers.len(), 1, "the same core reuses its sum");
        // A plain solve on the same warm engine is unaffected by the
        // (assumption-gated) totalizer clauses.
        assert!(q.solve(&goal, Budget::unlimited()).unwrap().is_sat());
    }

    #[test]
    fn core_guided_ascent_counts_singleton_and_relaxed_cores() {
        let f = fix();
        // Two forced flips plus a one-of-two choice: the ascent sees
        // both singleton cores (the forced tuples) and a
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
        let mut q = engine(&f);
        let (out, d) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert_eq!(d, 3, "two forced tuples plus one disjunct");
        match &out {
            Outcome::Sat { solution, stats } => {
                assert_eq!(solution.distance(&target), 3);
                // Canonical (false before true in variable order): the
                // disjunct whose tuple comes later is the one set.
                assert!(!solution.holds(f.allow, &[f.atoms[0], f.atoms[0]]));
                assert!(solution.holds(f.allow, &[f.atoms[2], f.atoms[2]]));
                assert_eq!(stats.oll_cores, 3, "one core per unit of distance");
            }
            other => panic!("{other:?}"),
        }
        let (again, d_again) = q.solve_target(&goal, &target, Budget::unlimited()).unwrap();
        assert_eq!(d_again, 3);
        assert_eq!(again.solution(), out.solution());
    }

    /// An unsat `solve_target` ends in the same tail as `solve`: the
    /// minimal core a fresh engine's `solve` gives, memoized, so a
    /// following `solve` of the same groups is answered without search.
    #[test]
    fn unsat_solve_target_is_remembered() {
        let f = fix();
        let groups = [
            FormulaGroup::new("pos", vec![tuple_pred(&f, 0, 1)]),
            FormulaGroup::new("free", vec![tuple_pred(&f, 1, 1)]),
            FormulaGroup::new("neg", vec![Formula::not(tuple_pred(&f, 0, 1))]),
        ];
        let mut q = engine(&f);
        let (out, d) = q.solve_target(&groups, &Instance::new(), Budget::unlimited()).unwrap();
        assert_eq!(d, 0);
        let fresh = engine(&f).solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(out.core(), Some(&["pos".to_string(), "neg".to_string()][..]));
        assert_eq!(out.core(), fresh.core());
        let reused = q.answers_reused();
        let again = q.solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(q.answers_reused(), reused + 1, "the unsat answer was not memoized");
        assert_eq!(again.core(), fresh.core());
    }

    /// The minimal-edit instance of `muppet-scenario`'s `minedit(400,
    /// 50, 8)`: a ring of 400 atoms whose self-loops and ring edges are
    /// the 800 free tuples, and 50 goals each needing one of its 16
    /// tuples. Returns the engine inputs and the goal groups.
    fn minedit_800() -> (
        Universe,
        Vocabulary,
        RelId,
        PartialInstance,
        Vec<FormulaGroup>,
    ) {
        let (n, k, width) = (400, 50, 8);
        let mut u = Universe::new();
        let s = u.add_sort("Node");
        let atoms: Vec<_> = (0..n).map(|i| u.add_atom(s, format!("n{i}"))).collect();
        let mut v = Vocabulary::new();
        let rel = v.add_simple_rel("link", vec![s, s], Domain::Party(PartyId(0)));
        let mut bounds = PartialInstance::new();
        let pred =
            |i: usize, j: usize| Formula::pred(rel, [Term::Const(atoms[i]), Term::Const(atoms[j])]);
        for i in 0..n {
            bounds.permit(rel, vec![atoms[i], atoms[i]]);
            bounds.permit(rel, vec![atoms[i], atoms[(i + 1) % n]]);
        }
        let groups = (0..k)
            .map(|j| {
                let options = (0..width).flat_map(|o| {
                    let i = j * (n / k) + o;
                    [pred(i, i), pred(i, (i + 1) % n)]
                });
                FormulaGroup::new(format!("goal-{j}"), vec![Formula::or(options)])
            })
            .collect();
        (u, v, rel, bounds, groups)
    }

    /// On an engine with 800 free variables, a warm engine that first
    /// solved other group sets answers `solve`, `solve_target` and
    /// `enumerate` byte for byte like fresh engines, and the ascent's
    /// relaxation sums stay local to its cores.
    #[test]
    fn warm_answers_equal_fresh_above_800_free_vars() {
        let (u, v, rel, bounds, groups) = minedit_800();
        let new = || IncrementalQuery::new(&v, &u, &[rel], &bounds, Instance::new());
        let render = |i: &Instance| format!("{i:?}");
        let target = Instance::new();
        let solve = |q: &mut IncrementalQuery| match q.solve(&groups, Budget::unlimited()).unwrap()
        {
            Outcome::Sat { solution, .. } => render(&solution),
            other => panic!("{other:?}"),
        };
        let solve_target = |q: &mut IncrementalQuery| {
            let (out, d) = q
                .solve_target(&groups, &target, Budget::unlimited())
                .unwrap();
            assert_eq!(d, 50);
            format!("{} at {d}", render(out.solution().expect("sat")))
        };
        let enumerate = |q: &mut IncrementalQuery| {
            let models = q.enumerate(&groups, 3, Budget::unlimited()).unwrap();
            assert_eq!(models.len(), 3);
            models.iter().map(render).collect::<Vec<_>>()
        };

        let mut oll = new();
        let fresh_target = solve_target(&mut oll);
        assert!(
            oll.totalizers.values().all(|t| t.len() < oll.free.len()),
            "a relaxation sum spans every difference indicator"
        );
        let fresh_solve = solve(&mut new());
        let fresh_enum = enumerate(&mut new());

        let mut warm = new();
        assert!(warm
            .solve(&groups[..25], Budget::unlimited())
            .unwrap()
            .is_sat());
        let mut shifted = Instance::new();
        for t in bounds.upper(rel).take(40) {
            shifted.insert(rel, t.clone());
        }
        let (out, _) = warm
            .solve_target(&groups[10..], &shifted, Budget::unlimited())
            .unwrap();
        assert!(out.is_sat());
        assert_eq!(
            warm.enumerate(&groups[..5], 2, Budget::unlimited())
                .unwrap()
                .len(),
            2
        );
        assert_eq!(solve(&mut warm), fresh_solve);
        assert_eq!(solve_target(&mut warm), fresh_target);
        assert_eq!(enumerate(&mut warm), fresh_enum);
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

    /// The free-tuple layout is built under the first call's budget:
    /// an expired one stops it at the ground phase with nothing
    /// allocated, and the next call builds it and answers like a fresh
    /// engine.
    #[test]
    fn layout_under_expired_budget_aborts_at_ground() {
        let mut u = Universe::new();
        let s = u.add_sort("Node");
        let atoms: Vec<_> = (0..20).map(|i| u.add_atom(s, format!("n{i}"))).collect();
        let mut v = Vocabulary::new();
        let rel = v.add_simple_rel("edge", vec![s, s, s], Domain::Party(PartyId(0)));
        let bounds = PartialInstance::new();
        let new = || IncrementalQuery::new(&v, &u, &[rel], &bounds, Instance::new());
        let groups = [FormulaGroup::new(
            "g",
            vec![Formula::pred(rel, [atoms[1], atoms[2], atoms[3]].map(Term::Const))],
        )];
        let mut q = new();
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        match q.solve(&groups, expired).unwrap() {
            Outcome::Unknown { phase: Phase::Ground, stats, partial: None } => {
                assert_eq!(stats, QueryStats::default());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!((q.num_vars(), q.num_groups()), (0, 0));
        let warm = q.solve(&groups, Budget::unlimited()).unwrap();
        let fresh = new().solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(warm.stats().free_tuple_vars, 8000);
        assert_eq!(format!("{warm:?}"), format!("{fresh:?}"));
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

    /// A warm engine that answers S1, then S2 (which encodes a new
    /// group), then S1 again answers the revisit from its memo, without
    /// searching, byte for byte like a fresh engine: the lex-min model
    /// for a sat state, the ordered-deletion core for an unsat one.
    #[test]
    fn revisited_state_is_answered_without_search_like_a_fresh_engine() {
        let f = fix();
        let or = FormulaGroup::new(
            "or",
            vec![Formula::or([tuple_pred(&f, 1, 1), tuple_pred(&f, 0, 2)])],
        );
        let pos = FormulaGroup::new("pos", vec![tuple_pred(&f, 0, 1)]);
        let neg = FormulaGroup::new("neg", vec![Formula::not(tuple_pred(&f, 0, 1))]);
        let extra = FormulaGroup::new("extra", vec![tuple_pred(&f, 2, 0)]);
        let sat = [or.clone(), pos.clone()];
        let unsat = [or.clone(), pos, neg];
        for s1 in [&sat[..], &unsat[..]] {
            let s2: Vec<FormulaGroup> = s1.iter().cloned().chain([extra.clone()]).collect();
            let mut warm = engine(&f);
            let first = warm.solve(s1, Budget::unlimited()).unwrap();
            warm.solve(&s2, Budget::unlimited()).unwrap();
            assert_eq!(warm.num_groups(), s1.len() + 1, "S2 encoded a new group");
            let (encoded, props) = (warm.encoded_groups(), warm.solver.stats.propagations);
            let again = warm.solve(s1, Budget::unlimited()).unwrap();
            assert_eq!(warm.answers_reused(), 1);
            assert_eq!(warm.encoded_groups(), encoded);
            assert_eq!(warm.solver.stats.propagations, props, "the revisit searched");
            assert_eq!(*again.stats(), QueryStats { free_tuple_vars: 9, ..QueryStats::default() });
            let fresh = engine(&f).solve(s1, Budget::unlimited()).unwrap();
            for out in [&first, &again] {
                assert_eq!(format!("{:?}", out.solution()), format!("{:?}", fresh.solution()));
                assert_eq!(format!("{:?}", out.core()), format!("{:?}", fresh.core()));
            }
        }
    }

    /// A budget that fires during the lex-min pass leaves the first
    /// search's model, which is not canonical: nothing is memoized,
    /// and the next call searches again and answers like a fresh
    /// engine.
    #[test]
    fn a_lex_min_pass_cut_short_memoizes_nothing() {
        let (u, v, rel, bounds, groups) = minedit_800();
        let new = || IncrementalQuery::new(&v, &u, &[rel], &bounds, Instance::new());
        let mut cap = 1;
        let mut q = loop {
            let mut q = new();
            let budget = Budget::unlimited().with_propagation_cap(cap);
            if q.solve(&groups, budget).unwrap().is_sat() {
                break q;
            }
            cap *= 2;
        };
        assert!(q.solver.budget_exhausted().is_some(), "the lex-min pass ran to completion");
        assert!(q.memo.is_empty());
        let again = q.solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(q.answers_reused(), 0);
        let fresh = new().solve(&groups, Budget::unlimited()).unwrap();
        assert_eq!(again.solution(), fresh.solution());
    }

    /// The memo keeps at most `MEMO_CAP` answers and drops the oldest
    /// first.
    #[test]
    fn the_memo_cap_holds_and_drops_the_oldest() {
        let (u, v, rel, bounds, groups) = minedit_800();
        let mut q = IncrementalQuery::new(&v, &u, &[rel], &bounds, Instance::new());
        // Distinct states: one goal, then pairs of adjacent goals.
        let state = |k: usize| &groups[k % 50..][..1 + k / 50];
        let calls = MEMO_CAP + 3;
        for k in 0..calls {
            assert!(q.solve(state(k), Budget::unlimited()).unwrap().is_sat());
        }
        assert_eq!(q.memo.len(), MEMO_CAP);
        assert_eq!(q.answers_reused(), 0, "every call was a new state");
        q.solve(state(calls - 1), Budget::unlimited()).unwrap();
        assert_eq!(q.answers_reused(), 1, "the newest answer is kept");
        q.solve(state(0), Budget::unlimited()).unwrap();
        assert_eq!(q.answers_reused(), 1, "the oldest answer was dropped");
    }
}
