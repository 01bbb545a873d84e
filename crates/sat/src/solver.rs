//! The CDCL search engine.
//!
//! A MiniSat-lineage solver: two-watched-literal propagation, first-UIP
//! conflict analysis with basic learned-clause minimization, VSIDS + phase
//! saving, Luby restarts, LBD-aware clause-database reduction, and
//! assumption-based incremental solving with core extraction.

use crate::budget::Budget;
use crate::clause::{ClauseDb, ClauseRef, Tier};
use crate::heap::ActivityHeap;
use crate::lit::{LBool, Lit, Var};
use crate::luby::LubyRestarts;
use crate::model::Model;
use crate::share::ClauseExchange;
use std::sync::Arc;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveResult {
    /// Satisfiable, with a total model.
    Sat(Model),
    /// Unsatisfiable. The payload is a *core*: a subset of the assumptions
    /// passed to [`Solver::solve_with_assumptions`] that is already jointly
    /// inconsistent with the clauses. Empty when the clauses alone are
    /// unsatisfiable.
    Unsat(Vec<Lit>),
    /// A configured resource limit (conflict budget, deadline,
    /// propagation cap, or cancellation) fired before an answer.
    Unknown,
}

impl SolveResult {
    /// `true` if this result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// `true` if this result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat(_))
    }
}

/// Counters describing the work a solver has done. Useful for the paper's
/// performance experiments (E4) and the ablations.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Total clauses ever learned (not the number currently retained in
    /// the DB — see `deleted_clauses` for what reduction removed).
    pub learned_clauses: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Learned clauses exported to a shared portfolio pool.
    pub exported_clauses: u64,
    /// Foreign clauses imported from a shared portfolio pool.
    pub imported_clauses: u64,
    /// Inprocessing passes run at restart boundaries.
    pub inprocessings: u64,
    /// Learnt clauses removed by inprocessing (root-satisfied or
    /// subsumed by another clause).
    pub subsumed_clauses: u64,
    /// Learnt clauses shortened by self-subsuming resolution or root
    /// simplification.
    pub strengthened_clauses: u64,
    /// Learnt clauses shortened by vivification.
    pub vivified_clauses: u64,
    /// Learnt clauses demoted Mid → Local by tiered reduction.
    pub tier_demotions: u64,
    /// Learnt clauses promoted to a better tier after their LBD
    /// improved during conflict analysis.
    pub tier_promotions: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Seeded xorshift64 state driving occasional random decisions
/// (portfolio tie-breaking diversification).
#[derive(Clone, Copy, Debug)]
struct RandomBranching {
    state: u64,
    /// A random decision is attempted with probability ~`1/inv_freq`.
    inv_freq: u32,
}

impl RandomBranching {
    fn next(&mut self) -> u64 {
        // xorshift64: full-period, allocation-free, deterministic.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

/// A worker's connection to a shared portfolio clause pool.
#[derive(Clone, Debug)]
struct ExchangeLink {
    worker: usize,
    pool: Arc<dyn ClauseExchange>,
    /// Only clauses with LBD at or below this are exported.
    export_lbd_max: u32,
}

/// Clauses longer than this are never exported: they are unlikely to
/// help other workers and would churn the byte-bounded pool.
const EXPORT_MAX_LEN: usize = 32;

/// Learned-clause retention policy.
///
/// `Flat` is the legacy single-cap policy (delete the worse half of the
/// learnt DB whenever it exceeds `max_learnt`); `Tiered` is the
/// Chanseok-Oh style three-tier policy (glue clauses kept forever,
/// mid-LBD clauses demoted when stale, the rest evicted by activity).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReduceStrategy {
    /// Single retention cap over the whole learnt DB (legacy policy).
    Flat,
    /// Three-tier core/mid/local DB keyed by LBD (default).
    #[default]
    Tiered,
}

/// LBD at or below which a learnt clause is glue ([`Tier::Core`]).
const CORE_LBD: u32 = 3;
/// LBD at or below which a learnt clause is [`Tier::Mid`].
const MID_LBD: u32 = 6;
/// Conflicts between inprocessing passes.
const INPROCESS_INTERVAL: u64 = 6000;
/// Upper bound on the geometric interval backoff (interval doubles
/// after every pass up to `interval * cap`).
const INPROCESS_STRETCH_CAP: u64 = 16;
/// Clauses longer than this are not used as subsumption candidates.
const SUBSUME_MAX_LEN: usize = 20;
/// Cap on subset checks per subsumption pass.
const SUBSUME_CHECK_CAP: usize = 100_000;
/// Clauses longer than this are not vivified.
const VIVIFY_MAX_LEN: usize = 40;
/// Cap on propagations per vivification pass.
const VIVIFY_PROP_CAP: u64 = 20_000;

/// A CDCL SAT solver. See the [crate docs](crate) for an overview.
///
/// `Solver` is `Clone`: a portfolio clones one master solver per worker
/// so every worker starts from the full incremental clause state, then
/// diversifies via [`Solver::set_restart_base`],
/// [`Solver::set_var_decay`], [`Solver::set_default_polarity`] /
/// [`Solver::randomize_polarities`] and
/// [`Solver::set_random_branching`].
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by `Lit::code()`; `watches[p]` holds clauses to
    /// visit when `p` becomes true (i.e. clauses watching `¬p`).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    /// Saved phase per variable.
    polarity: Vec<bool>,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    heap: ActivityHeap,
    /// Assignment trail; decision-level boundaries in `trail_lim`.
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    qhead: usize,
    /// False once a top-level contradiction has been derived.
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    seen: Vec<bool>,
    /// Scratch buffers reused across conflicts.
    analyze_tmp: Vec<Lit>,
    to_clear: Vec<Var>,
    /// Stamp scratch for [`Solver::compute_lbd`], indexed by decision
    /// level.
    lbd_marks: Vec<u64>,
    lbd_stamp: u64,
    max_learnt: usize,
    /// Retention policy for learnt clauses.
    reduce_strategy: ReduceStrategy,
    /// Retention cap for [`Tier::Mid`] (tiered policy only).
    mid_budget: usize,
    /// Retention cap for [`Tier::Local`] (tiered policy only).
    local_budget: usize,
    /// Whether inprocessing runs at restart boundaries.
    inprocess_on: bool,
    /// Conflict count at the last inprocessing pass.
    inprocess_base: u64,
    /// Conflicts between inprocessing passes.
    inprocess_interval: u64,
    /// Geometric backoff multiplier on the interval: doubles after every
    /// pass (instances that keep searching get proportionally cheaper
    /// inprocessing), capped so a pass still fires now and then.
    inprocess_stretch: u64,
    conflict_budget: Option<u64>,
    /// Base conflict interval for Luby restarts (diversified per
    /// worker).
    restart_base: u64,
    /// Recursive learned-clause minimization (off = legacy one-step
    /// antecedent check only).
    ccmin_deep: bool,
    /// DFS worklist for [`Solver::lit_redundant`] (kept allocated).
    ccmin_stack: Vec<Lit>,
    /// VSIDS decay factor (diversified per worker).
    var_decay: f64,
    /// Ramp `var_decay` toward [`VAR_DECAY_CAP`] at each restart (off =
    /// legacy fixed decay).
    decay_ramp: bool,
    /// Occasional random decisions, when configured.
    rnd: Option<RandomBranching>,
    /// Shared learned-clause pool, when part of a portfolio.
    exchange: Option<ExchangeLink>,
    /// Resource budget for subsequent solves (deadline / caps /
    /// cancellation). Caps are measured against `budget_base`.
    budget: Budget,
    /// `(conflicts, propagations)` totals at the moment the budget was
    /// installed, so its caps count only work done under it.
    budget_base: (u64, u64),
    /// Statistics since construction.
    pub stats: SolverStats,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
/// Ceiling of the VSIDS decay ramp: activity memory lengthens as the
/// run matures (young search adapts fast; a long refutation benefits
/// from a near-stable variable order).
const VAR_DECAY_CAP: f64 = 0.999;
/// Per-restart increment of the VSIDS decay ramp.
const VAR_DECAY_RAMP: f64 = 0.002;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 64;

enum SearchOutcome {
    Sat(Model),
    Unsat(Vec<Lit>),
    Restart,
    Budget,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            heap: ActivityHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            seen: Vec::new(),
            analyze_tmp: Vec::new(),
            to_clear: Vec::new(),
            lbd_marks: vec![0],
            lbd_stamp: 0,
            max_learnt: 4000,
            reduce_strategy: ReduceStrategy::Tiered,
            mid_budget: 2000,
            local_budget: 2000,
            inprocess_on: true,
            inprocess_base: 0,
            inprocess_interval: INPROCESS_INTERVAL,
            inprocess_stretch: 1,
            conflict_budget: None,
            restart_base: RESTART_BASE,
            decay_ramp: true,
            ccmin_deep: true,
            ccmin_stack: Vec::new(),
            var_decay: VAR_DECAY,
            rnd: None,
            exchange: None,
            budget: Budget::unlimited(),
            budget_base: (0, 0),
            stats: SolverStats::default(),
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.lbd_marks.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow();
        self.heap.insert(v, &self.activity);
        v
    }

    /// Allocate `n` fresh variables and return them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Limit the total number of conflicts across subsequent `solve` calls'
    /// searches; `None` removes the limit. When exhausted, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget.map(|b| self.stats.conflicts + b);
    }

    /// Install a [`Budget`] governing subsequent `solve` calls: wall-clock
    /// deadline, conflict/propagation caps, and cooperative cancellation.
    /// Caps count work done from this call onward; the deadline and
    /// cancellation token are absolute. When any limit fires, `solve`
    /// returns [`SolveResult::Unknown`].
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.budget_base = (self.stats.conflicts, self.stats.propagations);
    }

    /// The currently installed budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Check the installed budget against work done since it was
    /// installed. `None` while within limits.
    pub fn budget_exhausted(&self) -> Option<crate::budget::Exhaustion> {
        if self.budget.is_unlimited() {
            return None;
        }
        self.budget.check(
            self.stats.conflicts - self.budget_base.0,
            self.stats.propagations - self.budget_base.1,
        )
    }

    /// Lower the learned-clause retention threshold. Exposed for tests
    /// that need to exercise database reduction and garbage collection
    /// deterministically on small instances.
    ///
    /// Under [`ReduceStrategy::Tiered`] the single knob maps onto the
    /// tier budgets deterministically: `mid = max / 2`,
    /// `local = max - max / 2` (the core tier is never bounded).
    #[doc(hidden)]
    pub fn set_max_learnt(&mut self, max: usize) {
        self.max_learnt = max;
        self.mid_budget = max / 2;
        self.local_budget = max - max / 2;
    }

    /// Select the learned-clause retention policy. The default is
    /// [`ReduceStrategy::Tiered`]; [`ReduceStrategy::Flat`] restores the
    /// legacy single-cap behaviour (useful as a baseline oracle).
    pub fn set_reduce_strategy(&mut self, strategy: ReduceStrategy) {
        self.reduce_strategy = strategy;
    }

    /// The active learned-clause retention policy.
    pub fn reduce_strategy(&self) -> ReduceStrategy {
        self.reduce_strategy
    }

    /// Enable or disable the inprocessing pass (subsumption,
    /// self-subsuming resolution, vivification) run at restart
    /// boundaries. On by default.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.inprocess_on = on;
    }

    /// Conflicts between inprocessing passes (clamped to ≥ 1; default
    /// 6000). Small intervals make the pass fire on tiny instances —
    /// useful for differential testing; production callers should keep
    /// the default.
    pub fn set_inprocess_interval(&mut self, conflicts: u64) {
        self.inprocess_interval = conflicts.max(1);
    }

    /// Live learnt clauses per tier: `(core, mid, local)`.
    pub fn tier_sizes(&self) -> (usize, usize, usize) {
        (self.db.num_core, self.db.num_mid, self.db.num_local)
    }

    /// Reset the statistics counters *and* the schedule bookkeeping that
    /// is derived from them (the inprocessing interval). Portfolio
    /// workers cloned from a warm master call this so their counters —
    /// and therefore their deterministic replay — start from zero.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
        self.inprocess_base = 0;
        self.inprocess_stretch = 1;
    }

    /// `false` once the clause set has been proved unsatisfiable at the
    /// top level (every future `solve` returns `Unsat`).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Set the base conflict interval of the Luby restart schedule
    /// (clamped to ≥ 1). Distinct bases give portfolio workers distinct
    /// restart sequences.
    pub fn set_restart_base(&mut self, base: u64) {
        self.restart_base = base.max(1);
    }

    /// Enable or disable recursive learned-clause minimization (on by
    /// default). Off restores the legacy one-step antecedent check.
    pub fn set_deep_minimization(&mut self, on: bool) {
        self.ccmin_deep = on;
    }

    /// Enable or disable the VSIDS decay ramp (on by default): decay
    /// climbs from its configured base toward 0.999 at each restart, so
    /// long refutations settle into a near-stable variable order. Off
    /// restores the legacy fixed decay.
    pub fn set_decay_ramp(&mut self, on: bool) {
        self.decay_ramp = on;
    }

    /// Configure this solver as the pre-tiered-DB legacy kernel: flat
    /// clause-DB reduction, Luby restarts, no inprocessing, one-step
    /// clause minimization. The harness K1 lane uses this as the
    /// sequential baseline ("pre-change oracle") that the modern
    /// defaults are gated against.
    pub fn set_legacy_kernel(&mut self) {
        self.set_reduce_strategy(ReduceStrategy::Flat);
        self.set_inprocessing(false);
        self.set_deep_minimization(false);
        self.set_decay_ramp(false);
    }

    /// Set the VSIDS activity decay factor, clamped to `[0.5, 0.999]`.
    /// Lower values focus harder on recent conflicts.
    pub fn set_var_decay(&mut self, decay: f64) {
        self.var_decay = decay.clamp(0.5, 0.999);
    }

    /// Reset every variable's saved phase to `polarity` (the phase used
    /// the next time the variable is decided, until search overwrites
    /// it). The solver's own default is `false`.
    pub fn set_default_polarity(&mut self, polarity: bool) {
        for p in &mut self.polarity {
            *p = polarity;
        }
    }

    /// Randomize every variable's saved phase from `seed`
    /// (deterministically — the same seed gives the same phases).
    pub fn randomize_polarities(&mut self, seed: u64) {
        let mut rng = RandomBranching {
            state: seed | 1,
            inv_freq: 0,
        };
        for p in &mut self.polarity {
            *p = rng.next() & 1 == 1;
        }
    }

    /// Make roughly one in `inv_freq` branching decisions pick a random
    /// unassigned variable instead of the VSIDS maximum, seeded
    /// deterministically. `inv_freq == 0` disables random branching.
    pub fn set_random_branching(&mut self, seed: u64, inv_freq: u32) {
        self.rnd = if inv_freq == 0 {
            None
        } else {
            Some(RandomBranching {
                state: seed | 1,
                inv_freq,
            })
        };
    }

    /// Connect this solver to a shared portfolio clause pool as worker
    /// `worker`. Clauses learned with LBD ≤ `export_lbd_max` (and at
    /// most 32 literals) are exported as they are learned; foreign
    /// clauses are imported at every restart boundary.
    pub fn set_clause_exchange(
        &mut self,
        worker: usize,
        pool: Arc<dyn ClauseExchange>,
        export_lbd_max: u32,
    ) {
        self.exchange = Some(ExchangeLink {
            worker,
            pool,
            export_lbd_max,
        });
    }

    /// Disconnect from any shared clause pool.
    pub fn clear_clause_exchange(&mut self) {
        self.exchange = None;
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].of_lit(lit)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause. Returns `false` if the clause set is now known to be
    /// unsatisfiable at the top level.
    ///
    /// The clause is simplified on entry: duplicate literals are removed,
    /// tautologies are discarded, and literals already false at level 0 are
    /// dropped. Adding a clause cancels any in-progress search state (the
    /// solver backtracks to decision level 0), which makes the solver safe
    /// to use incrementally between `solve` calls.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.sort_unstable();
        clause.dedup();
        // Tautology / root simplification.
        let mut simplified = Vec::with_capacity(clause.len());
        for (i, &l) in clause.iter().enumerate() {
            if i + 1 < clause.len() && clause[i + 1] == !l {
                return true; // tautology: l and ¬l adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(simplified, false, 0, Tier::Core);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.db.get(cref);
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).code()].push(Watcher {
            cref,
            blocker: l1,
        });
        self.watches[(!l1).code()].push(Watcher {
            cref,
            blocker: l0,
        });
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = lit.is_positive();
            self.reason[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    /// Two-watched-literal unit propagation. Returns a conflicting clause
    /// if one is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true, clause satisfied.
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if self.db.get(w.cref).deleted {
                    // Stale watcher from a lazily-deleted clause: drop it.
                    continue;
                }
                // Normalize so the falsified watched literal is at index 1.
                let first = {
                    let c = self.db.get_mut(w.cref);
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                    c.lits[0]
                };
                let w_new = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for an unfalsified replacement watch.
                {
                    let assigns = &self.assigns;
                    let c = self.db.get_mut(w.cref);
                    for k in 2..c.lits.len() {
                        let q = c.lits[k];
                        if assigns[q.var().index()].of_lit(q) != LBool::False {
                            c.lits.swap(1, k);
                            let new_watch = (!c.lits[1]).code();
                            self.watches[new_watch].push(w_new);
                            continue 'watchers;
                        }
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[j] = w_new;
                j += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    // Copy the remaining watchers back unchanged.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.heap.rebuild(&self.activity);
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let inc = self.cla_inc;
        let c = self.db.get_mut(cref);
        if !c.learnt {
            return;
        }
        c.activity += inc;
        if c.activity > RESCALE_LIMIT {
            for r in self.db.learnt_refs() {
                self.db.get_mut(r).activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.var_decay;
        self.cla_inc /= CLA_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        debug_assert!(self.to_clear.is_empty());

        loop {
            self.bump_clause(confl);
            self.analyze_tmp.clear();
            self.analyze_tmp
                .extend(self.db.get(confl).lits.iter().copied());
            // A learnt clause used in conflict analysis gets its LBD
            // refreshed; improvements promote it toward the core tier
            // (tiered policy only — the flat baseline never re-scores).
            // Core clauses are already in the best tier and their stored
            // LBD no longer matters, so skip the recount for them: they
            // are exactly the clauses conflict analysis touches most,
            // and the walk would dominate per-conflict cost.
            if self.reduce_strategy == ReduceStrategy::Tiered
                && self.db.get(confl).learnt
                && self.db.get(confl).lbd > CORE_LBD
            {
                let tmp = std::mem::take(&mut self.analyze_tmp);
                let lbd = self.compute_lbd(&tmp);
                self.analyze_tmp = tmp;
                let c = self.db.get_mut(confl);
                if lbd < c.lbd {
                    c.lbd = lbd;
                    let tier = Self::tier_for(lbd);
                    if tier < c.tier {
                        self.db.retier(confl, tier);
                        self.stats.tier_promotions += 1;
                    }
                }
            }
            let start = usize::from(p.is_some());
            for k in start..self.analyze_tmp.len() {
                let q = self.analyze_tmp[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict path must have a reason");
        }

        // Learned-clause minimization: drop literals whose reason chains
        // bottom out in the clause itself (or in level-0 facts). The
        // deep mode follows chains recursively (MiniSat's `litRedundant`
        // with the abstract-level early-out); the legacy mode checks one
        // reason step only.
        let minimized: Vec<Lit> = if self.ccmin_deep {
            let abstract_levels: u64 = learnt[1..]
                .iter()
                .fold(0, |a, l| a | 1u64 << (self.level[l.var().index()] & 63));
            let mut out = Vec::with_capacity(learnt.len());
            out.push(learnt[0]);
            for &l in &learnt[1..] {
                let redundant = self.reason[l.var().index()].is_some()
                    && self.lit_redundant(l, abstract_levels);
                if !redundant {
                    out.push(l);
                }
            }
            out
        } else {
            let mut out = Vec::with_capacity(learnt.len());
            out.push(learnt[0]);
            for &l in &learnt[1..] {
                let redundant = match self.reason[l.var().index()] {
                    None => false,
                    Some(cr) => self.db.get(cr).lits[1..].iter().all(|&q| {
                        self.seen[q.var().index()] || self.level[q.var().index()] == 0
                    }),
                };
                if !redundant {
                    out.push(l);
                }
            }
            out
        };

        for v in self.to_clear.drain(..) {
            self.seen[v.index()] = false;
        }

        let mut learnt = minimized;
        // Backtrack level = second-highest decision level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()]
                    > self.level[learnt[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// Is `p` (a literal of the fresh learnt clause, with a reason)
    /// redundant — i.e. does every path of its implication ancestry end
    /// in another clause literal or a level-0 fact? DFS over reasons;
    /// `abstract_levels` is a bitmask of the clause's decision levels,
    /// used to fail fast on ancestors from levels the clause cannot
    /// absorb. Newly proven-redundant variables stay marked in `seen`
    /// (and queued on `to_clear`) so later literals reuse the proof.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u64) -> bool {
        debug_assert!(self.ccmin_stack.is_empty());
        self.ccmin_stack.push(p);
        let top = self.to_clear.len();
        while let Some(q) = self.ccmin_stack.pop() {
            let cr = self.reason[q.var().index()]
                .expect("only literals with reasons are stacked");
            let n = self.db.get(cr).lits.len();
            // lits[0] is the implied literal (`q` itself); its
            // antecedents are the rest.
            for i in 1..n {
                let a = self.db.get(cr).lits[i];
                let v = a.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()].is_some()
                    && (1u64 << (self.level[v.index()] & 63)) & abstract_levels != 0
                {
                    self.seen[v.index()] = true;
                    self.to_clear.push(v);
                    self.ccmin_stack.push(a);
                } else {
                    // A decision (or foreign-level) ancestor: p is not
                    // redundant. Roll back the speculative marks.
                    for u in self.to_clear.drain(top..) {
                        self.seen[u.index()] = false;
                    }
                    self.ccmin_stack.clear();
                    return false;
                }
            }
        }
        true
    }

    /// Literal-block distance: the number of *distinct live decision
    /// levels* among the clause's literals. Unassigned literals and
    /// root-assigned (level-0) literals carry no live level and are not
    /// counted — a dead level is not glue. Clamped to ≥ 1.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let stamp = self.lbd_stamp;
        let mut distinct = 0u32;
        for l in lits {
            let v = l.var().index();
            if !self.assigns[v].is_assigned() {
                continue;
            }
            let lvl = self.level[v] as usize;
            if lvl == 0 {
                continue;
            }
            if self.lbd_marks[lvl] != stamp {
                self.lbd_marks[lvl] = stamp;
                distinct += 1;
            }
        }
        distinct.max(1)
    }

    /// The retention tier a learnt clause of the given LBD starts in.
    fn tier_for(lbd: u32) -> Tier {
        if lbd <= CORE_LBD {
            Tier::Core
        } else if lbd <= MID_LBD {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learned_clauses += 1;
        if learnt.len() == 1 {
            self.export_learnt(&learnt, 1);
            self.enqueue(learnt[0], None);
        } else {
            let lbd = self.compute_lbd(&learnt);
            self.export_learnt(&learnt, lbd);
            let asserting = learnt[0];
            let cref = self.db.alloc(learnt, true, lbd, Self::tier_for(lbd));
            self.attach(cref);
            self.bump_clause(cref);
            self.enqueue(asserting, Some(cref));
        }
    }

    /// Offer a freshly learned clause to the shared pool, if this
    /// solver is a portfolio worker and the clause is glue-y enough.
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        let exported = match &self.exchange {
            Some(link) if lbd <= link.export_lbd_max && lits.len() <= EXPORT_MAX_LEN => {
                link.pool.export(link.worker, lits, lbd);
                true
            }
            _ => false,
        };
        if exported {
            self.stats.exported_clauses += 1;
        }
    }

    /// Integrate clauses learned by other portfolio workers. Must be
    /// called at decision level 0; returns `false` if an import proved
    /// the formula unsatisfiable outright.
    fn import_shared(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(link) = self.exchange.clone() else {
            return true;
        };
        for (lits, lbd) in link.pool.import(link.worker) {
            if !self.ok {
                return false;
            }
            self.add_shared(lits, lbd);
        }
        self.ok
    }

    /// Integrate a batch of foreign learned clauses, e.g. a portfolio
    /// pool drained back into the master solver after a race. Cancels
    /// any in-progress search state (like [`Solver::add_clause`]); the
    /// clauses are stored as learnt, so database reduction can evict
    /// them again if they never help.
    pub fn absorb_shared(&mut self, clauses: Vec<(Vec<Lit>, u32)>) {
        if !self.ok {
            return;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        for (lits, lbd) in clauses {
            if !self.ok {
                return;
            }
            self.add_shared(lits, lbd);
        }
    }

    /// Add a foreign learned clause. Mirrors the level-0 simplification
    /// of [`Solver::add_clause`], but stores the clause as *learnt* so
    /// database reduction can evict it again if it never helps.
    fn add_shared(&mut self, lits: Vec<Lit>, lbd: u32) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut clause = lits;
        clause.sort_unstable();
        clause.dedup();
        let mut simplified = Vec::with_capacity(clause.len());
        for (i, &l) in clause.iter().enumerate() {
            if i + 1 < clause.len() && clause[i + 1] == !l {
                return; // tautology
            }
            match self.lit_value(l) {
                LBool::True => return, // already satisfied at level 0
                LBool::False => continue,
                LBool::Undef => simplified.push(l),
            }
        }
        self.stats.imported_clauses += 1;
        match simplified.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                // Level-0 simplification may have shortened the clause
                // below the exporter's LBD; a clause of n literals can
                // span at most n levels, so clamp before storing.
                let lbd = lbd.min(simplified.len() as u32).max(1);
                let cref = self.db.alloc(simplified, true, lbd, Self::tier_for(lbd));
                self.attach(cref);
            }
        }
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        let c = self.db.get(cref);
        let v = c.lits[0].var();
        self.reason[v.index()] == Some(cref) && self.assigns[v.index()].is_assigned()
    }

    /// Legacy flat reduction: delete roughly half of the learned
    /// clauses, preferring to keep low-LBD ("glue") and high-activity
    /// clauses. Deletion is lazy: stale watchers are dropped during
    /// propagation and fully collected at the next restart.
    fn reduce_db_flat(&mut self) {
        let mut refs: Vec<ClauseRef> = self
            .db
            .learnt_refs()
            .into_iter()
            .filter(|&r| !self.locked(r) && self.db.get(r).lits.len() > 2)
            .collect();
        refs.sort_by(|&a, &b| {
            let ca = self.db.get(a);
            let cb = self.db.get(b);
            ca.lbd
                .cmp(&cb.lbd)
                .then(cb.activity.partial_cmp(&ca.activity).unwrap_or(std::cmp::Ordering::Equal))
        });
        let keep = refs.len() / 2;
        for &r in &refs[keep..] {
            if self.db.get(r).lbd <= CORE_LBD {
                continue; // always keep glue clauses
            }
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.max_learnt += self.max_learnt / 3;
    }

    /// Tiered reduction, mid tier: demote the staler half (highest LBD,
    /// lowest activity) to [`Tier::Local`], where activity-based
    /// eviction will deal with it. Nothing is deleted here, so glue-ish
    /// clauses that get used again can still be promoted back.
    fn reduce_mid(&mut self) {
        let mut refs: Vec<ClauseRef> = self
            .db
            .learnt_refs()
            .into_iter()
            .filter(|&r| self.db.get(r).tier == Tier::Mid)
            .collect();
        refs.sort_by(|&a, &b| {
            let ca = self.db.get(a);
            let cb = self.db.get(b);
            ca.lbd
                .cmp(&cb.lbd)
                .then(cb.activity.partial_cmp(&ca.activity).unwrap_or(std::cmp::Ordering::Equal))
        });
        let keep = refs.len() / 2;
        for &r in &refs[keep..] {
            self.db.retier(r, Tier::Local);
            self.stats.tier_demotions += 1;
        }
        self.mid_budget += self.mid_budget / 3;
    }

    /// Tiered reduction, local tier: delete the colder half by activity
    /// (ties broken toward higher LBD). Locked and binary clauses are
    /// exempt, as in the flat policy.
    fn reduce_local(&mut self) {
        let mut refs: Vec<ClauseRef> = self
            .db
            .learnt_refs()
            .into_iter()
            .filter(|&r| {
                self.db.get(r).tier == Tier::Local
                    && !self.locked(r)
                    && self.db.get(r).lits.len() > 2
            })
            .collect();
        refs.sort_by(|&a, &b| {
            let ca = self.db.get(a);
            let cb = self.db.get(b);
            cb.activity
                .partial_cmp(&ca.activity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ca.lbd.cmp(&cb.lbd))
        });
        let keep = refs.len() / 2;
        for &r in &refs[keep..] {
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.local_budget += self.local_budget / 3;
    }

    /// `true` when enough conflicts have accumulated since the last
    /// inprocessing pass. Pure function of solver state, so lockstep
    /// portfolio workers inprocess at identical points.
    fn inprocess_due(&self) -> bool {
        let due = self.inprocess_interval.saturating_mul(self.inprocess_stretch);
        self.inprocess_on && self.stats.conflicts.saturating_sub(self.inprocess_base) >= due
    }

    /// Inprocessing: simplify the learnt DB at a restart boundary.
    /// Three sub-passes — root-level simplification, backward
    /// subsumption + self-subsuming resolution, and vivification — each
    /// bounded by work caps and the installed [`Budget`], so a deadline
    /// is never blown here. Only learnt (redundant) clauses are ever
    /// deleted or shortened, which keeps every pass sound under
    /// incremental use. Returns `false` if simplification derived a
    /// top-level contradiction.
    fn inprocess(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        self.inprocess_base = self.stats.conflicts;
        self.inprocess_stretch = (self.inprocess_stretch * 2).min(INPROCESS_STRETCH_CAP);
        self.stats.inprocessings += 1;
        if !self.simplify_learnt() {
            return false;
        }
        if self.budget_exhausted().is_some() {
            return self.ok;
        }
        if !self.subsume_pass() {
            return false;
        }
        if self.budget_exhausted().is_some() {
            return self.ok;
        }
        self.vivify_pass()
    }

    /// Delete a learnt clause, detaching it from any level-0 reason
    /// slot first (a root-established literal never needs its reason
    /// again, so forgetting it is safe).
    fn delete_learnt(&mut self, r: ClauseRef) {
        let v = self.db.get(r).lits[0].var();
        if self.reason[v.index()] == Some(r) {
            self.reason[v.index()] = None;
        }
        self.db.delete(r);
    }

    /// Replace a learnt clause by a strictly smaller set of literals,
    /// preserving its activity. Handles the unit and empty cases at
    /// decision level 0.
    fn replace_learnt(&mut self, r: ClauseRef, kept: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0);
        let (old_lbd, activity) = {
            let c = self.db.get(r);
            (c.lbd, c.activity)
        };
        self.delete_learnt(r);
        match kept.len() {
            0 => self.ok = false,
            1 => match self.lit_value(kept[0]) {
                LBool::True => {}
                LBool::False => self.ok = false,
                LBool::Undef => {
                    self.enqueue(kept[0], None);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
            },
            _ => {
                let lbd = old_lbd.min(kept.len() as u32).max(1);
                let cref = self.db.alloc(kept, true, lbd, Self::tier_for(lbd));
                self.attach(cref);
                self.db.get_mut(cref).activity = activity;
            }
        }
    }

    /// Root-level simplification of the learnt DB: drop clauses already
    /// satisfied at level 0, and strip literals already false at level 0.
    fn simplify_learnt(&mut self) -> bool {
        for r in self.db.learnt_refs() {
            if !self.ok {
                return false;
            }
            let n = self.db.get(r).lits.len();
            let mut satisfied = false;
            let mut falsified = false;
            for i in 0..n {
                let l = self.db.get(r).lits[i];
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => falsified = true,
                    LBool::Undef => {}
                }
            }
            if satisfied {
                self.delete_learnt(r);
                self.stats.subsumed_clauses += 1;
            } else if falsified {
                let kept: Vec<Lit> = {
                    let lits = &self.db.get(r).lits;
                    let assigns = &self.assigns;
                    lits.iter()
                        .copied()
                        .filter(|&l| assigns[l.var().index()].of_lit(l) != LBool::False)
                        .collect()
                };
                self.replace_learnt(r, kept);
                self.stats.strengthened_clauses += 1;
            }
        }
        self.ok
    }

    /// Backward subsumption and self-subsuming resolution over the
    /// learnt DB. Any live clause (problem or learnt) may act as a
    /// subsumer, but only learnt clauses are deleted or strengthened —
    /// removing or shortening a redundant clause is always sound.
    fn subsume_pass(&mut self) -> bool {
        // Occurrence lists and var-bitmask signatures over the live DB.
        let refs = self.db.live_refs();
        let arena = refs.iter().map(|r| r.0 as usize).max().map_or(0, |m| m + 1);
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); self.watches.len()];
        let mut sig: Vec<u64> = vec![0; arena];
        for &r in &refs {
            let mut s = 0u64;
            for &l in &self.db.get(r).lits {
                occ[l.code()].push(r);
                s |= 1u64 << (l.var().index() % 64);
            }
            sig[r.0 as usize] = s;
        }
        // Stamp marks over literal codes identify the current subsumer's
        // literals in O(1).
        let mut marks: Vec<u32> = vec![0; self.watches.len()];
        let mut stamp: u32 = 0;
        let mut checks: usize = 0;
        for &c in &refs {
            if !self.ok {
                return false;
            }
            if checks > SUBSUME_CHECK_CAP || self.budget_exhausted().is_some() {
                break;
            }
            let clen = self.db.get(c).lits.len();
            if self.db.get(c).deleted || clen > SUBSUME_MAX_LEN {
                continue;
            }
            stamp += 1;
            for &l in &self.db.get(c).lits {
                marks[l.code()] = stamp;
            }
            let csig = sig[c.0 as usize];
            // Backward subsumption: scan the occurrence list of the
            // rarest literal of `c` for clauses that contain all of `c`.
            let scan = self
                .db
                .get(c)
                .lits
                .iter()
                .copied()
                .min_by_key(|l| occ[l.code()].len());
            if let Some(l_min) = scan {
                for &d in &occ[l_min.code()] {
                    if checks > SUBSUME_CHECK_CAP {
                        break;
                    }
                    if d == c {
                        continue;
                    }
                    // Every candidate visit counts against the cap — the
                    // occurrence-list walk itself is the dominant cost on
                    // dense instances, so an uncounted walk would let one
                    // pass burn unbounded time before the cap fires.
                    checks += 1;
                    let dc = self.db.get(d);
                    if dc.deleted || !dc.learnt || dc.lits.len() < clen {
                        continue;
                    }
                    if csig & !sig[d.0 as usize] != 0 {
                        continue; // some var of c does not occur in d
                    }
                    let covered = dc.lits.iter().filter(|l| marks[l.code()] == stamp).count();
                    if covered == clen && !self.locked(d) {
                        self.delete_learnt(d);
                        self.stats.subsumed_clauses += 1;
                    }
                }
            }
            if self.db.get(c).deleted {
                continue; // c itself went away (possible via aliasing)
            }
            // Self-subsuming resolution: if c \ {l} ⊆ d and ¬l ∈ d, the
            // resolvent of c and d on l subsumes d, so ¬l can be struck
            // from d.
            for li in 0..clen {
                let l = self.db.get(c).lits[li];
                for &d in &occ[(!l).code()] {
                    if checks > SUBSUME_CHECK_CAP {
                        break;
                    }
                    checks += 1;
                    let dc = self.db.get(d);
                    if dc.deleted || !dc.learnt || dc.lits.len() < clen {
                        continue;
                    }
                    if csig & !sig[d.0 as usize] != 0 {
                        continue;
                    }
                    // d holds ¬l (never marked); all other lits of c must
                    // appear in d.
                    let covered = dc.lits.iter().filter(|q| marks[q.code()] == stamp).count();
                    if covered == clen - 1 && !self.locked(d) {
                        let kept: Vec<Lit> = dc
                            .lits
                            .iter()
                            .copied()
                            .filter(|&q| q != !l)
                            .collect();
                        debug_assert_eq!(kept.len(), dc.lits.len() - 1);
                        self.replace_learnt(d, kept);
                        self.stats.strengthened_clauses += 1;
                        if !self.ok {
                            return false;
                        }
                    }
                }
                if checks > SUBSUME_CHECK_CAP {
                    break;
                }
            }
        }
        self.ok
    }

    /// Vivification: for each valuable learnt clause, assume the
    /// negation of a prefix of its literals and propagate. A conflict or
    /// an implied literal proves a shorter clause is entailed; a
    /// falsified literal is redundant and dropped. Bounded by a
    /// propagation cap and the installed budget.
    fn vivify_pass(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let start_props = self.stats.propagations;
        for r in self.db.learnt_refs() {
            if !self.ok {
                return false;
            }
            if self.stats.propagations - start_props > VIVIFY_PROP_CAP
                || self.budget_exhausted().is_some()
            {
                break;
            }
            {
                let c = self.db.get(r);
                if c.deleted
                    || c.tier == Tier::Local
                    || c.lits.len() < 3
                    || c.lits.len() > VIVIFY_MAX_LEN
                {
                    continue;
                }
            }
            if self.locked(r) {
                continue;
            }
            let lits = self.db.get(r).lits.clone();
            let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
            let probe_base = self.trail.len();
            self.new_decision_level();
            for &l in &lits {
                match self.lit_value(l) {
                    LBool::True => {
                        // ¬(kept prefix) implies l: the clause shortens
                        // to the prefix plus l.
                        kept.push(l);
                        break;
                    }
                    LBool::False => {
                        // ¬(kept prefix) implies ¬l: l is redundant.
                        continue;
                    }
                    LBool::Undef => {
                        self.enqueue(!l, None);
                        kept.push(l);
                        if self.propagate().is_some() {
                            // ¬(prefix ∪ {l}) is contradictory: the
                            // clause shortens to kept.
                            break;
                        }
                    }
                }
            }
            // Backtracking saves the phase of every trail literal, and
            // these probe assignments are noise, not search history:
            // letting them through would scramble phase saving on every
            // pass and wreck the search trajectory it protects. Restore
            // the saved phases the probe would overwrite.
            let saved: Vec<(usize, bool)> = self.trail[probe_base..]
                .iter()
                .map(|l| {
                    let i = l.var().index();
                    (i, self.polarity[i])
                })
                .collect();
            self.cancel_until(0);
            for (i, p) in saved {
                self.polarity[i] = p;
            }
            if kept.len() < lits.len() {
                self.stats.vivified_clauses += 1;
                self.replace_learnt(r, kept);
            }
        }
        self.ok
    }

    /// Drop stale watchers and let the clause DB recycle tombstoned slots.
    /// Must be called at decision level 0.
    fn collect_garbage(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.db.has_pending_garbage() {
            return;
        }
        for list in &mut self.watches {
            let db = &self.db;
            list.retain(|w| !db.get(w.cref).deleted);
        }
        self.db.collect_garbage();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // Occasional random decision for portfolio diversification: a
        // random unassigned variable instead of the VSIDS maximum. The
        // variable stays in the heap; assigned entries are skipped (and
        // re-inserted on backtrack) by the normal path below.
        if let Some(r) = &mut self.rnd {
            if !self.assigns.is_empty() {
                let roll = r.next();
                if roll % u64::from(r.inv_freq) == 0 {
                    let idx = (r.next() >> 16) as usize % self.assigns.len();
                    if !self.assigns[idx].is_assigned() {
                        return Some(Lit::new(Var::from_index(idx), self.polarity[idx]));
                    }
                }
            }
        }
        while let Some(v) = self.heap.pop(&self.activity) {
            if !self.assigns[v.index()].is_assigned() {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    fn extract_model(&self) -> Model {
        let values = self
            .assigns
            .iter()
            .map(|a| match a {
                LBool::True => true,
                LBool::False => false,
                // Unconstrained variables may remain unassigned only if
                // they were never entered into the heap, which new_var
                // prevents; default defensively.
                LBool::Undef => false,
            })
            .collect();
        Model::new(values)
    }

    /// Compute the subset of assumptions responsible for the falsification
    /// of assumption `a` (which currently evaluates to false).
    fn analyze_final(&mut self, a: Lit) -> Vec<Lit> {
        let mut core = vec![a];
        if self.decision_level() == 0 {
            return core;
        }
        debug_assert!(self.to_clear.is_empty());
        self.seen[a.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision inside the assumption prefix: it is one of
                    // the assumptions (solve only decides assumptions
                    // before branching, and branches cannot be reached with
                    // an unresolved falsified assumption).
                    core.push(x);
                }
                Some(cr) => {
                    self.analyze_tmp.clear();
                    self.analyze_tmp
                        .extend(self.db.get(cr).lits.iter().copied());
                    for &q in &self.analyze_tmp[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[a.var().index()] = false;
        // Deduplicate: the falsified assumption may also appear as a
        // decision (contradictory assumption pairs).
        core.sort_unstable();
        core.dedup();
        core
    }

    /// Solve the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under the given assumption literals.
    ///
    /// On `Unsat`, the returned core is a subset of `assumptions` that is
    /// jointly inconsistent with the clause set (not necessarily minimal —
    /// see [`crate::mus`] for minimization).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat(Vec::new());
        }
        // An already-exhausted budget (expired deadline, tripped
        // cancellation) means we must not start searching at all.
        if self.budget_exhausted().is_some() {
            return SolveResult::Unknown;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat(Vec::new());
        }
        self.collect_garbage();
        if !self.import_shared() {
            return SolveResult::Unsat(Vec::new());
        }
        let mut restarts = LubyRestarts::new(self.restart_base);
        loop {
            if self.budget_exhausted().is_some() {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }
            match self.search(restarts.next_budget(), assumptions) {
                SearchOutcome::Sat(m) => {
                    self.cancel_until(0);
                    return SolveResult::Sat(m);
                }
                SearchOutcome::Unsat(core) => {
                    self.cancel_until(0);
                    return SolveResult::Unsat(core);
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    if self.decay_ramp {
                        self.var_decay = (self.var_decay + VAR_DECAY_RAMP).min(VAR_DECAY_CAP);
                    }
                    self.cancel_until(0);
                    self.collect_garbage();
                    if self.inprocess_due() {
                        if !self.inprocess() {
                            return SolveResult::Unsat(Vec::new());
                        }
                        self.collect_garbage();
                    }
                    if !self.import_shared() {
                        return SolveResult::Unsat(Vec::new());
                    }
                }
                SearchOutcome::Budget => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
        }
    }

    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts_here: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat(Vec::new());
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.record_learnt(learnt);
                self.decay_activities();
                if let Some(limit) = self.conflict_budget {
                    if self.stats.conflicts >= limit {
                        return SearchOutcome::Budget;
                    }
                }
                if self.budget_exhausted().is_some() {
                    return SearchOutcome::Budget;
                }
            } else {
                if conflicts_here >= budget {
                    return SearchOutcome::Restart;
                }
                // Conflict-free stretches still consume wall clock and
                // propagations; poll the budget every few hundred
                // decisions so deadlines and cancellation stay responsive.
                if self.stats.decisions & 0xFF == 0 && self.budget_exhausted().is_some() {
                    return SearchOutcome::Budget;
                }
                match self.reduce_strategy {
                    ReduceStrategy::Flat => {
                        if self.db.num_learnt > self.max_learnt {
                            self.reduce_db_flat();
                        }
                    }
                    ReduceStrategy::Tiered => {
                        if self.db.num_mid > self.mid_budget {
                            self.reduce_mid();
                        }
                        if self.db.num_local > self.local_budget {
                            self.reduce_local();
                        }
                    }
                }
                // Place assumptions as the first decisions.
                let mut next = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: dummy decision level keeps
                            // the level↔assumption-index correspondence.
                            self.new_decision_level();
                        }
                        LBool::False => {
                            let core = self.analyze_final(a);
                            return SearchOutcome::Unsat(core);
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                if next.is_none() {
                    next = self.pick_branch();
                    if next.is_none() {
                        return SearchOutcome::Sat(self.extract_model());
                    }
                    self.stats.decisions += 1;
                }
                self.new_decision_level();
                self.enqueue(next.expect("checked above"), None);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // hole-index loops in PHP encoders read better as written
mod tests {
    use super::*;

    fn lit(s: &mut Solver, vars: &mut Vec<Var>, i: i32) -> Lit {
        let idx = i.unsigned_abs() as usize - 1;
        while vars.len() <= idx {
            vars.push(s.new_var());
        }
        Lit::new(vars[idx], i > 0)
    }

    /// Build a solver from clauses in DIMACS-like integer notation.
    fn solver_from(clauses: &[&[i32]]) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let mut vars = Vec::new();
        for c in clauses {
            let ls: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vars, i)).collect();
            s.add_clause(ls);
        }
        (s, vars)
    }

    #[test]
    fn trivially_sat() {
        let (mut s, vars) = solver_from(&[&[1, 2], &[-1]]);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(!m.value(vars[0]));
                assert!(m.value(vars[1]));
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn trivially_unsat() {
        let (mut s, _) = solver_from(&[&[1], &[-1]]);
        assert!(s.solve().is_unsat());
        assert!(!s.is_ok());
        // Remains unsat forever.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unsat_via_resolution_chain() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b) is unsat.
        let (mut s, _) = solver_from(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_ignored() {
        let (mut s, _) = solver_from(&[&[1, -1], &[2, -2, 3]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let (mut s, vars) = solver_from(&[&[1, 1, 1]]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(vars[0])),
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        // Classic PHP(4,3): var p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..4).map(|_| s.new_vars(3)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_3_into_3_is_sat() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| s.new_vars(3)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..3 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                // Verify: it is a perfect matching.
                for row in &p {
                    assert!(row.iter().any(|&v| m.value(v)));
                }
                for j in 0..3 {
                    assert_eq!(p.iter().filter(|row| m.value(row[j])).count(), 1);
                }
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn assumptions_flip_satisfiability() {
        let (mut s, mut vars) = solver_from(&[&[1, 2]]);
        let a = lit(&mut s, &mut vars, -1);
        let b = lit(&mut s, &mut vars, -2);
        // Assuming ¬a forces b.
        match s.solve_with_assumptions(&[a]) {
            SolveResult::Sat(m) => assert!(m.value(vars[1])),
            r => panic!("{r:?}"),
        }
        // Assuming ¬a ∧ ¬b is unsat; the core must mention both.
        match s.solve_with_assumptions(&[a, b]) {
            SolveResult::Unsat(core) => {
                assert!(core.contains(&a));
                assert!(core.contains(&b));
            }
            r => panic!("{r:?}"),
        }
        // The solver is still usable and sat without assumptions.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn contradictory_assumptions_yield_core() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v), Lit::neg(v)]); // tautology, ignored
        let w = s.new_var();
        s.add_clause([Lit::pos(w)]);
        match s.solve_with_assumptions(&[Lit::pos(v), Lit::neg(v)]) {
            SolveResult::Unsat(core) => {
                assert!(core.contains(&Lit::pos(v)) && core.contains(&Lit::neg(v)));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn core_excludes_irrelevant_assumptions() {
        // x1 must be true; assumption ¬x1 conflicts but x2/x3 assumptions
        // are irrelevant and must not appear in the core.
        let (mut s, mut vars) = solver_from(&[&[1]]);
        let na = lit(&mut s, &mut vars, -1);
        let b = lit(&mut s, &mut vars, 2);
        let c = lit(&mut s, &mut vars, 3);
        match s.solve_with_assumptions(&[b, c, na]) {
            SolveResult::Unsat(core) => {
                assert!(core.contains(&na));
                assert!(!core.contains(&b));
                assert!(!core.contains(&c));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn assumption_core_via_propagation_chain() {
        // a → b → c, assume a and ¬c: core = {a, ¬c}.
        let (mut s, mut vars) = solver_from(&[&[-1, 2], &[-2, 3]]);
        let a = lit(&mut s, &mut vars, 1);
        let nc = lit(&mut s, &mut vars, -3);
        let junk = {
            let v = s.new_var();
            Lit::pos(v)
        };
        match s.solve_with_assumptions(&[junk, a, nc]) {
            SolveResult::Unsat(core) => {
                assert!(core.contains(&a));
                assert!(core.contains(&nc));
                assert!(!core.contains(&junk));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn incremental_add_after_solve() {
        let (mut s, mut vars) = solver_from(&[&[1, 2]]);
        assert!(s.solve().is_sat());
        let c1 = lit(&mut s, &mut vars, -1);
        s.add_clause([c1]);
        assert!(s.solve().is_sat());
        let c2 = lit(&mut s, &mut vars, -2);
        s.add_clause([c2]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn models_satisfy_all_clauses_random() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4d55_5050);
        for round in 0..30 {
            let n = 8 + round % 5;
            let mut s = Solver::new();
            let vars = s.new_vars(n);
            let mut clauses = Vec::new();
            for _ in 0..(3 * n) {
                let len = rng.random_range(1..=3);
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = vars[rng.random_range(0..n)];
                    c.push(Lit::new(v, rng.random_bool(0.5)));
                }
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if let SolveResult::Sat(m) = s.solve() {
                for c in &clauses {
                    assert!(m.satisfies_clause(c), "clause {c:?} unsatisfied");
                }
            }
        }
    }

    #[test]
    fn clause_db_reduction_and_gc_under_pressure() {
        // PHP(7,6) with an aggressively small retention threshold: the
        // solver must reduce its learned-clause database (and collect the
        // tombstoned slots at restarts) repeatedly and still prove UNSAT.
        let mut s = Solver::new();
        s.set_max_learnt(25);
        let p: Vec<Vec<Var>> = (0..7).map(|_| s.new_vars(6)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(
            s.stats.deleted_clauses > 0,
            "reduction must have fired: {:?}",
            s.stats
        );
        assert!(s.stats.restarts > 0, "restarts engaged: {:?}", s.stats);
    }

    #[test]
    fn reduction_does_not_change_satisfiable_answers() {
        // A satisfiable instance solved under the same pressure: the
        // model must still satisfy every clause.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut s = Solver::new();
        s.set_max_learnt(20);
        let n = 30;
        let vars = s.new_vars(n);
        // Random planted-solution instance: fix a hidden assignment and
        // emit clauses it satisfies.
        let hidden: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
        let mut clauses = Vec::new();
        for _ in 0..(6 * n) {
            let mut clause = Vec::new();
            // Ensure at least one literal agrees with the hidden model.
            let anchor = rng.random_range(0..n);
            clause.push(Lit::new(vars[anchor], hidden[anchor]));
            for _ in 0..2 {
                let v = rng.random_range(0..n);
                clause.push(Lit::new(vars[v], rng.random_bool(0.5)));
            }
            clauses.push(clause.clone());
            s.add_clause(clause);
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for c in &clauses {
                    assert!(m.satisfies_clause(c));
                }
            }
            other => panic!("planted instance must be SAT: {other:?}"),
        }
    }

    /// Hand-build a trail and pin `compute_lbd` on it: level-0
    /// (root-assigned) and unassigned literals must not count toward
    /// LBD, and the result is clamped to ≥ 1.
    #[test]
    fn lbd_ignores_root_and_unassigned_literals() {
        let mut s = Solver::new();
        let v: Vec<Var> = s.new_vars(6);
        // v0 true at level 0 (root).
        s.enqueue(Lit::pos(v[0]), None);
        // v1, v2 at level 1; v3 at level 2.
        s.new_decision_level();
        s.enqueue(Lit::pos(v[1]), None);
        s.enqueue(Lit::neg(v[2]), None);
        s.new_decision_level();
        s.enqueue(Lit::pos(v[3]), None);
        // v4, v5 left unassigned.
        let lits = [
            Lit::neg(v[0]), // level 0: dead, must not count
            Lit::neg(v[1]), // level 1
            Lit::pos(v[2]), // level 1 (same block as v1)
            Lit::neg(v[3]), // level 2
            Lit::pos(v[4]), // unassigned: must not count
        ];
        assert_eq!(s.compute_lbd(&lits), 2, "levels {{1, 2}}");
        // Only dead/unassigned literals: clamps to 1.
        assert_eq!(s.compute_lbd(&[Lit::neg(v[0]), Lit::pos(v[5])]), 1);
        // Repeated calls use fresh stamps.
        assert_eq!(s.compute_lbd(&lits), 2);
        s.cancel_until(0);
    }

    #[test]
    fn tiered_reduction_under_pressure_proves_unsat() {
        // Same instance and pressure as the flat-mode test: the tiered
        // policy must demote and evict yet still prove UNSAT.
        let mut s = Solver::new();
        s.set_reduce_strategy(ReduceStrategy::Tiered);
        s.set_max_learnt(25);
        let p: Vec<Vec<Var>> = (0..7).map(|_| s.new_vars(6)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        let (core, mid, local) = s.tier_sizes();
        assert_eq!(core + mid + local, s.db.num_learnt, "tier counts cover the learnt DB");
        assert!(
            s.stats.tier_demotions > 0 || s.stats.deleted_clauses > 0,
            "tiered reduction engaged: {:?}",
            s.stats
        );
    }

    #[test]
    fn set_max_learnt_maps_tier_budgets_deterministically() {
        let mut s = Solver::new();
        s.set_max_learnt(25);
        assert_eq!(s.mid_budget, 12);
        assert_eq!(s.local_budget, 13);
        s.set_max_learnt(4000);
        assert_eq!(s.mid_budget, 2000);
        assert_eq!(s.local_budget, 2000);
    }

    /// Force an inprocessing pass on a solver with a learnt DB and check
    /// it only ever shrinks clauses while preserving the verdict.
    #[test]
    fn inprocessing_preserves_verdict_and_shrinks_db() {
        let build = |inprocess: bool| {
            let mut s = Solver::new();
            s.set_inprocessing(inprocess);
            let p: Vec<Vec<Var>> = (0..8).map(|_| s.new_vars(7)).collect();
            for row in &p {
                s.add_clause(row.iter().map(|&v| Lit::pos(v)));
            }
            for j in 0..7 {
                for i1 in 0..8 {
                    for i2 in (i1 + 1)..8 {
                        s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                    }
                }
            }
            s
        };
        let mut with = build(true);
        let mut without = build(false);
        assert!(with.solve().is_unsat());
        assert!(without.solve().is_unsat());
        if with.stats.inprocessings > 0 {
            assert!(
                with.stats.subsumed_clauses
                    + with.stats.strengthened_clauses
                    + with.stats.vivified_clauses
                    > 0,
                "an inprocessing pass on PHP(8,7) finds work: {:?}",
                with.stats
            );
        }
    }

    /// Subsumption + strengthening directly: seed a learnt DB by hand
    /// and run one inprocessing pass at level 0.
    #[test]
    fn subsumption_removes_and_strengthens_learnt_clauses() {
        let mut s = Solver::new();
        let v = s.new_vars(5);
        let l = |i: usize| Lit::pos(v[i]);
        // Problem clause keeps the vars alive.
        s.add_clause([l(0), l(1), l(2), l(3), l(4)]);
        // A learnt clause strictly subsumed by a problem clause...
        let sub = s.db.alloc(vec![l(0), l(1)], false, 0, Tier::Core);
        s.attach(sub);
        let dup = s
            .db
            .alloc(vec![l(0), l(1), l(2)], true, 2, Tier::Core);
        s.attach(dup);
        // ...and one strengthenable by self-subsuming resolution with
        // {l0, l1}: {¬l1, l3, l0} → {l3, l0}.
        let strengthen = s
            .db
            .alloc(vec![!l(1), l(3), l(0)], true, 3, Tier::Core);
        s.attach(strengthen);
        assert!(s.subsume_pass());
        assert!(s.db.get(dup).deleted, "{:?}", s.stats);
        assert_eq!(s.stats.subsumed_clauses, 1);
        assert_eq!(s.stats.strengthened_clauses, 1);
        // The strengthened replacement is a live learnt binary clause.
        let live = s.db.learnt_refs();
        assert_eq!(live.len(), 1);
        let mut lits = s.db.get(live[0]).lits.clone();
        lits.sort_unstable();
        let mut want = vec![l(0), l(3)];
        want.sort_unstable();
        assert_eq!(lits, want);
        // The solver still answers correctly afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn budget_returns_unknown_on_hard_instance() {
        // PHP(7,6) takes well over 2 conflicts.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..7).map(|_| s.new_vars(6)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..6 {
            for i1 in 0..7 {
                for i2 in (i1 + 1)..7 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        s.set_conflict_budget(Some(2));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert!(s.solve().is_unsat());
    }
}
