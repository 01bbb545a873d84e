//! The CDCL search engine.
//!
//! A MiniSat-lineage solver: two-watched-literal propagation, first-UIP
//! conflict analysis with basic learned-clause minimization, VSIDS + phase
//! saving, Luby restarts, LBD-aware clause-database reduction,
//! assumption-based incremental solving with core extraction, and
//! lex-min solving over a variable order.

use crate::budget::Budget;
use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::ActivityHeap;
use crate::lit::{LBool, Lit, Var};
use crate::luby::LubyRestarts;
use crate::model::Model;

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
    /// A limit of the installed [`Budget`] (conflict or propagation
    /// cap, deadline, or cancellation) fired before an answer.
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
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// LBD at or below which a learnt clause is glue: reduction never
/// deletes it.
const CORE_LBD: u32 = 3;

/// A CDCL SAT solver. See the [crate docs](crate) for an overview.
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
    /// Recursive learned-clause minimization (off = legacy one-step
    /// antecedent check only).
    ccmin_deep: bool,
    /// DFS worklist for [`Solver::lit_redundant`] (kept allocated).
    ccmin_stack: Vec<Lit>,
    /// VSIDS decay factor (ramped at restarts, see `decay_ramp`).
    var_decay: f64,
    /// Ramp `var_decay` toward [`VAR_DECAY_CAP`] at each restart (off =
    /// legacy fixed decay).
    decay_ramp: bool,
    /// Resource budget for subsequent solves (deadline / caps /
    /// cancellation). Caps are measured against `budget_base`.
    budget: Budget,
    /// `(conflicts, propagations)` totals at the moment the budget was
    /// installed, so its caps count only work done under it.
    budget_base: (u64, u64),
    /// Whether each variable occurs in some added clause (see
    /// [`Solver::decidable`]).
    occurs: Vec<bool>,
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
            decay_ramp: true,
            ccmin_deep: true,
            ccmin_stack: Vec::new(),
            var_decay: VAR_DECAY,
            budget: Budget::unlimited(),
            budget_base: (0, 0),
            occurs: Vec::new(),
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
        self.occurs.push(false);
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
    /// deterministically on small instances. Each reduction grows the
    /// threshold by a third.
    #[doc(hidden)]
    pub fn set_max_learnt(&mut self, max: usize) {
        self.max_learnt = max;
    }

    /// `false` once the clause set has been proved unsatisfiable at the
    /// top level (every future `solve` returns `Unsat`).
    pub fn is_ok(&self) -> bool {
        self.ok
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

    /// Configure this solver as the legacy kernel: one-step clause
    /// minimization, fixed VSIDS decay. The harness K1 lane uses this
    /// as the sequential baseline ("pre-change oracle") that the modern
    /// defaults are gated against.
    pub fn set_legacy_kernel(&mut self) {
        self.set_deep_minimization(false);
        self.set_decay_ramp(false);
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
        for &l in &clause {
            // Back in the heap if it was dropped while in no clause.
            self.occurs[l.var().index()] = true;
            self.heap.insert(l.var(), &self.activity);
        }
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
                let cref = self.db.alloc(simplified, false, 0);
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

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learned_clauses += 1;
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
        } else {
            let lbd = self.compute_lbd(&learnt);
            let asserting = learnt[0];
            let cref = self.db.alloc(learnt, true, lbd);
            self.attach(cref);
            self.bump_clause(cref);
            self.enqueue(asserting, Some(cref));
        }
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        let c = self.db.get(cref);
        let v = c.lits[0].var();
        self.reason[v.index()] == Some(cref) && self.assigns[v.index()].is_assigned()
    }

    /// Clause-DB reduction: delete roughly half of the learned
    /// clauses, preferring to keep low-LBD ("glue") and high-activity
    /// clauses. Deletion is lazy: stale watchers are dropped during
    /// propagation and fully collected at the next restart.
    fn reduce_db(&mut self) {
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

    /// An unassigned variable that occurs in some clause. A variable in
    /// no clause cannot affect satisfiability, so it is never decided;
    /// it reads `false` in models.
    fn decidable(&self, v: Var) -> bool {
        self.occurs[v.index()] && !self.assigns[v.index()].is_assigned()
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.decidable(v) {
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
                // Only variables in no clause stay unassigned.
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
        let result = self.run(assumptions, &[]);
        self.cancel_until(0);
        result
    }

    /// Solve under `assumptions` for the lexicographically smallest
    /// model over `order` (`order[0]` most significant, `false <
    /// true`).
    ///
    /// First the ordinary search runs, exactly as
    /// [`Self::solve_with_assumptions`] would: an `Unsat` or `Unknown`
    /// answer, and the work spent reaching it, are that call's. If it
    /// finds a model, the search keeps the assumption levels and runs
    /// again from there, learning and restarts included, except that it
    /// decides the `order` variables first, in order, each `false`;
    /// VSIDS picks every later decision. Every literal on the trail is a
    /// decision or implied by the decisions before it, so an `order`
    /// variable that ends `true` is implied by the assumptions and the
    /// values of the variables before it: no model agrees with that
    /// prefix and has it `false`. The model returned is therefore the
    /// lex-smallest one under the assumptions, whatever the solver's
    /// heuristic state. If the budget fires during the second search,
    /// the first search's (valid, possibly larger) model is returned.
    pub fn solve_lex_min(&mut self, assumptions: &[Lit], order: &[Var]) -> SolveResult {
        let result = match self.run(assumptions, &[]) {
            SolveResult::Sat(found) if !order.is_empty() => {
                self.cancel_until(assumptions.len() as u32);
                match self.run(assumptions, order) {
                    SolveResult::Sat(lex_min) => SolveResult::Sat(lex_min),
                    _ => SolveResult::Sat(found),
                }
            }
            other => other,
        };
        self.cancel_until(0);
        result
    }

    /// The restart loop, from decision level 0 or from the assumption
    /// levels a satisfiable run kept. Leaves the trail where the search
    /// ended; the caller cancels.
    fn run(&mut self, assumptions: &[Lit], order: &[Var]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat(Vec::new());
        }
        // An already-exhausted budget (expired deadline, tripped
        // cancellation) means we must not start searching at all.
        if self.budget_exhausted().is_some() {
            return SolveResult::Unknown;
        }
        if self.decision_level() == 0 {
            if self.propagate().is_some() {
                self.ok = false;
                return SolveResult::Unsat(Vec::new());
            }
            self.collect_garbage();
        }
        let mut restarts = LubyRestarts::new(RESTART_BASE);
        loop {
            if self.budget_exhausted().is_some() {
                return SolveResult::Unknown;
            }
            match self.search(restarts.next_budget(), assumptions, order) {
                SearchOutcome::Sat(m) => return SolveResult::Sat(m),
                SearchOutcome::Unsat(core) => return SolveResult::Unsat(core),
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    if self.decay_ramp {
                        self.var_decay = (self.var_decay + VAR_DECAY_RAMP).min(VAR_DECAY_CAP);
                    }
                    self.cancel_until(0);
                    self.collect_garbage();
                }
                SearchOutcome::Budget => return SolveResult::Unknown,
            }
        }
    }

    /// One restart's worth of search from the current decision level.
    /// After the assumptions, the first unassigned `order` variable that
    /// occurs in a clause is decided `false` before VSIDS picks
    /// anything. Every `order` variable before `cursor` is assigned. A
    /// backjump sends the cursor back to the start, from where it skips
    /// the variables still assigned: conflicts after the first model are
    /// rare (none in either benchmark workload), so one scan per
    /// backjump costs less than recording the cursor at every level.
    fn search(&mut self, budget: u64, assumptions: &[Lit], order: &[Var]) -> SearchOutcome {
        let mut conflicts_here: u64 = 0;
        let mut cursor = 0usize;
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
                cursor = 0;
                self.record_learnt(learnt);
                self.decay_activities();
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
                if self.db.num_learnt > self.max_learnt {
                    self.reduce_db();
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
                    while order.get(cursor).is_some_and(|&v| !self.decidable(v)) {
                        cursor += 1;
                    }
                    next = match order.get(cursor) {
                        Some(&v) => Some(Lit::neg(v)),
                        None => self.pick_branch(),
                    };
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

    /// Brute-force reference for [`Solver::solve_lex_min`]: the
    /// lex-smallest projection onto `order` of the assignments to
    /// `n` variables satisfying `clauses` and `assumptions`.
    fn brute_lex_min(
        n: usize,
        clauses: &[Vec<Lit>],
        assumptions: &[Lit],
        order: &[Var],
    ) -> Option<Vec<bool>> {
        let holds = |bits: u32, l: Lit| (bits >> l.var().index() & 1 == 1) == l.is_positive();
        (0u32..1 << n)
            .filter(|&bits| {
                assumptions.iter().all(|&a| holds(bits, a))
                    && clauses.iter().all(|c| c.iter().any(|&l| holds(bits, l)))
            })
            .map(|bits| order.iter().map(|&v| holds(bits, Lit::pos(v))).collect())
            .min()
    }

    #[test]
    fn lex_min_matches_brute_force_random() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4c45_584d);
        let (mut sat, mut unsat, mut unknown) = (0, 0, 0);
        for round in 0..400 {
            let n = 4 + round % 9;
            let mut s = Solver::new();
            let vars = s.new_vars(n);
            let mut clauses = Vec::new();
            for _ in 0..rng.random_range(n..=4 * n) {
                let c: Vec<Lit> = (0..rng.random_range(2..=3))
                    .map(|_| Lit::new(vars[rng.random_range(0..n)], rng.random_bool(0.5)))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
            }
            let pick = |rng: &mut StdRng| -> Vec<Lit> {
                (0..rng.random_range(0..=3))
                    .map(|_| Lit::new(vars[rng.random_range(0..n)], rng.random_bool(0.5)))
                    .collect()
            };
            // A warm solver: earlier solves under other assumptions
            // leave learnt clauses, activities and saved phases behind.
            for _ in 0..rng.random_range(0..3) {
                let warm = pick(&mut rng);
                s.solve_with_assumptions(&warm);
            }
            let assumptions = pick(&mut rng);
            let mut order: Vec<Var> = vars.clone();
            for i in (1..n).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            order.truncate(rng.random_range(0..=n));
            // Every fifth round runs under a conflict cap of 1–3 (a cap
            // of 0 would stop every solve before it searched).
            if round % 5 == 4 {
                s.set_budget(Budget::unlimited().with_conflict_cap(rng.random_range(1..=3)));
            }
            let want = brute_lex_min(n, &clauses, &assumptions, &order);
            let result = s.solve_lex_min(&assumptions, &order);
            let fired = s.budget_exhausted().is_some();
            match (result, want) {
                (SolveResult::Sat(m), Some(want)) => {
                    sat += 1;
                    for c in &clauses {
                        assert!(
                            m.satisfies_clause(c),
                            "round {round}: clause {c:?} unsatisfied"
                        );
                    }
                    assert!(assumptions.iter().all(|&a| m.lit_value(a)), "round {round}");
                    let got: Vec<bool> = order.iter().map(|&v| m.value(v)).collect();
                    // A budget that fires in the second search keeps the
                    // first search's model.
                    if !fired {
                        assert_eq!(got, want, "round {round}: not the lex-min model");
                    }
                }
                (SolveResult::Unsat(core), None) => {
                    unsat += 1;
                    assert!(
                        core.iter().all(|l| assumptions.contains(l)),
                        "round {round}"
                    );
                }
                (SolveResult::Unknown, _) if fired => unknown += 1,
                (got, want) => panic!("round {round}: solver {got:?}, reference {want:?}"),
            }
        }
        assert!(
            sat > 50 && unsat > 50 && unknown > 0,
            "{sat} sat, {unsat} unsat, {unknown} unknown"
        );
    }

    #[test]
    fn variables_in_no_clause_are_never_decided() {
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        match s.solve() {
            SolveResult::Sat(m) => assert!(!m.value(a) && !m.value(b) && !m.value(c)),
            r => panic!("{r:?}"),
        }
        assert_eq!(s.stats.decisions, 0);
        // A clause over variables the search already skipped makes them
        // decidable again.
        let ab = [Lit::pos(a), Lit::pos(b)];
        s.add_clause(ab);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.satisfies_clause(&ab)),
            r => panic!("{r:?}"),
        }
        match s.solve_lex_min(&[], &[a, b, c]) {
            SolveResult::Sat(m) => assert!(!m.value(a) && m.value(b) && !m.value(c)),
            r => panic!("{r:?}"),
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
        s.set_budget(Budget::unlimited().with_conflict_cap(2));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_budget(Budget::unlimited());
        assert!(s.solve().is_unsat());
    }
}
