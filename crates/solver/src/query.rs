//! The query API: SAT questions about configurations.
//!
//! A [`Query`] packages what all of Muppet's algorithms share: a universe
//! and vocabulary, a set of *free* relations with bounds (the holes and
//! soft settings of `C??`), a *fixed* instance (structure plus any
//! already-committed configuration), and named groups of goal formulas.
//! `solve` answers Algs. 1–2's satisfiability questions, `solve_target`
//! answers Pardinus-style "closest model" questions (Fig. 8 minimal
//! edits), and `enumerate` lists models for exhaustive checks.
//!
//! `Query` is a thin **one-shot facade** over the incremental engine
//! ([`crate::IncrementalQuery`], DESIGN.md §13): each call compiles the
//! groups into a fresh engine and delegates. `muppet::Session` solves
//! on warm engines from its own store instead and pays the
//! ground/encode cost once per group.

use std::fmt;

use muppet_logic::{Formula, Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_portfolio::{PortfolioConfig, PortfolioSummary};
use muppet_sat::Budget;

use crate::ground::GroundError;
use crate::incremental::{GroupId, IncrementalQuery, PrepareError, TargetStrategy};

/// A named group of formulas. Groups are the unit of *blame*: an UNSAT
/// answer names the minimal set of groups that conflict. Typical groups
/// are one per goal row ("istio goal 2"), one per envelope predicate, or
/// one per structural axiom.
#[derive(Clone, Debug)]
pub struct FormulaGroup {
    /// Display name used in cores and feedback.
    pub name: String,
    /// The group's formulas (conjoined).
    pub formulas: Vec<Formula>,
    /// Identity tag folded into [`FormulaGroup::content_key`] alongside
    /// the display name. Callers that derive group names from mutable
    /// labels (party display names) set this to the stable id (the
    /// `PartyId`) so renaming a party cannot alias another party's
    /// cached encodings. Zero for groups whose name is the identity.
    pub tag: u64,
}

impl FormulaGroup {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, formulas: Vec<Formula>) -> FormulaGroup {
        FormulaGroup {
            name: name.into(),
            formulas,
            tag: 0,
        }
    }

    /// Attach an identity tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> FormulaGroup {
        self.tag = tag;
        self
    }

    /// Content fingerprint of the group (tag + name + formulas) via the
    /// stable cross-process hasher. This is the incremental engine's
    /// dedup key: two groups with identical content share one encoding,
    /// so diffing these keys across two group sets predicts exactly
    /// which groups a warm engine will re-encode (the stream session's
    /// dirty-group report, DESIGN.md §16).
    pub fn content_key(&self) -> u128 {
        let mut fp = muppet_logic::fingerprint::Fingerprinter::new();
        fp.add_u64(self.tag);
        fp.add_str(&self.name);
        fp.add_u64(self.formulas.len() as u64);
        fp.add_hash(&self.formulas);
        fp.digest()
    }
}

/// Counters from one query run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Free (undetermined) tuple variables.
    pub free_tuple_vars: usize,
    /// SAT conflicts during the run.
    pub conflicts: u64,
    /// SAT decisions during the run.
    pub decisions: u64,
    /// SAT propagations during the run.
    pub propagations: u64,
    /// SAT restarts during the run.
    pub restarts: u64,
    /// Kernel inprocessing passes (subsumption/vivification sweeps at
    /// restart boundaries) during the run.
    pub inprocessings: u64,
    /// UNSAT cores consumed by core-guided (OLL) target optimization
    /// during the run; zero for plain solves and linear-search targets.
    pub oll_cores: u64,
    /// Portfolio aggregates when the search phase fanned out across
    /// diversified workers (`None` for a sequential solve).
    pub portfolio: Option<PortfolioSummary>,
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "free_vars={} conflicts={} decisions={} propagations={} restarts={}",
            self.free_tuple_vars, self.conflicts, self.decisions, self.propagations, self.restarts
        )?;
        if self.inprocessings > 0 {
            write!(f, " inprocessings={}", self.inprocessings)?;
        }
        if self.oll_cores > 0 {
            write!(f, " oll_cores={}", self.oll_cores)?;
        }
        if let Some(p) = &self.portfolio {
            write!(
                f,
                " workers={} winner={} shared_out={} shared_in={}",
                p.workers,
                p.winner.map_or_else(|| "-".to_string(), |w| w.to_string()),
                p.exported,
                p.imported
            )?;
        }
        Ok(())
    }
}

/// The pipeline phase a query was in when its budget fired — the "where
/// the time went" part of an exhaustion report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Grounding first-order goals to propositional structure.
    Ground,
    /// Tseitin-encoding ground formulas to CNF.
    Encode,
    /// CDCL model search.
    Search,
    /// Deletion-based core minimization (MUS extraction).
    Minimize,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Ground => write!(f, "ground"),
            Phase::Encode => write!(f, "encode"),
            Phase::Search => write!(f, "search"),
            Phase::Minimize => write!(f, "minimize"),
        }
    }
}

/// Best-effort artifact salvaged from a query whose budget fired.
#[derive(Clone, Debug)]
pub enum PartialResult {
    /// A sound but *unminimized* blame core: the budget fired during MUS
    /// extraction, after unsatisfiability was already established.
    Core(Vec<String>),
    /// A satisfying model whose edit distance to the target was not yet
    /// proven minimal (target-oriented search's best model so far).
    Model {
        /// The satisfying (but possibly non-closest) instance.
        solution: Instance,
        /// Its edit distance from the target.
        distance: usize,
    },
}

/// Result of [`Query::solve`].
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Satisfiable. `solution` is the fixed instance unioned with the
    /// solver's choices for the free relations — a complete configuration.
    Sat {
        /// The complete satisfying instance.
        solution: Instance,
        /// Work counters.
        stats: QueryStats,
    },
    /// Unsatisfiable. `core` is a *minimal* set of group names that are
    /// jointly contradictory (blame information, Sec. 4.3).
    Unsat {
        /// Minimal conflicting group names.
        core: Vec<String>,
        /// Work counters.
        stats: QueryStats,
    },
    /// A resource budget (deadline, conflict/propagation cap, or
    /// cancellation) fired before the query could answer. Carries where
    /// the work went and any best-effort artifact, so callers can report
    /// and degrade instead of losing everything.
    Unknown {
        /// The pipeline phase that was running when the budget fired.
        phase: Phase,
        /// Work counters accumulated before exhaustion.
        stats: QueryStats,
        /// Best-effort artifact, when one was established in time.
        partial: Option<PartialResult>,
    },
}

impl Outcome {
    /// `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat { .. })
    }

    /// `true` if the budget fired before an answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Outcome::Unknown { .. })
    }

    /// The solution instance, if satisfiable.
    pub fn solution(&self) -> Option<&Instance> {
        match self {
            Outcome::Sat { solution, .. } => Some(solution),
            _ => None,
        }
    }

    /// The blame core, if unsatisfiable.
    pub fn core(&self) -> Option<&[String]> {
        match self {
            Outcome::Unsat { core, .. } => Some(core),
            _ => None,
        }
    }

    /// Work counters, whatever the verdict.
    pub fn stats(&self) -> &QueryStats {
        match self {
            Outcome::Sat { stats, .. }
            | Outcome::Unsat { stats, .. }
            | Outcome::Unknown { stats, .. } => stats,
        }
    }
}

/// Errors from query execution. Every variant that represents abandoned
/// solver work carries the [`QueryStats`] accumulated up to that point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A goal formula had a free variable.
    Ground(GroundError),
    /// A resource budget fired in an API (like enumeration) that has no
    /// way to express a partial answer. `solve`/`solve_target` report
    /// exhaustion as [`Outcome::Unknown`] instead.
    Exhausted {
        /// The pipeline phase that was running when the budget fired.
        phase: Phase,
        /// Work counters accumulated before exhaustion.
        stats: QueryStats,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Ground(e) => write!(f, "grounding failed: {e}"),
            QueryError::Exhausted { phase, stats } => {
                write!(f, "solver budget exhausted at phase {phase} ({stats})")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<GroundError> for QueryError {
    fn from(e: GroundError) -> QueryError {
        QueryError::Ground(e)
    }
}

/// How compiling the facade's groups into an engine can fail.
enum BuildError {
    Ground(GroundError),
    Exhausted(Phase),
}

/// A configurable model-finding query. See the module docs.
pub struct Query<'a> {
    vocab: &'a Vocabulary,
    universe: &'a Universe,
    free_rels: Vec<RelId>,
    bounds: PartialInstance,
    fixed: Instance,
    groups: Vec<FormulaGroup>,
    minimize_cores: bool,
    symmetry_breaking: bool,
    budget: Budget,
    portfolio: Option<PortfolioConfig>,
    target_strategy: TargetStrategy,
}

impl<'a> Query<'a> {
    /// A query with no free relations, empty fixed instance and no goals.
    pub fn new(vocab: &'a Vocabulary, universe: &'a Universe) -> Query<'a> {
        Query {
            vocab,
            universe,
            free_rels: Vec::new(),
            bounds: PartialInstance::new(),
            fixed: Instance::new(),
            groups: Vec::new(),
            minimize_cores: true,
            symmetry_breaking: false,
            budget: Budget::unlimited(),
            portfolio: None,
            target_strategy: TargetStrategy::default(),
        }
    }

    /// Install a resource [`Budget`] governing this query: the deadline,
    /// caps and cancellation token apply across grounding, encoding, the
    /// SAT search, and core minimization. The default is unlimited.
    pub fn set_budget(&mut self, budget: Budget) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Enable lex-leader symmetry breaking over interchangeable atoms
    /// (see [`crate::symmetry`]). Applies to [`Query::solve`] only:
    /// `solve_target` must see the whole model space to find the true
    /// nearest model, and `enumerate` must not skip symmetric models, so
    /// both ignore this flag.
    pub fn set_symmetry_breaking(&mut self, enable: bool) -> &mut Self {
        self.symmetry_breaking = enable;
        self
    }

    /// Whether UNSAT cores are shrunk to minimal ones (default: yes).
    /// Turning this off returns the solver's first core — faster but
    /// potentially blaming more groups than necessary (ablation A2).
    pub fn set_minimize_cores(&mut self, minimize: bool) -> &mut Self {
        self.minimize_cores = minimize;
        self
    }

    /// Fan the search phase out across a portfolio of diversified
    /// workers. `None` (the default) or a config with `threads <= 1`
    /// keeps the search sequential. Applies to [`Query::solve`] only:
    /// target-oriented solving and enumeration add permanent clauses
    /// mid-search and stay sequential.
    pub fn set_portfolio(&mut self, portfolio: Option<PortfolioConfig>) -> &mut Self {
        self.portfolio = portfolio;
        self
    }

    /// How [`Query::solve_target`] proves the minimal edit distance
    /// (default: core-guided OLL ascent). [`TargetStrategy::Linear`] is
    /// the pre-OLL baseline; both return byte-identical outcomes and
    /// distances, so this knob trades search trajectory for speed only.
    pub fn set_target_strategy(&mut self, strategy: TargetStrategy) -> &mut Self {
        self.target_strategy = strategy;
        self
    }

    /// Declare `rel` as free (solver-decided).
    pub fn free_rel(&mut self, rel: RelId) -> &mut Self {
        if !self.free_rels.contains(&rel) {
            self.free_rels.push(rel);
        }
        self
    }

    /// Declare several relations free.
    pub fn free_rels(&mut self, rels: impl IntoIterator<Item = RelId>) -> &mut Self {
        for r in rels {
            self.free_rel(r);
        }
        self
    }

    /// Set partial-instance bounds for the free relations.
    pub fn set_bounds(&mut self, bounds: PartialInstance) -> &mut Self {
        self.bounds = bounds;
        self
    }

    /// Set the fixed instance (structure + committed configurations).
    pub fn set_fixed(&mut self, fixed: Instance) -> &mut Self {
        self.fixed = fixed;
        self
    }

    /// Add a named formula group.
    pub fn add_group(&mut self, group: FormulaGroup) -> &mut Self {
        self.groups.push(group);
        self
    }

    /// The declared free relations.
    pub fn free_relations(&self) -> &[RelId] {
        &self.free_rels
    }

    /// Compile the facade's configuration into a fresh incremental
    /// engine with every group grounded + encoded, in declaration
    /// order.
    fn build(&self) -> Result<(IncrementalQuery, Vec<GroupId>), BuildError> {
        let mut engine = IncrementalQuery::new(
            self.vocab,
            self.universe,
            &self.free_rels,
            &self.bounds,
            self.fixed.clone(),
        );
        engine.set_minimize_cores(self.minimize_cores);
        engine.set_portfolio(self.portfolio);
        engine.set_target_strategy(self.target_strategy);
        let mut active = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            match engine.ensure_group(g, &self.budget) {
                Ok(id) => active.push(id),
                Err(PrepareError::Ground(e)) => return Err(BuildError::Ground(e)),
                Err(PrepareError::Exhausted(phase)) => return Err(BuildError::Exhausted(phase)),
            }
        }
        Ok((engine, active))
    }

    /// Convert a pre-solver build abort into the structured outcome.
    fn exhausted_outcome(&self, phase: Phase) -> Outcome {
        Outcome::Unknown {
            phase,
            stats: QueryStats::default(),
            partial: None,
        }
    }

    /// Is the conjunction of all groups satisfiable over the bounds?
    ///
    /// Under a [`Budget`] this never hangs: on exhaustion it returns
    /// [`Outcome::Unknown`] naming the phase that was running, the work
    /// counters, and (when UNSAT was already established but the core
    /// was still being minimized) the unminimized core as a partial
    /// artifact.
    pub fn solve(&self) -> Result<Outcome, QueryError> {
        let (mut engine, active) = match self.build() {
            Ok(built) => built,
            Err(BuildError::Ground(e)) => return Err(QueryError::Ground(e)),
            Err(BuildError::Exhausted(phase)) => return Ok(self.exhausted_outcome(phase)),
        };
        if self.symmetry_breaking {
            // Sound only because this engine is one-shot: the lex
            // clauses are permanent and goal-set dependent.
            engine.add_symmetry_breaking(&self.groups);
        }
        Ok(engine.solve(&active, self.budget.clone()))
    }

    /// Find the satisfying instance *closest to `target`* (fewest tuple
    /// flips over the free relations). Returns the outcome and, when SAT,
    /// the achieved distance.
    ///
    /// This reproduces Pardinus's target-oriented model finding: the
    /// target is the administrator's rejected or preferred configuration,
    /// and the answer is the minimal edit of it that satisfies the goals.
    /// On budget exhaustion the returned [`Outcome::Unknown`] carries the
    /// best model found so far (feasible but not proven closest) as a
    /// [`PartialResult::Model`], so a counter-offer can still be made.
    pub fn solve_target(&self, target: &Instance) -> Result<(Outcome, usize), QueryError> {
        let (mut engine, active) = match self.build() {
            Ok(built) => built,
            Err(BuildError::Ground(e)) => return Err(QueryError::Ground(e)),
            Err(BuildError::Exhausted(phase)) => return Ok((self.exhausted_outcome(phase), 0)),
        };
        Ok(engine.solve_target(&active, target, self.budget.clone()))
    }

    /// Enumerate up to `limit` distinct solutions (distinct over the free
    /// relations). Intended for exhaustive verification on small
    /// universes.
    pub fn enumerate(&self, limit: usize) -> Result<Vec<Instance>, QueryError> {
        let (mut engine, active) = match self.build() {
            Ok(built) => built,
            Err(BuildError::Ground(e)) => return Err(QueryError::Ground(e)),
            Err(BuildError::Exhausted(phase)) => {
                return Err(QueryError::Exhausted {
                    phase,
                    stats: QueryStats::default(),
                })
            }
        };
        engine.enumerate(&active, limit, self.budget.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_logic::{evaluate_closed, Domain, PartyId, Term};

    struct Fix {
        u: Universe,
        v: Vocabulary,
        s: muppet_logic::SortId,
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
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .set_fixed(fixed.clone())
            .add_group(FormulaGroup::new("goal", vec![goal.clone()]));
        match q.solve().unwrap() {
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
        let t = [f.atoms[0], f.atoms[1]];
        let pos = Formula::pred(f.allow, t.iter().map(|&a| Term::Const(a)));
        let neg = Formula::not(pos.clone());
        let other = Formula::pred(
            f.allow,
            [Term::Const(f.atoms[2]), Term::Const(f.atoms[2])],
        );
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .add_group(FormulaGroup::new("require", vec![pos]))
            .add_group(FormulaGroup::new("forbid", vec![neg]))
            .add_group(FormulaGroup::new("irrelevant", vec![other]));
        match q.solve().unwrap() {
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
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow).set_bounds(bounds);
        match q.solve().unwrap() {
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
        let goal = Formula::pred(
            f.allow,
            [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
        );
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .add_group(FormulaGroup::new("g", vec![goal]));
        let target = Instance::new();
        let (outcome, dist) = q.solve_target(&target).unwrap();
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
        let goal = Formula::pred(
            f.allow,
            [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
        );
        let mut target = Instance::new();
        target.insert(f.allow, vec![f.atoms[2], f.atoms[2]]);
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .add_group(FormulaGroup::new("g", vec![goal]));
        let (outcome, dist) = q.solve_target(&target).unwrap();
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
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow).set_bounds(bounds);
        let (outcome, dist) = q.solve_target(&Instance::new()).unwrap();
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
        let goal = Formula::or([
            Formula::pred(f.allow, t1.iter().map(|&a| Term::Const(a))),
            Formula::pred(f.allow, t2.iter().map(|&a| Term::Const(a))),
        ]);
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .set_bounds(bounds)
            .add_group(FormulaGroup::new("g", vec![goal]));
        let models = q.enumerate(10).unwrap();
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
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow);
        let models = q.enumerate(5).unwrap();
        assert_eq!(models.len(), 5);
    }

    #[test]
    fn no_groups_means_any_instance_works() {
        let f = fix();
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow);
        assert!(q.solve().unwrap().is_sat());
    }

    #[test]
    fn symmetry_breaking_preserves_verdicts() {
        // ∃-style goal over interchangeable atoms: SAT with and without
        // SB; an UNSAT variant stays UNSAT.
        let f = fix();
        let mut q = Query::new(&f.v, &f.u);
        let t1 = Formula::pred(f.allow, [Term::Const(f.atoms[0]), Term::Const(f.atoms[0])]);
        // fe/be/db all appear as constants? atoms[0] does; atoms 1,2 are
        // interchangeable.
        q.free_rel(f.allow)
            .set_symmetry_breaking(true)
            .add_group(FormulaGroup::new("g", vec![t1.clone()]));
        assert!(q.solve().unwrap().is_sat());
        let mut q2 = Query::new(&f.v, &f.u);
        q2.free_rel(f.allow)
            .set_symmetry_breaking(true)
            .add_group(FormulaGroup::new("g", vec![t1.clone()]))
            .add_group(FormulaGroup::new("ng", vec![Formula::not(t1)]));
        match q2.solve().unwrap() {
            Outcome::Unsat { core, .. } => assert_eq!(core.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn symmetry_breaking_skipped_for_target_and_enumerate() {
        // enumerate must still see ALL models even with the flag set.
        let f = fix();
        let mut q = Query::new(&f.v, &f.u);
        let mut bounds = PartialInstance::new();
        // Two interchangeable-atom tuples only.
        bounds.permit(f.listens, vec![f.atoms[1]]);
        bounds.permit(f.listens, vec![f.atoms[2]]);
        q.free_rel(f.listens)
            .set_bounds(bounds)
            .set_symmetry_breaking(true);
        let models = q.enumerate(10).unwrap();
        assert_eq!(models.len(), 4, "all 2^2 models, symmetric ones included");
        // Target solving also ignores the flag: nearest model to
        // {listens(atom2)} is itself, not a canonical rotation.
        let mut target = Instance::new();
        target.insert(f.listens, vec![f.atoms[2]]);
        let (out, dist) = q.solve_target(&target).unwrap();
        assert!(out.is_sat());
        assert_eq!(dist, 0);
    }

    /// Relational pigeonhole: `sits ⊆ P×H`, every pigeon sits somewhere,
    /// no hole holds two pigeons. Pure quantifiers — every atom is
    /// interchangeable — so symmetry breaking should slash the conflict
    /// count on the UNSAT instance.
    fn php_query(
        pigeons: usize,
        holes: usize,
    ) -> (Universe, Vocabulary, muppet_logic::RelId) {
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

    fn php_formulas(
        v: &mut Vocabulary,
        sits: muppet_logic::RelId,
    ) -> Vec<Formula> {
        let ps = muppet_logic::SortId(0);
        let hs = muppet_logic::SortId(1);
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

    #[test]
    fn symmetry_breaking_slashes_pigeonhole_conflicts() {
        let (u, mut v, sits) = php_query(7, 6);
        let formulas = php_formulas(&mut v, sits);
        let run = |sb: bool| {
            let mut q = Query::new(&v, &u);
            q.free_rel(sits)
                .set_symmetry_breaking(sb)
                .add_group(FormulaGroup::new("php", formulas.clone()))
                .set_minimize_cores(false);
            match q.solve().unwrap() {
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
        let mut q = Query::new(&v, &u);
        q.free_rel(sits)
            .set_symmetry_breaking(true)
            .add_group(FormulaGroup::new("php", formulas.clone()));
        let Outcome::Sat { solution, .. } = q.solve().unwrap() else {
            panic!("PHP(5,5) is satisfiable");
        };
        // The model is a genuine perfect matching.
        for f in &formulas {
            assert!(muppet_logic::evaluate_closed(f, &solution, &u).unwrap());
        }
    }

    #[test]
    fn open_formula_reports_ground_error() {
        let mut f = fix();
        let x = f.v.fresh_var();
        let mut q = Query::new(&f.v, &f.u);
        q.free_rel(f.allow)
            .add_group(FormulaGroup::new("open", vec![Formula::pred(
                f.allow,
                [Term::Var(x), Term::Var(x)],
            )]));
        assert!(matches!(q.solve(), Err(QueryError::Ground(_))));
    }
}
