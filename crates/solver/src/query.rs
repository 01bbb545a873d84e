//! What a query is made of and what it answers: named formula groups
//! in, an [`Outcome`] (or a [`QueryError`]) out.
//!
//! Every query runs on the incremental engine
//! ([`crate::IncrementalQuery`], DESIGN.md §13): a universe and
//! vocabulary, a set of *free* relations with bounds (the holes and
//! soft settings of `C??`), a *fixed* instance (structure plus any
//! already-committed configuration), and the [`FormulaGroup`]s each
//! solve call names. `solve` answers Algs. 1–2's satisfiability
//! questions, `solve_target` answers Pardinus-style "closest model"
//! questions (Fig. 8 minimal edits), and `enumerate` lists models for
//! exhaustive checks.

use std::fmt;

use muppet_logic::{Formula, Instance};
use muppet_portfolio::PortfolioSummary;

use crate::ground::GroundError;

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

/// Result of [`crate::IncrementalQuery::solve`].
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
