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

use std::collections::HashMap;
use std::fmt;

use muppet_logic::{Formula, Instance};

use crate::ground::GroundError;

/// A named group of formulas. Groups are the unit of *blame*: an UNSAT
/// answer names the minimal set of groups that conflict. Typical groups
/// are one per goal row ("istio goal 2"), one per envelope predicate, or
/// one per structural axiom.
#[derive(Clone, Debug)]
pub struct FormulaGroup {
    /// Display name used in cores and feedback. It is not part of the
    /// group's encoding key: an engine names a core's groups by what
    /// the current call submitted.
    pub name: String,
    /// The group's formulas (conjoined).
    pub formulas: Vec<Formula>,
    /// Identity tag folded into [`FormulaGroup::content_key`]. Callers
    /// whose groups belong to a party set this to the stable id (the
    /// `PartyId`), so two parties' groups with equal formulas never
    /// share an encoding, whatever the parties are called. Zero for
    /// groups without an owner.
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

    /// Fingerprint of the group's meaning: the tag plus the formulas up
    /// to α-equivalence ([`Fingerprinter::add_formula`]: bound
    /// variables hashed by binder depth, free ones under a separate
    /// tag). The display name is left out, so renumbering the bound
    /// variables of a re-translated goal table or renaming a goal row
    /// keeps the key. [`FormulaGroup::encoding_keys`] derives the
    /// incremental engine's dedup key from it.
    ///
    /// [`Fingerprinter::add_formula`]: muppet_logic::fingerprint::Fingerprinter::add_formula
    pub fn content_key(&self) -> u128 {
        let mut fp = muppet_logic::fingerprint::Fingerprinter::new();
        fp.add_u64(self.tag);
        fp.add_u64(self.formulas.len() as u64);
        for f in &self.formulas {
            fp.add_formula(f);
        }
        fp.digest()
    }

    /// The incremental engine's encoding key of each group one call
    /// submits, in submission order. A group's key is its
    /// [`FormulaGroup::content_key`], refined by the rank of its name
    /// among the distinct names that carry the same content in this
    /// call (in order of first appearance; rank 0 keeps the content
    /// key). So two differently named groups with equal content in one
    /// call keep separate selectors and blame, an exact duplicate
    /// shares one encoding, and a group renamed between calls reuses
    /// its encoding. Diffing these keys across two calls predicts
    /// exactly which groups a warm engine will ground and encode (the
    /// stream session's dirty-group report, DESIGN.md §16).
    pub fn encoding_keys(groups: &[FormulaGroup]) -> Vec<u128> {
        let mut names: HashMap<u128, Vec<&str>> = HashMap::new();
        groups
            .iter()
            .map(|g| {
                let key = g.content_key();
                let seen = names.entry(key).or_default();
                let rank = match seen.iter().position(|&n| n == g.name) {
                    Some(rank) => rank,
                    None => {
                        seen.push(&g.name);
                        seen.len() - 1
                    }
                };
                if rank == 0 {
                    key
                } else {
                    let mut fp = muppet_logic::fingerprint::Fingerprinter::new();
                    fp.add_bytes(&key.to_le_bytes()).add_u64(rank as u64);
                    fp.digest()
                }
            })
            .collect()
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
    /// UNSAT cores consumed by core-guided (OLL) target optimization
    /// during the run; zero for plain solves and linear-search targets.
    pub oll_cores: u64,
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "free_vars={} conflicts={} decisions={} propagations={} restarts={}",
            self.free_tuple_vars, self.conflicts, self.decisions, self.propagations, self.restarts
        )?;
        if self.oll_cores > 0 {
            write!(f, " oll_cores={}", self.oll_cores)?;
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
    /// A budget that fired while grounding is exhaustion at
    /// [`Phase::Ground`], with empty stats; every other ground error is
    /// [`QueryError::Ground`].
    fn from(e: GroundError) -> QueryError {
        match e {
            GroundError::Exhausted => QueryError::Exhausted {
                phase: Phase::Ground,
                stats: QueryStats::default(),
            },
            e => QueryError::Ground(e),
        }
    }
}
