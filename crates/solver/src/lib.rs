//! # muppet-solver — a bounded relational model finder
//!
//! The paper's prototype delegates its logic queries to the Pardinus
//! target-oriented model finder, an extension of Kodkod. This crate is our
//! from-scratch equivalent, sitting between `muppet-logic` (formulas,
//! instances, bounds) and `muppet-sat` (the CDCL solver):
//!
//! * **Grounding** ([`ground()`]): bounded first-order formulas are expanded
//!   over the finite universe into negation-normal propositional
//!   structure, constant-folding fixed relations on the way.
//! * **Variable mapping** ([`VarMap`]): each undetermined tuple of a
//!   *free* relation becomes one SAT variable; bounds from a
//!   [`muppet_logic::PartialInstance`] pin tuples true (lower bound) or
//!   false (outside the upper bound) — exactly Kodkod's partial-instance
//!   mechanism, which is how `C??` holes and soft settings reach the
//!   solver.
//! * **CNF conversion** ([`tseitin`]): one-sided (Plaisted–Greenbaum
//!   style) Tseitin encoding, sound and complete for NNF inputs.
//! * **Named groups and cores**: every formula group is guarded by a
//!   selector literal; UNSAT answers come back as a *minimal* set of group
//!   names (via `muppet-sat`'s MUS extraction), giving the paper's "unsat
//!   core with blame information".
//! * **One incremental engine** ([`IncrementalQuery`], DESIGN.md §13):
//!   the one query type. Each solve call takes the [`FormulaGroup`]s it
//!   runs with, grounds and encodes the ones the engine has not seen
//!   (selector-gated CNF groups deduplicated by content fingerprint),
//!   and keeps learned clauses across calls. A one-shot query is a
//!   fresh engine and one call; [`PreparedStore`] holds warm engines
//!   per query shape. Models and cores are canonicalized so a warm
//!   engine, a fresh one and a portfolio run answer byte-identically.
//! * **Target-oriented solving** ([`IncrementalQuery::solve_target`]):
//!   find the model *closest to a target instance* (minimal
//!   symmetric-difference) over a [`totalizer`] cardinality encoding,
//!   by core-guided (OLL) ascent by default or by linear search
//!   ([`TargetStrategy`]). This is Pardinus's headline feature and
//!   powers Muppet's minimal-edit counter-offers (Fig. 8).
//! * **Model enumeration** ([`IncrementalQuery::enumerate`]): iterate
//!   distinct models via blocking clauses; used by tests to verify
//!   envelope necessity/sufficiency by exhaustion on small universes.
//! * **Symmetry breaking** ([`symmetry`], opt-in via
//!   [`IncrementalQuery::add_symmetry_breaking`]): Kodkod's
//!   interchangeable-atom optimization — lex-leader constraints over
//!   atoms the problem cannot tell apart (spare ports). Only legal for
//!   plain satisfiability solves on a one-shot engine; target-oriented
//!   and enumeration queries keep the full model space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod ground;
pub mod incremental;
pub mod prepared;
pub mod query;
pub mod symmetry;
pub mod totalizer;
pub mod tseitin;
pub mod varmap;

pub use incremental::{IncrementalQuery, TargetStrategy, DEFAULT_CANONICAL_CAP};
pub use muppet_portfolio::{default_threads, PortfolioConfig, PortfolioSummary};
pub use muppet_sat::{Budget, CancelToken, Exhaustion, ReduceStrategy, RetryPolicy};
pub use prepared::PreparedStore;
pub use query::{FormulaGroup, Outcome, PartialResult, Phase, QueryError, QueryStats};
pub use ground::{ground, GExpr};
pub use varmap::VarMap;
