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
//!   solver. An unbounded relation's tuples are numbered arithmetically
//!   (a base plus the mixed-radix index of the atoms' positions), as
//!   Kodkod numbers them from its bounds, so nothing is stored per
//!   tuple.
//! * **CNF conversion** ([`tseitin`]): one-sided (Plaisted–Greenbaum
//!   style) Tseitin encoding, sound and complete for NNF inputs.
//! * **Named groups and cores**: every formula group is guarded by a
//!   selector literal; UNSAT answers come back as a *minimal* set of group
//!   names (via `muppet-sat`'s MUS extraction), giving the paper's "unsat
//!   core with blame information".
//! * **One incremental engine** ([`IncrementalQuery`], DESIGN.md §13):
//!   the one query type. Each solve call takes the [`FormulaGroup`]s it
//!   runs with, grounds and encodes the ones the engine has not seen
//!   (selector-gated CNF groups deduplicated by meaning: the formulas
//!   up to α-equivalence, not the group's name — see
//!   [`FormulaGroup::encoding_keys`]), and keeps learned clauses across
//!   calls. A one-shot query is a
//!   fresh engine and one call; [`PreparedStore`] holds warm engines
//!   per query shape. Models are canonicalized by one lex-min solve at
//!   every instance size and cores by ordered deletion, so a warm
//!   engine and a fresh one answer byte-identically — and an engine
//!   answers a group list it has already solved from its memo,
//!   without searching.
//! * **Target-oriented solving** ([`IncrementalQuery::solve_target`]):
//!   find the model *closest to a target instance* (minimal
//!   symmetric-difference) by core-guided (OLL) ascent, relaxing each
//!   core through a [`totalizer`] cardinality encoding. This is
//!   Pardinus's headline feature and
//!   powers Muppet's minimal-edit counter-offers (Fig. 8).
//! * **Model enumeration** ([`IncrementalQuery::enumerate`]): iterate
//!   distinct models via blocking clauses; used by tests to verify
//!   envelope necessity/sufficiency by exhaustion on small universes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod ground;
pub mod incremental;
pub mod prepared;
pub mod query;
pub mod totalizer;
pub mod tseitin;
pub mod varmap;

pub use incremental::IncrementalQuery;
pub use muppet_sat::{Budget, CancelToken, Exhaustion, RetryPolicy};
pub use prepared::PreparedStore;
pub use query::{FormulaGroup, Outcome, PartialResult, Phase, QueryError, QueryStats};
pub use ground::{ground, GExpr};
pub use varmap::VarMap;
