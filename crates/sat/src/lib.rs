//! # muppet-sat — a CDCL SAT solver
//!
//! This crate is the bottom of the Muppet reproduction stack. The paper's
//! prototype sat on top of Pardinus/Kodkod, which in turn drive an external
//! SAT solver (MiniSat-class). Everything above (`muppet-solver`,
//! `muppet-logic`, `muppet`) reduces questions about configurations — local
//! consistency (Alg. 1), reconciliation (Alg. 2), envelope checking,
//! synthesis and minimal-edit counter-offers — to propositional
//! satisfiability queries answered here.
//!
//! ## Features
//!
//! * Conflict-driven clause learning with first-UIP conflict analysis and
//!   learned-clause minimization.
//! * Two-literal watched propagation.
//! * VSIDS decision heuristic (indexed max-heap) with phase saving.
//! * Luby-sequence restarts.
//! * Three-tier (core/mid/local) learned-clause database keyed by LBD
//!   (glue level), with demotion/eviction and on-use promotion; a flat
//!   single-cap policy remains available as a baseline.
//! * Budget-bounded inprocessing at restart boundaries: clause
//!   subsumption, self-subsuming resolution and vivification over the
//!   learnt DB.
//! * Incremental solving under **assumptions**, returning an assumption
//!   *core* on UNSAT — the mechanism behind the paper's "unsatisfiable core
//!   with blame information" feedback (Sec. 4.3).
//! * Deletion-based MUS (minimal unsatisfiable subset) extraction over
//!   named clause groups ([`mus::shrink_core`]), following Torlak et al.'s
//!   minimal-core approach the paper cites.
//! * DIMACS CNF parsing and emission for debugging and interop.
//!
//! ## Quick example
//!
//! ```
//! use muppet_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! match s.solve() {
//!     SolveResult::Sat(model) => {
//!         assert!(!model.value(a));
//!         assert!(model.value(b));
//!     }
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod clause;
mod dimacs;
mod heap;
mod lit;
mod luby;
mod model;
pub mod mus;
pub mod share;
mod solver;

pub use budget::{Budget, CancelToken, Exhaustion, RetryPolicy};
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError, DimacsProblem};
pub use lit::{LBool, Lit, Var};
pub use luby::luby;
pub use model::Model;
pub use share::ClauseExchange;
pub use solver::{ReduceStrategy, SolveResult, Solver, SolverStats};
