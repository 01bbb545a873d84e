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
//! * One learned-clause retention policy keyed by LBD (glue level): when
//!   the DB outgrows its cap, the worse half by LBD then activity is
//!   deleted, glue clauses (LBD ≤ 3) are always kept, and the cap grows
//!   by a third. Learnt clauses are only ever added and deleted, never
//!   shortened.
//! * Incremental solving under **assumptions**, returning an assumption
//!   *core* on UNSAT — the mechanism behind the paper's "unsatisfiable core
//!   with blame information" feedback (Sec. 4.3).
//! * Lex-min solving ([`Solver::solve_lex_min`]): the lexicographically
//!   smallest model over a variable order under assumptions — the
//!   ordinary search, then a second one from its assumption levels that
//!   decides the order first. This is what makes warm and cold answers
//!   byte-identical upstream.
//! * Variables that occur in no clause are never decided; they read
//!   `false` in models.
//! * Deletion-based MUS (minimal unsatisfiable subset) extraction over
//!   named clause groups ([`mus::shrink_core_ordered`]), following Torlak
//!   et al.'s minimal-core approach the paper cites: ordered deletion
//!   seeded with the search's own core, so the result depends on the
//!   assumption order only.
//! * One resource limit: a [`Budget`] (conflict and propagation caps,
//!   deadline, cancellation) installed with [`Solver::set_budget`].
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
mod solver;

pub use budget::{Budget, CancelToken, Exhaustion, RetryPolicy};
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError, DimacsProblem};
pub use lit::{LBool, Lit, Var};
pub use luby::luby;
pub use model::Model;
pub use solver::{SolveResult, Solver, SolverStats};
