//! # muppet — solver-aided multi-party configuration
//!
//! The primary contribution of *Solver-Aided Multi-Party Configuration*
//! (HotNets '20), reimplemented in full:
//!
//! * **Parties and sessions** ([`Party`], [`Session`]): administrators
//!   with goals (bounded FOL, usually translated from CSV goal tables by
//!   `muppet-goals`) and partial-configuration offers (`C??` — holes and
//!   soft settings as [`muppet_logic::PartialInstance`] bounds).
//! * **Alg. 1 — local consistency** ([`Session::local_consistency`]):
//!   can the party's offer be completed (together with *some* choice for
//!   everyone else) so that its own goals hold?
//! * **Alg. 2 — reconciliation** ([`Session::reconcile`]): can all
//!   offers be extended to total configurations that jointly satisfy all
//!   goals? Failure yields *blame*: a minimal core of goal rows and
//!   committed settings.
//! * **Alg. 3 — envelope extraction** ([`Session::compute_envelope`]):
//!   decompose the sender's goals, keep the subformulas touching the
//!   recipient's domain, substitute the sender's concrete settings
//!   (partial evaluation with a uniformity pre-pass), and simplify. The
//!   result ([`Envelope`]) renders in Alloy syntax and numbered English —
//!   both presentations of the paper's Fig. 5.
//! * **Conformance workflow** (Fig. 7, [`conformance`]): provider
//!   computes an envelope once; the tenant checks, synthesizes, revises
//!   (Fig. 8: minimal-edit counter-offers via target-oriented solving,
//!   unsat cores with blame) and reconciles.
//! * **Negotiation workflow** (Fig. 9, [`negotiate`]): round-robin
//!   offers/counter-offers between any number of parties, mediated by
//!   the solver, with pluggable revision strategies.
//! * **Monolithic baseline** (Fig. 6, [`baseline`]): the traditional
//!   single-shot synthesis Muppet improves on — fails without
//!   localization when goals conflict.
//! * **Extensions from Sec. 7**: more than two parties (the negotiation
//!   cycle is k-ary; [`Session::compute_multi_envelope`] builds
//!   `E_{{A,B}→C}` with per-sender obligation tags) and the
//!   configuration-privacy **leakage metric** ([`Envelope::leakage`])
//!   with simplification as the mitigation the paper proposes.
//! * **Warm sessions**: a [`Session`] owns a [`PreparedStore`] of
//!   incremental engines, and each workflow has one entry point —
//!   the four `Session` queries, [`negotiate::run_negotiation`],
//!   [`conformance::run_conformance`] and [`learn::learn_envelope`] —
//!   that solves through it. Repeating a call re-encodes only the
//!   groups whose content changed; answers are byte-identical to the
//!   same call on a fresh `Session`, which is the cold reference.
//! * **Resource governance**: every session query runs under a
//!   [`Budget`] (wall-clock deadline, conflict/propagation caps,
//!   cooperative cancellation) with a [`RetryPolicy`] escalation
//!   schedule ([`Session::set_budget`], [`Session::set_retry_policy`]).
//!   Exhaustion degrades to structured [`ExhaustionReport`]s carrying
//!   the pipeline phase, work counters and any partial result — never a
//!   hang or an information-free error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod conformance;
mod envelope;
pub mod explain;
pub mod fingerprint;
pub mod learn;
pub mod negotiate;
mod party;
mod session;

pub use envelope::{Envelope, EnvelopePredicate, LeakageReport};
pub use fingerprint::Fingerprinter;
pub use muppet_solver::{
    Budget, CancelToken, Exhaustion, Phase, PreparedStore, QueryStats, RetryPolicy,
};
pub use party::{NamedGoal, Party};
pub use session::{
    ConsistencyReport, ExhaustionReport, GroupSignature, MuppetError, Reconciliation,
    ReconcileMode, Session,
};
