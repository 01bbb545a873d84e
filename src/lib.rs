//! # muppet-repro — workspace umbrella crate
//!
//! Re-exports the full Muppet reproduction stack so integration tests,
//! examples and the experiment harness can use one dependency. See the
//! individual crates for documentation:
//!
//! * [`muppet`] — the paper's contribution (envelopes, Algs. 1–3,
//!   conformance/negotiation workflows).
//! * [`muppet_mesh`] — the K8s/Istio microservices domain.
//! * [`muppet_goals`] — CSV goal tables and translation.
//! * [`muppet_solver`] / [`muppet_logic`] / [`muppet_sat`] — the
//!   model-finding stack.
//! * [`muppet_yaml`] — manifest ingestion.
//! * [`muppet_scenario`] — the paper fixtures, the seeded scenario
//!   generator and the graded corpus.

#![forbid(unsafe_code)]

pub use muppet;
pub use muppet_goals;
pub use muppet_logic;
pub use muppet_mesh;
pub use muppet_sat;
pub use muppet_scenario;
pub use muppet_solver;
pub use muppet_yaml;
