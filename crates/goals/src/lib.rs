//! # muppet-goals — the administrator goal language
//!
//! "Administrators specify these goals as CSV files" (Sec. 3). This crate
//! implements both goal tables:
//!
//! * **K8s goals** (Fig. 2): `port, perm, selector` rows — e.g.
//!   `23, DENY, *` bans traffic to port 23 for all services.
//! * **Istio goals** (Figs. 3–4): `srcService, dstService, srcPort,
//!   dstPort` reachability rows. Ports may be concrete (`25`), fully
//!   flexible (`*`), or *named existential variables* (`?w`, rendered
//!   `∃w` in the paper) — "the variables capturing which must be the
//!   same" across rows (Fig. 4).
//!
//! Each goal row is translated "by the system, not the administrator"
//! (Sec. 4) into a bounded first-order formula over **both** parties'
//! configuration relations, via a domain's `allowed(src, dst, port)`
//! semantics. This crate owns the goal language for every domain: the
//! translators take any [`GoalVocab`] — a domain's
//! [`muppet_mesh::ServiceUniverse`], its `listens` relation, its
//! `allowed` formula and its row names. [`muppet_mesh::MeshVocab`]
//! implements it here (`k8s goal` / `istio goal` rows); the Linkerd
//! domain implements it for its own vocabulary (`platform goal` /
//! `linkerd goal` rows). Rows become named
//! `muppet_solver::FormulaGroup`-style pairs so that unsat cores blame
//! specific rows; rows that share an existential variable are merged into
//! one group (their meaning is coupled).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
mod model;
mod translate;

pub use model::{
    fig2, istio_goals_csv, k8s_goals_csv, GoalParseError, IstioGoal, K8sGoal, PortSpec,
};
pub use translate::{
    collect_goal_ports, translate_istio_goals, translate_k8s_goals, translate_k8s_row, GoalVocab,
    NamedFormula,
};
