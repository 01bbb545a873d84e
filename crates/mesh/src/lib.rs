//! # muppet-mesh — the microservices configuration domain
//!
//! The paper applies Muppet "in the microservices access-control domain"
//! (Sec. 5): one Kubernetes administrator controlling NetworkPolicy
//! objects, one Istio administrator controlling AuthorizationPolicy
//! objects, over a shared set of Services. This crate supplies everything
//! domain-specific:
//!
//! * **System structure** ([`Service`], [`Mesh`]): services with names,
//!   labels and listening ports — the Fig. 1 architecture.
//! * **Policy models** ([`NetworkPolicy`], [`AuthorizationPolicy`]): the
//!   modeled subsets of the two policy languages, each able to allow or
//!   deny traffic by service selector and port (Sec. 5's modeling scope).
//! * **Dataplane simulator** ([`dataplane`]): an executable reference
//!   semantics deciding, with an explanation trace, whether a flow is
//!   delivered under the *combined* K8s + Istio configuration
//!   (deny-overrides across layers; implicit deny in the presence of
//!   allow policies). The paper ran against mental models of real
//!   clusters; we substitute this simulator and differentially test the
//!   logical encoding against it.
//! * **Logical encoding** ([`encode::MeshVocab`]): sorts, relations and
//!   the compile/decompile maps between policy objects and relation
//!   tables, plus the two-layer `allowed(src, dst, dport)` formula that
//!   goal translation builds on. Relations are owned by the right party
//!   ([`muppet_logic::Domain`]), which is what makes envelope extraction
//!   work.
//! * **Manifests** ([`manifest`]): YAML ingestion and emission for
//!   services and both policy kinds, in the shapes `kubectl`/`istioctl`
//!   accept (with two documented `x-muppet-*` extension fields where the
//!   paper's model is richer than stock K8s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataplane;
pub mod encode;
pub mod manifest;
mod policy;
mod service;

pub use dataplane::{evaluate_flow, evaluate_flow_full, Decision, Flow};
pub use encode::{MeshVocab, ServiceUniverse};
pub use policy::{
    Action, AuthPolicyRule, AuthorizationPolicy, Direction, MtlsMode, NetPolicyRule,
    NetworkPolicy, PeerAuthentication,
};
pub use service::{Mesh, Selector, Service};
