//! The logical encoding of the mesh domain.
//!
//! Muppet "expands each goal entry to a logical formula over both K8s and
//! Istio configurations" (Sec. 5). This module defines that logical
//! space: the sorts (`Service`, `Port`), the configuration relations of
//! each party, the compile/decompile maps between policy objects and
//! relation tables, and the two-layer `allowed` predicate.
//!
//! ## The relational model
//!
//! | relation | arity | owner | meaning |
//! |---|---|---|---|
//! | `listens(s, p)` | Svc×Port | Istio | `s` has `p` among its active ports (port exposure is a mesh-admin decision) |
//! | `k8s_in_deny(d, s, p)` | Svc×Svc×Port | K8s | a DENY ingress rule on `d` matches source `s`, port `p` |
//! | `k8s_in_allow(d, s, p)` | Svc×Svc×Port | K8s | an ALLOW ingress rule on `d` matches |
//! | `k8s_in_guard(d)` | Svc | K8s | some ALLOW ingress policy selects `d` (implicit-deny trigger) |
//! | `k8s_eg_deny(s, d, p)`, `k8s_eg_allow(s, d, p)`, `k8s_eg_guard(s)` | | K8s | egress mirror images |
//! | `istio_in_deny(d, s)` | Svc×Svc | Istio | Fig. 5's `deny_from_service` |
//! | `istio_in_allow(d, s)` | Svc×Svc | Istio | Fig. 5's `allow_from_service` |
//! | `istio_in_guard(d)` | Svc | Istio | some ALLOW ingress AuthorizationPolicy targets `d` |
//! | `istio_eg_deny(s, p)` | Svc×Port | Istio | Fig. 5's `deny_to_ports` |
//! | `istio_eg_allow(s, p)` | Svc×Port | Istio | Fig. 5's `allow_to_ports` |
//! | `istio_eg_guard(s)` | Svc | Istio | some ALLOW egress AuthorizationPolicy targets `s` |
//!
//! A flow `(src, dst, dport)` is **allowed** iff `listens(dst, dport)`
//! holds, no deny relation matches, and each active guard is backed by a
//! matching allow tuple — see [`MeshVocab::allowed_formula`]. This is the
//! same decision procedure as [`crate::dataplane::evaluate_flow`];
//! integration tests check the two differentially on random
//! configurations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use muppet_logic::{
    AtomId, Domain, Formula, Instance, PartyId, RelDecl, RelId, SortId, Term, Universe,
    Vocabulary,
};

use crate::policy::{Action, AuthorizationPolicy, Direction, MtlsMode, NetworkPolicy, PeerAuthentication};
use crate::service::{Mesh, Selector};

/// Errors from compiling policies into relation tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// A policy mentions a port that is outside the declared port
    /// universe. The caller must list every port its policies and goals
    /// touch when constructing [`MeshVocab`].
    UnknownPort(u16),
    /// A rule uses a feature outside the modeled subset (e.g. port
    /// constraints on an Istio ingress rule).
    OutsideModeledSubset(String),
    /// A rule names a service that is not in the mesh.
    UnknownService(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnknownPort(p) => {
                write!(f, "port {p} is not in the declared port universe")
            }
            EncodeError::OutsideModeledSubset(m) => write!(f, "outside the modeled subset: {m}"),
            EncodeError::UnknownService(s) => write!(f, "unknown service {s:?}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The relations of the optional mTLS extension.
#[derive(Clone, Copy, Debug)]
pub struct MtlsRels {
    /// `mtls_strict(Service)` — Istio-owned: a strict PeerAuthentication
    /// policy selects the service.
    pub strict: RelId,
    /// `has_sidecar(Service)` — shared structure: the workload runs a
    /// sidecar proxy and can originate mTLS.
    pub sidecar: RelId,
}

/// The complete logical vocabulary of the mesh domain.
///
/// Owns the [`Universe`] (service and port atoms), the [`Vocabulary`]
/// (relations with party ownership and English templates), and the
/// compile/decompile maps.
#[derive(Debug)]
pub struct MeshVocab {
    /// The finite universe: one atom per service, one per port.
    pub universe: Universe,
    /// Relation declarations.
    pub vocab: Vocabulary,
    /// The `Service` sort.
    pub svc_sort: SortId,
    /// The `Port` sort.
    pub port_sort: SortId,
    /// Which party owns the K8s relations.
    pub k8s_party: PartyId,
    /// Which party owns the Istio relations.
    pub istio_party: PartyId,
    /// `listens(Service, Port)` — Istio-owned service port exposure.
    pub listens: RelId,
    /// K8s ingress deny `(dst, src, port)`.
    pub k8s_in_deny: RelId,
    /// K8s ingress allow `(dst, src, port)`.
    pub k8s_in_allow: RelId,
    /// K8s ingress guard `(dst)`.
    pub k8s_in_guard: RelId,
    /// K8s egress deny `(src, dst, port)`.
    pub k8s_eg_deny: RelId,
    /// K8s egress allow `(src, dst, port)`.
    pub k8s_eg_allow: RelId,
    /// K8s egress guard `(src)`.
    pub k8s_eg_guard: RelId,
    /// Istio ingress deny `(dst, src)`.
    pub istio_in_deny: RelId,
    /// Istio ingress allow `(dst, src)`.
    pub istio_in_allow: RelId,
    /// Istio ingress guard `(dst)`.
    pub istio_in_guard: RelId,
    /// Istio egress deny `(src, port)`.
    pub istio_eg_deny: RelId,
    /// Istio egress allow `(src, port)`.
    pub istio_eg_allow: RelId,
    /// Istio egress guard `(src)`.
    pub istio_eg_guard: RelId,
    /// The optional mTLS extension relations (Sec. 7 authentication).
    pub mtls: Option<MtlsRels>,
    svc_atoms: BTreeMap<String, AtomId>,
    port_atoms: BTreeMap<u16, AtomId>,
    mesh: Mesh,
}

impl MeshVocab {
    /// Build the vocabulary for a mesh.
    ///
    /// `extra_ports` must include every port mentioned by policies or
    /// goals that no service listens on, plus any spare ports the
    /// synthesizer may pick for existential goals (Fig. 4's `∃w` ports).
    pub fn new(
        mesh: &Mesh,
        extra_ports: impl IntoIterator<Item = u16>,
        k8s_party: PartyId,
        istio_party: PartyId,
    ) -> MeshVocab {
        MeshVocab::new_with_features(mesh, extra_ports, k8s_party, istio_party, false)
    }

    /// [`MeshVocab::new`] with the mTLS extension (Sec. 7
    /// authentication) enabled or disabled. The paper's Fig. 5 envelope
    /// predates the extension, so [`MeshVocab::paper_example`] leaves it
    /// off; `with_mtls = true` adds the `mtls_strict`/`has_sidecar`
    /// relations and a transport-layer conjunct to `allowed`.
    pub fn new_with_features(
        mesh: &Mesh,
        extra_ports: impl IntoIterator<Item = u16>,
        k8s_party: PartyId,
        istio_party: PartyId,
        with_mtls: bool,
    ) -> MeshVocab {
        assert_ne!(k8s_party, istio_party, "parties must be distinct");
        let mut universe = Universe::new();
        let svc_sort = universe.add_sort("Service");
        let port_sort = universe.add_sort("Port");
        let mut svc_atoms = BTreeMap::new();
        for s in mesh.services() {
            svc_atoms.insert(s.name.clone(), universe.add_atom(svc_sort, s.name.clone()));
        }
        let mut ports: BTreeSet<u16> = mesh.all_ports();
        ports.extend(extra_ports);
        let mut port_atoms = BTreeMap::new();
        for p in ports {
            port_atoms.insert(p, universe.add_atom(port_sort, p.to_string()));
        }

        let mut vocab = Vocabulary::new();
        let k8s = Domain::Party(k8s_party);
        let istio = Domain::Party(istio_party);
        // `listens` is owned by the Istio/mesh party: service port
        // exposure is a deployment decision the mesh administrator can
        // revise. This is what lets Fig. 4's synthesizer "choose up to
        // four different ports" and makes Fig. 5's disjunct (1) — "the
        // destination service does not listen on port 23" — an option in
        // the Istio administrator's hands.
        let listens = vocab.add_rel(RelDecl {
            name: "listens".into(),
            arg_sorts: vec![svc_sort, port_sort],
            owner: istio,
            english: "{0} listens on port {1}".into(),
            english_neg: "{0} does not listen on port {1}".into(),
        });
        let k8s_in_deny = vocab.add_rel(RelDecl {
            name: "k8s_in_deny".into(),
            arg_sorts: vec![svc_sort, svc_sort, port_sort],
            owner: k8s,
            english: "a K8s ingress rule denies {0} traffic from {1} on port {2}".into(),
            english_neg: "no K8s ingress rule denies {0} traffic from {1} on port {2}".into(),
        });
        let k8s_in_allow = vocab.add_rel(RelDecl {
            name: "k8s_in_allow".into(),
            arg_sorts: vec![svc_sort, svc_sort, port_sort],
            owner: k8s,
            english: "a K8s ingress rule allows {0} traffic from {1} on port {2}".into(),
            english_neg: "no K8s ingress rule allows {0} traffic from {1} on port {2}".into(),
        });
        let k8s_in_guard = vocab.add_rel(RelDecl {
            name: "k8s_in_guard".into(),
            arg_sorts: vec![svc_sort],
            owner: k8s,
            english: "some K8s allow-policy governs ingress to {0}".into(),
            english_neg: "no K8s allow-policy governs ingress to {0}".into(),
        });
        let k8s_eg_deny = vocab.add_rel(RelDecl {
            name: "k8s_eg_deny".into(),
            arg_sorts: vec![svc_sort, svc_sort, port_sort],
            owner: k8s,
            english: "a K8s egress rule denies {0} traffic to {1} on port {2}".into(),
            english_neg: "no K8s egress rule denies {0} traffic to {1} on port {2}".into(),
        });
        let k8s_eg_allow = vocab.add_rel(RelDecl {
            name: "k8s_eg_allow".into(),
            arg_sorts: vec![svc_sort, svc_sort, port_sort],
            owner: k8s,
            english: "a K8s egress rule allows {0} traffic to {1} on port {2}".into(),
            english_neg: "no K8s egress rule allows {0} traffic to {1} on port {2}".into(),
        });
        let k8s_eg_guard = vocab.add_rel(RelDecl {
            name: "k8s_eg_guard".into(),
            arg_sorts: vec![svc_sort],
            owner: k8s,
            english: "some K8s allow-policy governs egress from {0}".into(),
            english_neg: "no K8s allow-policy governs egress from {0}".into(),
        });
        let istio_in_deny = vocab.add_rel(RelDecl {
            name: "istio_in_deny".into(),
            arg_sorts: vec![svc_sort, svc_sort],
            owner: istio,
            english: "{0} is explicitly blocked from receiving from {1} by an ingress policy"
                .into(),
            english_neg: "no ingress policy blocks {0} from receiving from {1}".into(),
        });
        let istio_in_allow = vocab.add_rel(RelDecl {
            name: "istio_in_allow".into(),
            arg_sorts: vec![svc_sort, svc_sort],
            owner: istio,
            english: "{0} is explicitly allowed to receive from {1}".into(),
            english_neg: "{0} is not explicitly allowed to receive from {1}".into(),
        });
        let istio_in_guard = vocab.add_rel(RelDecl {
            name: "istio_in_guard".into(),
            arg_sorts: vec![svc_sort],
            owner: istio,
            english: "{0} is explicitly allowed to receive from some service".into(),
            english_neg: "{0} has no ingress allow policy".into(),
        });
        let istio_eg_deny = vocab.add_rel(RelDecl {
            name: "istio_eg_deny".into(),
            arg_sorts: vec![svc_sort, port_sort],
            owner: istio,
            english: "{0} is explicitly blocked from sending to port {1} by an egress policy"
                .into(),
            english_neg: "no egress policy blocks {0} from sending to port {1}".into(),
        });
        let istio_eg_allow = vocab.add_rel(RelDecl {
            name: "istio_eg_allow".into(),
            arg_sorts: vec![svc_sort, port_sort],
            owner: istio,
            english: "{0} is explicitly allowed to send to port {1}".into(),
            english_neg: "{0} is not explicitly allowed to send to port {1}".into(),
        });
        let istio_eg_guard = vocab.add_rel(RelDecl {
            name: "istio_eg_guard".into(),
            arg_sorts: vec![svc_sort],
            owner: istio,
            english: "{0} is explicitly allowed to send to some port".into(),
            english_neg: "{0} has no egress allow policy".into(),
        });
        let mtls = if with_mtls {
            let strict = vocab.add_rel(RelDecl {
                name: "mtls_strict".into(),
                arg_sorts: vec![svc_sort],
                owner: istio,
                english: "{0} requires strict mutual TLS".into(),
                english_neg: "{0} does not require strict mutual TLS".into(),
            });
            let sidecar = vocab.add_rel(RelDecl {
                name: "has_sidecar".into(),
                arg_sorts: vec![svc_sort],
                owner: Domain::Structure,
                english: "{0} runs a sidecar proxy".into(),
                english_neg: "{0} runs no sidecar proxy".into(),
            });
            Some(MtlsRels { strict, sidecar })
        } else {
            None
        };

        MeshVocab {
            universe,
            vocab,
            svc_sort,
            port_sort,
            k8s_party,
            istio_party,
            listens,
            k8s_in_deny,
            k8s_in_allow,
            k8s_in_guard,
            k8s_eg_deny,
            k8s_eg_allow,
            k8s_eg_guard,
            istio_in_deny,
            istio_in_allow,
            istio_in_guard,
            istio_eg_deny,
            istio_eg_allow,
            istio_eg_guard,
            mtls,
            svc_atoms,
            port_atoms,
            mesh: mesh.clone(),
        }
    }

    /// Vocabulary for the paper's example (Fig. 1 mesh, ports 23–26 and
    /// the four 1xxxx ports all present).
    pub fn paper_example() -> MeshVocab {
        MeshVocab::new(
            &Mesh::paper_example(),
            [24, 26, 10000, 14000],
            PartyId(0),
            PartyId(1),
        )
    }

    /// The mesh this vocabulary was built over.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The atom for a service name.
    pub fn svc_atom(&self, name: &str) -> Option<AtomId> {
        self.svc_atoms.get(name).copied()
    }

    /// The atom for a port.
    pub fn port_atom(&self, port: u16) -> Option<AtomId> {
        self.port_atoms.get(&port).copied()
    }

    /// All port numbers in the universe.
    pub fn ports(&self) -> impl Iterator<Item = u16> + '_ {
        self.port_atoms.keys().copied()
    }

    /// The port number of a port atom.
    pub fn port_of_atom(&self, atom: AtomId) -> Option<u16> {
        self.universe.atom_name(atom).parse().ok()
    }

    /// The relations owned by the K8s party.
    pub fn k8s_rels(&self) -> Vec<RelId> {
        vec![
            self.k8s_in_deny,
            self.k8s_in_allow,
            self.k8s_in_guard,
            self.k8s_eg_deny,
            self.k8s_eg_allow,
            self.k8s_eg_guard,
        ]
    }

    /// The relations owned by the Istio party (including `listens`:
    /// port exposure is a mesh-administrator decision — see the comment
    /// on the relation declaration).
    pub fn istio_rels(&self) -> Vec<RelId> {
        let mut rels = vec![
            self.listens,
            self.istio_in_deny,
            self.istio_in_allow,
            self.istio_in_guard,
            self.istio_eg_deny,
            self.istio_eg_allow,
            self.istio_eg_guard,
        ];
        if let Some(m) = self.mtls {
            rels.push(m.strict);
        }
        rels
    }

    /// The relations owned by a given party id.
    pub fn party_rels(&self, party: PartyId) -> Vec<RelId> {
        if party == self.k8s_party {
            self.k8s_rels()
        } else if party == self.istio_party {
            self.istio_rels()
        } else {
            Vec::new()
        }
    }

    /// The *current deployment* as an instance: `listens` tuples taken
    /// from the mesh's service definitions. Because `listens` is
    /// Istio-owned, this is the mesh administrator's starting
    /// configuration (and the natural target for minimal-edit queries),
    /// not immutable structure.
    pub fn structure_instance(&self) -> Instance {
        let mut inst = Instance::new();
        for s in self.mesh.services() {
            let sa = self.svc_atoms[&s.name];
            for &p in &s.ports {
                if let Some(&pa) = self.port_atoms.get(&p) {
                    inst.insert(self.listens, vec![sa, pa]);
                }
            }
            if let Some(m) = self.mtls {
                if s.sidecar {
                    inst.insert(m.sidecar, vec![sa]);
                }
            }
        }
        inst
    }

    /// The sidecar facts alone (mTLS extension), as fixed structure for
    /// solver queries. Empty when the extension is off.
    pub fn sidecar_instance(&self) -> Instance {
        let mut inst = Instance::new();
        if let Some(m) = self.mtls {
            for s in self.mesh.services() {
                if s.sidecar {
                    inst.insert(m.sidecar, vec![self.svc_atoms[&s.name]]);
                }
            }
        }
        inst
    }

    /// Compile PeerAuthentication policies (mTLS extension) into the
    /// `mtls_strict` table.
    pub fn compile_peer_auth(
        &self,
        policies: &[PeerAuthentication],
    ) -> Result<Instance, EncodeError> {
        let Some(m) = self.mtls else {
            return if policies.is_empty() {
                Ok(Instance::new())
            } else {
                Err(EncodeError::OutsideModeledSubset(
                    "PeerAuthentication requires a MeshVocab built with the mTLS \
                     extension (new_with_features)"
                        .into(),
                ))
            };
        };
        let mut inst = Instance::new();
        for p in policies {
            if p.mode == MtlsMode::Strict {
                for svc in self.mesh.select(&p.selector) {
                    inst.insert(m.strict, vec![self.svc_atoms[&svc.name]]);
                }
            }
        }
        Ok(inst)
    }

    /// Decompile the `mtls_strict` table back into PeerAuthentication
    /// objects (one per strict service).
    pub fn decompile_peer_auth(&self, inst: &Instance) -> Vec<PeerAuthentication> {
        let Some(m) = self.mtls else {
            return Vec::new();
        };
        self.mesh
            .services()
            .iter()
            .filter(|s| inst.holds(m.strict, &[self.svc_atoms[&s.name]]))
            .map(|s| PeerAuthentication {
                name: format!("synth-{}-mtls", s.name),
                selector: Selector::Name(s.name.clone()),
                mode: MtlsMode::Strict,
            })
            .collect()
    }

    /// Well-formedness axioms tying allow tuples to their guards:
    /// an allow tuple can only exist where some allow policy exists.
    /// Include these in every query so synthesized instances decompile
    /// faithfully into policy objects.
    pub fn well_formedness_axioms(&self, vocab: &mut Vocabulary) -> Vec<Formula> {
        let d = vocab.fresh_var();
        let s = vocab.fresh_var();
        let p = vocab.fresh_var();
        let sv = self.svc_sort;
        let po = self.port_sort;
        let tv = Term::Var;
        vec![
            Formula::forall(
                d,
                sv,
                Formula::forall(
                    s,
                    sv,
                    Formula::forall(
                        p,
                        po,
                        Formula::implies(
                            Formula::pred(self.k8s_in_allow, [tv(d), tv(s), tv(p)]),
                            Formula::pred(self.k8s_in_guard, [tv(d)]),
                        ),
                    ),
                ),
            ),
            Formula::forall(
                s,
                sv,
                Formula::forall(
                    d,
                    sv,
                    Formula::forall(
                        p,
                        po,
                        Formula::implies(
                            Formula::pred(self.k8s_eg_allow, [tv(s), tv(d), tv(p)]),
                            Formula::pred(self.k8s_eg_guard, [tv(s)]),
                        ),
                    ),
                ),
            ),
            Formula::forall(
                d,
                sv,
                Formula::forall(
                    s,
                    sv,
                    Formula::implies(
                        Formula::pred(self.istio_in_allow, [tv(d), tv(s)]),
                        Formula::pred(self.istio_in_guard, [tv(d)]),
                    ),
                ),
            ),
            Formula::forall(
                s,
                sv,
                Formula::forall(
                    p,
                    po,
                    Formula::implies(
                        Formula::pred(self.istio_eg_allow, [tv(s), tv(p)]),
                        Formula::pred(self.istio_eg_guard, [tv(s)]),
                    ),
                ),
            ),
        ]
    }

    /// The two-layer permit predicate: `allowed(src, dst, dport)` as a
    /// formula over the given terms. This is the semantics Muppet's goal
    /// translation "derived from documentation" (Sec. 4.3).
    pub fn allowed_formula(&self, src: Term, dst: Term, dport: Term) -> Formula {
        let mut parts = vec![
            Formula::pred(self.listens, [dst, dport]),
            // K8s ingress on dst.
            Formula::not(Formula::pred(self.k8s_in_deny, [dst, src, dport])),
            Formula::implies(
                Formula::pred(self.k8s_in_guard, [dst]),
                Formula::pred(self.k8s_in_allow, [dst, src, dport]),
            ),
            // K8s egress on src.
            Formula::not(Formula::pred(self.k8s_eg_deny, [src, dst, dport])),
            Formula::implies(
                Formula::pred(self.k8s_eg_guard, [src]),
                Formula::pred(self.k8s_eg_allow, [src, dst, dport]),
            ),
            // Istio ingress on dst (service-level, Fig. 5 disjuncts 4–5).
            Formula::not(Formula::pred(self.istio_in_deny, [dst, src])),
            Formula::implies(
                Formula::pred(self.istio_in_guard, [dst]),
                Formula::pred(self.istio_in_allow, [dst, src]),
            ),
            // Istio egress on src (port-level, Fig. 5 disjuncts 2–3).
            Formula::not(Formula::pred(self.istio_eg_deny, [src, dport])),
            Formula::implies(
                Formula::pred(self.istio_eg_guard, [src]),
                Formula::pred(self.istio_eg_allow, [src, dport]),
            ),
        ];
        if let Some(m) = self.mtls {
            // Transport layer (mTLS extension): a strict destination
            // requires a sidecar-capable source.
            parts.push(Formula::implies(
                Formula::pred(m.strict, [dst]),
                Formula::pred(m.sidecar, [src]),
            ));
        }
        Formula::and(parts)
    }

    fn expand_ports(
        &self,
        ports: &BTreeSet<u16>,
        ranges: &[(u16, u16)],
    ) -> Result<Vec<AtomId>, EncodeError> {
        if ports.is_empty() && ranges.is_empty() {
            return Ok(self.port_atoms.values().copied().collect());
        }
        let mut out: Vec<AtomId> = ports
            .iter()
            .map(|p| self.port_atoms.get(p).copied().ok_or(EncodeError::UnknownPort(*p)))
            .collect::<Result<_, _>>()?;
        // Ranges intersect with the finite port universe: ports inside
        // the range but outside the universe cannot affect any modeled
        // flow, so dropping them is sound (and they need no atoms).
        for &(lo, hi) in ranges {
            for (&p, &atom) in self.port_atoms.range(lo..=hi) {
                let _ = p;
                if !out.contains(&atom) {
                    out.push(atom);
                }
            }
        }
        Ok(out)
    }

    /// Compile K8s NetworkPolicies into their relation tables.
    pub fn compile_k8s(&self, policies: &[NetworkPolicy]) -> Result<Instance, EncodeError> {
        let mut inst = Instance::new();
        for p in policies {
            let selected = self.mesh.select(&p.selector);
            let (deny_rel, allow_rel, guard_rel) = match p.direction {
                Direction::Ingress => (self.k8s_in_deny, self.k8s_in_allow, self.k8s_in_guard),
                Direction::Egress => (self.k8s_eg_deny, self.k8s_eg_allow, self.k8s_eg_guard),
            };
            for svc in &selected {
                let sa = self.svc_atoms[&svc.name];
                if p.action == Action::Allow {
                    inst.insert(guard_rel, vec![sa]);
                }
                for rule in &p.rules {
                    let peers = self.mesh.select(&rule.peer);
                    let ports = self.expand_ports(&rule.ports, &rule.port_ranges)?;
                    for peer in &peers {
                        let qa = self.svc_atoms[&peer.name];
                        for &pa in &ports {
                            let rel = if p.action == Action::Deny { deny_rel } else { allow_rel };
                            inst.insert(rel, vec![sa, qa, pa]);
                        }
                    }
                }
            }
        }
        Ok(inst)
    }

    /// Compile Istio AuthorizationPolicies into their relation tables.
    ///
    /// Modeled-subset checks: ingress rules must be service-level (no
    /// port constraints); egress rules must be port-level (no service
    /// constraints) — the shape of the Fig. 5 envelope.
    pub fn compile_istio(
        &self,
        policies: &[AuthorizationPolicy],
    ) -> Result<Instance, EncodeError> {
        let mut inst = Instance::new();
        for p in policies {
            let selected = self.mesh.select(&p.selector);
            for svc in &selected {
                let sa = self.svc_atoms[&svc.name];
                match p.direction {
                    Direction::Ingress => {
                        if p.action == Action::Allow {
                            inst.insert(self.istio_in_guard, vec![sa]);
                        }
                        let rel = if p.action == Action::Deny {
                            self.istio_in_deny
                        } else {
                            self.istio_in_allow
                        };
                        for rule in &p.rules {
                            if !rule.ports.is_empty() {
                                return Err(EncodeError::OutsideModeledSubset(format!(
                                    "ingress AuthorizationPolicy {:?} constrains ports; the \
                                     modeled ingress subset is service-level",
                                    p.name
                                )));
                            }
                            for peer_name in &rule.services {
                                let qa = self
                                    .svc_atoms
                                    .get(peer_name)
                                    .copied()
                                    .ok_or_else(|| EncodeError::UnknownService(peer_name.clone()))?;
                                inst.insert(rel, vec![sa, qa]);
                            }
                            // Namespace sources expand to every service
                            // living in the namespace (selectors are
                            // structure, resolved at compile time).
                            for ns in &rule.namespaces {
                                for peer in self.mesh.services() {
                                    if &peer.namespace == ns {
                                        inst.insert(
                                            rel,
                                            vec![sa, self.svc_atoms[&peer.name]],
                                        );
                                    }
                                }
                            }
                        }
                    }
                    Direction::Egress => {
                        if p.action == Action::Allow {
                            inst.insert(self.istio_eg_guard, vec![sa]);
                        }
                        let rel = if p.action == Action::Deny {
                            self.istio_eg_deny
                        } else {
                            self.istio_eg_allow
                        };
                        for rule in &p.rules {
                            if !rule.services.is_empty() || !rule.namespaces.is_empty() {
                                return Err(EncodeError::OutsideModeledSubset(format!(
                                    "egress AuthorizationPolicy {:?} constrains sources; the \
                                     modeled egress subset is port-level",
                                    p.name
                                )));
                            }
                            for &port in &rule.ports {
                                let pa = self
                                    .port_atoms
                                    .get(&port)
                                    .copied()
                                    .ok_or(EncodeError::UnknownPort(port))?;
                                inst.insert(rel, vec![sa, pa]);
                            }
                        }
                    }
                }
            }
        }
        Ok(inst)
    }

    /// Decompile a K8s relation table back into NetworkPolicy objects:
    /// one policy per (service, direction, action) with concrete rules.
    /// Compile ∘ decompile is the identity on well-formed instances
    /// (tested).
    pub fn decompile_k8s(&self, inst: &Instance) -> Vec<NetworkPolicy> {
        let mut out = Vec::new();
        for svc in self.mesh.services() {
            let sa = self.svc_atoms[&svc.name];
            for (direction, deny_rel, allow_rel, guard_rel, dir_name) in [
                (
                    Direction::Ingress,
                    self.k8s_in_deny,
                    self.k8s_in_allow,
                    self.k8s_in_guard,
                    "ingress",
                ),
                (
                    Direction::Egress,
                    self.k8s_eg_deny,
                    self.k8s_eg_allow,
                    self.k8s_eg_guard,
                    "egress",
                ),
            ] {
                let deny_rules = self.k8s_rules_for(inst, deny_rel, sa);
                if !deny_rules.is_empty() {
                    out.push(NetworkPolicy {
                        name: format!("synth-{}-{}-deny", svc.name, dir_name),
                        selector: Selector::Name(svc.name.clone()),
                        direction,
                        action: Action::Deny,
                        rules: deny_rules,
                    });
                }
                if inst.holds(guard_rel, &[sa]) {
                    out.push(NetworkPolicy {
                        name: format!("synth-{}-{}-allow", svc.name, dir_name),
                        selector: Selector::Name(svc.name.clone()),
                        direction,
                        action: Action::Allow,
                        rules: self.k8s_rules_for(inst, allow_rel, sa),
                    });
                }
            }
        }
        out
    }

    fn k8s_rules_for(
        &self,
        inst: &Instance,
        rel: RelId,
        selected: AtomId,
    ) -> Vec<crate::policy::NetPolicyRule> {
        // Group tuples (selected, peer, port) by peer.
        let mut by_peer: BTreeMap<String, BTreeSet<u16>> = BTreeMap::new();
        for t in inst.tuples(rel) {
            if t[0] != selected {
                continue;
            }
            let peer = self.universe.atom_name(t[1]).to_string();
            let port: u16 = self
                .universe
                .atom_name(t[2])
                .parse()
                .expect("port atoms are numeric");
            by_peer.entry(peer).or_default().insert(port);
        }
        by_peer
            .into_iter()
            .map(|(peer, ports)| crate::policy::NetPolicyRule {
                peer: Selector::Name(peer),
                ports,
                port_ranges: Vec::new(),
            })
            .collect()
    }

    /// Decompile the `listens` table into an updated mesh: each service's
    /// port set becomes whatever the instance exposes. Used to turn a
    /// synthesized Istio configuration back into Service manifests.
    pub fn decompile_services(&self, inst: &Instance) -> Mesh {
        let mut mesh = self.mesh.clone();
        for svc in self.mesh.services() {
            let sa = self.svc_atoms[&svc.name];
            let ports: BTreeSet<u16> = inst
                .tuples(self.listens)
                .filter(|t| t[0] == sa)
                .map(|t| self.universe.atom_name(t[1]).parse().expect("numeric"))
                .collect();
            let mut updated = svc.clone();
            updated.ports = ports;
            mesh.add_service(updated);
        }
        mesh
    }

    /// Decompile an Istio relation table back into AuthorizationPolicy
    /// objects.
    pub fn decompile_istio(&self, inst: &Instance) -> Vec<AuthorizationPolicy> {
        let mut out = Vec::new();
        for svc in self.mesh.services() {
            let sa = self.svc_atoms[&svc.name];
            // Ingress: service-level rules.
            let deny_from: BTreeSet<String> = inst
                .tuples(self.istio_in_deny)
                .filter(|t| t[0] == sa)
                .map(|t| self.universe.atom_name(t[1]).to_string())
                .collect();
            if !deny_from.is_empty() {
                out.push(AuthorizationPolicy {
                    name: format!("synth-{}-ingress-deny", svc.name),
                    selector: Selector::Name(svc.name.clone()),
                    direction: Direction::Ingress,
                    action: Action::Deny,
                    rules: vec![crate::policy::AuthPolicyRule {
                        services: deny_from,
                        namespaces: BTreeSet::new(),
                        ports: BTreeSet::new(),
                    }],
                });
            }
            if inst.holds(self.istio_in_guard, &[sa]) {
                let allow_from: BTreeSet<String> = inst
                    .tuples(self.istio_in_allow)
                    .filter(|t| t[0] == sa)
                    .map(|t| self.universe.atom_name(t[1]).to_string())
                    .collect();
                let rules = if allow_from.is_empty() {
                    Vec::new()
                } else {
                    vec![crate::policy::AuthPolicyRule {
                        services: allow_from,
                        namespaces: BTreeSet::new(),
                        ports: BTreeSet::new(),
                    }]
                };
                out.push(AuthorizationPolicy {
                    name: format!("synth-{}-ingress-allow", svc.name),
                    selector: Selector::Name(svc.name.clone()),
                    direction: Direction::Ingress,
                    action: Action::Allow,
                    rules,
                });
            }
            // Egress: port-level rules.
            let deny_to: BTreeSet<u16> = inst
                .tuples(self.istio_eg_deny)
                .filter(|t| t[0] == sa)
                .map(|t| self.universe.atom_name(t[1]).parse().expect("numeric"))
                .collect();
            if !deny_to.is_empty() {
                out.push(AuthorizationPolicy {
                    name: format!("synth-{}-egress-deny", svc.name),
                    selector: Selector::Name(svc.name.clone()),
                    direction: Direction::Egress,
                    action: Action::Deny,
                    rules: vec![crate::policy::AuthPolicyRule {
                        services: BTreeSet::new(),
                        namespaces: BTreeSet::new(),
                        ports: deny_to,
                    }],
                });
            }
            if inst.holds(self.istio_eg_guard, &[sa]) {
                let allow_to: BTreeSet<u16> = inst
                    .tuples(self.istio_eg_allow)
                    .filter(|t| t[0] == sa)
                    .map(|t| self.universe.atom_name(t[1]).parse().expect("numeric"))
                    .collect();
                let rules = if allow_to.is_empty() {
                    Vec::new()
                } else {
                    vec![crate::policy::AuthPolicyRule {
                        services: BTreeSet::new(),
                        namespaces: BTreeSet::new(),
                        ports: allow_to,
                    }]
                };
                out.push(AuthorizationPolicy {
                    name: format!("synth-{}-egress-allow", svc.name),
                    selector: Selector::Name(svc.name.clone()),
                    direction: Direction::Egress,
                    action: Action::Allow,
                    rules,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AuthPolicyRule, NetPolicyRule};
    use muppet_logic::evaluate_closed;

    fn vocab() -> MeshVocab {
        MeshVocab::paper_example()
    }

    #[test]
    fn universe_covers_services_and_ports() {
        let mv = vocab();
        for name in ["test-frontend", "test-backend", "test-db"] {
            assert!(mv.svc_atom(name).is_some());
        }
        for p in [23u16, 24, 25, 26, 10000, 12000, 14000, 16000] {
            assert!(mv.port_atom(p).is_some(), "port {p}");
        }
        assert!(mv.port_atom(9999).is_none());
        let a = mv.port_atom(12000).unwrap();
        assert_eq!(mv.port_of_atom(a), Some(12000));
    }

    #[test]
    fn structure_instance_lists_listening_ports() {
        let mv = vocab();
        let st = mv.structure_instance();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        let p25 = mv.port_atom(25).unwrap();
        assert!(st.holds(mv.listens, &[fe, p23]));
        assert!(!st.holds(mv.listens, &[fe, p25]));
    }

    #[test]
    fn compile_k8s_global_deny() {
        let mv = vocab();
        let ban = NetworkPolicy::deny_port_for_all("ban23", 23);
        let inst = mv.compile_k8s(&[ban]).unwrap();
        let p23 = mv.port_atom(23).unwrap();
        // Every (dst, src) pair gets a deny tuple on port 23; no guards.
        for d in ["test-frontend", "test-backend", "test-db"] {
            let da = mv.svc_atom(d).unwrap();
            assert!(!inst.holds(mv.k8s_in_guard, &[da]));
            for s in ["test-frontend", "test-backend", "test-db"] {
                let sa = mv.svc_atom(s).unwrap();
                assert!(inst.holds(mv.k8s_in_deny, &[da, sa, p23]));
            }
        }
        assert_eq!(inst.count(mv.k8s_in_deny), 9);
        assert_eq!(inst.count(mv.k8s_eg_deny), 0);
    }

    #[test]
    fn compile_expands_port_ranges_within_the_universe() {
        let mv = vocab();
        // Range 20..30 covers universe ports 23, 24, 25, 26.
        let p = NetworkPolicy {
            name: "range-ban".into(),
            selector: Selector::All,
            direction: Direction::Ingress,
            action: Action::Deny,
            rules: vec![NetPolicyRule::any_peer_range(20, 30)],
        };
        let inst = mv.compile_k8s(std::slice::from_ref(&p)).unwrap();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        for port in [23u16, 24, 25, 26] {
            let pa = mv.port_atom(port).unwrap();
            assert!(inst.holds(mv.k8s_in_deny, &[fe, be, pa]), "port {port}");
        }
        // Ports outside the range (or universe) are untouched.
        let p12000 = mv.port_atom(12000).unwrap();
        assert!(!inst.holds(mv.k8s_in_deny, &[fe, be, p12000]));
        // Dataplane agreement on every universe port.
        let mesh = mv.mesh().clone();
        let st = mv.structure_instance().union(&inst);
        for port in mv.ports() {
            for src in mesh.services() {
                for dst in mesh.services() {
                    let plane = crate::dataplane::evaluate_flow(
                        &mesh,
                        std::slice::from_ref(&p),
                        &[],
                        &crate::dataplane::Flow::new(src.name.clone(), dst.name.clone(), 0, port),
                    )
                    .allowed;
                    let f = mv.allowed_formula(
                        muppet_logic::Term::Const(mv.svc_atom(&src.name).unwrap()),
                        muppet_logic::Term::Const(mv.svc_atom(&dst.name).unwrap()),
                        muppet_logic::Term::Const(mv.port_atom(port).unwrap()),
                    );
                    let logic = muppet_logic::evaluate_closed(&f, &st, &mv.universe).unwrap();
                    assert_eq!(plane, logic, "{} → {}:{port}", src.name, dst.name);
                }
            }
        }
    }

    #[test]
    fn compile_k8s_allow_sets_guard() {
        let mv = vocab();
        let allow = NetworkPolicy {
            name: "allow".into(),
            selector: Selector::Name("test-backend".into()),
            direction: Direction::Ingress,
            action: Action::Allow,
            rules: vec![NetPolicyRule {
                peer: Selector::Name("test-frontend".into()),
                ports: [25].into_iter().collect(),
                port_ranges: Vec::new(),
            }],
        };
        let inst = mv.compile_k8s(&[allow]).unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let p25 = mv.port_atom(25).unwrap();
        assert!(inst.holds(mv.k8s_in_guard, &[be]));
        assert!(inst.holds(mv.k8s_in_allow, &[be, fe, p25]));
        assert_eq!(inst.count(mv.k8s_in_allow), 1);
    }

    #[test]
    fn compile_istio_both_directions() {
        let mv = vocab();
        let ingress = AuthorizationPolicy {
            name: "in".into(),
            selector: Selector::Name("test-frontend".into()),
            direction: Direction::Ingress,
            action: Action::Allow,
            rules: vec![AuthPolicyRule::from_services(["test-backend"])],
        };
        let egress = AuthorizationPolicy {
            name: "eg".into(),
            selector: Selector::Name("test-backend".into()),
            direction: Direction::Egress,
            action: Action::Deny,
            rules: vec![AuthPolicyRule::to_ports([23])],
        };
        let inst = mv.compile_istio(&[ingress, egress]).unwrap();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        assert!(inst.holds(mv.istio_in_guard, &[fe]));
        assert!(inst.holds(mv.istio_in_allow, &[fe, be]));
        assert!(inst.holds(mv.istio_eg_deny, &[be, p23]));
        assert!(!inst.holds(mv.istio_eg_guard, &[be])); // deny sets no guard
    }

    #[test]
    fn compile_rejects_out_of_subset_and_unknowns() {
        let mv = vocab();
        let bad_ingress = AuthorizationPolicy {
            name: "bad".into(),
            selector: Selector::All,
            direction: Direction::Ingress,
            action: Action::Allow,
            rules: vec![AuthPolicyRule::to_ports([25])],
        };
        assert!(matches!(
            mv.compile_istio(&[bad_ingress]),
            Err(EncodeError::OutsideModeledSubset(_))
        ));
        let bad_egress = AuthorizationPolicy {
            name: "bad2".into(),
            selector: Selector::All,
            direction: Direction::Egress,
            action: Action::Allow,
            rules: vec![AuthPolicyRule::from_services(["x"])],
        };
        assert!(matches!(
            mv.compile_istio(&[bad_egress]),
            Err(EncodeError::OutsideModeledSubset(_))
        ));
        let ghost = AuthorizationPolicy {
            name: "ghost".into(),
            selector: Selector::All,
            direction: Direction::Ingress,
            action: Action::Allow,
            rules: vec![AuthPolicyRule::from_services(["no-such-svc"])],
        };
        assert!(matches!(
            mv.compile_istio(&[ghost]),
            Err(EncodeError::UnknownService(_))
        ));
        let bad_port = NetworkPolicy {
            name: "p".into(),
            selector: Selector::All,
            direction: Direction::Ingress,
            action: Action::Deny,
            rules: vec![NetPolicyRule::any_peer([40000])],
        };
        assert!(matches!(
            mv.compile_k8s(&[bad_port]),
            Err(EncodeError::UnknownPort(40000))
        ));
    }

    #[test]
    fn allowed_formula_matches_open_mesh() {
        let mut mv = vocab();
        let st = mv.structure_instance();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        let p25 = mv.port_atom(25).unwrap();
        let f = mv.allowed_formula(Term::Const(be), Term::Const(fe), Term::Const(p23));
        assert!(evaluate_closed(&f, &st, &mv.universe).unwrap());
        // Frontend does not listen on 25.
        let f = mv.allowed_formula(Term::Const(be), Term::Const(fe), Term::Const(p25));
        assert!(!evaluate_closed(&f, &st, &mv.universe).unwrap());
        let _ = mv.vocab.fresh_var();
    }

    #[test]
    fn allowed_formula_respects_layers() {
        let mv = vocab();
        let st = mv.structure_instance();
        let ban = mv
            .compile_k8s(&[NetworkPolicy::deny_port_for_all("ban", 23)])
            .unwrap();
        let fe = mv.svc_atom("test-frontend").unwrap();
        let be = mv.svc_atom("test-backend").unwrap();
        let p23 = mv.port_atom(23).unwrap();
        let combined = st.union(&ban);
        let f = mv.allowed_formula(Term::Const(be), Term::Const(fe), Term::Const(p23));
        assert!(!evaluate_closed(&f, &combined, &mv.universe).unwrap());
    }

    #[test]
    fn k8s_roundtrip_compile_decompile() {
        let mv = vocab();
        let policies = vec![
            NetworkPolicy::deny_port_for_all("ban23", 23),
            NetworkPolicy {
                name: "allow-be".into(),
                selector: Selector::Name("test-backend".into()),
                direction: Direction::Ingress,
                action: Action::Allow,
                rules: vec![NetPolicyRule {
                    peer: Selector::Name("test-frontend".into()),
                    ports: [25].into_iter().collect(),
                    port_ranges: Vec::new(),
                }],
            },
        ];
        let inst = mv.compile_k8s(&policies).unwrap();
        let decompiled = mv.decompile_k8s(&inst);
        let inst2 = mv.compile_k8s(&decompiled).unwrap();
        assert_eq!(inst, inst2);
    }

    #[test]
    fn istio_roundtrip_compile_decompile() {
        let mv = vocab();
        let policies = vec![
            AuthorizationPolicy {
                name: "in-allow".into(),
                selector: Selector::Name("test-frontend".into()),
                direction: Direction::Ingress,
                action: Action::Allow,
                rules: vec![AuthPolicyRule::from_services(["test-backend"])],
            },
            AuthorizationPolicy {
                name: "eg-deny".into(),
                selector: Selector::Name("test-db".into()),
                direction: Direction::Egress,
                action: Action::Deny,
                rules: vec![AuthPolicyRule::to_ports([23, 25])],
            },
            // Allow policy with no rules: guard only (deny-everything).
            AuthorizationPolicy {
                name: "lockdown".into(),
                selector: Selector::Name("test-db".into()),
                direction: Direction::Ingress,
                action: Action::Allow,
                rules: vec![],
            },
        ];
        let inst = mv.compile_istio(&policies).unwrap();
        let decompiled = mv.decompile_istio(&inst);
        let inst2 = mv.compile_istio(&decompiled).unwrap();
        assert_eq!(inst, inst2);
    }

    #[test]
    fn party_rel_ownership() {
        let mv = vocab();
        for r in mv.k8s_rels() {
            assert_eq!(mv.vocab.rel(r).owner, Domain::Party(mv.k8s_party));
        }
        for r in mv.istio_rels() {
            assert_eq!(mv.vocab.rel(r).owner, Domain::Party(mv.istio_party));
        }
        assert_eq!(
            mv.vocab.rel(mv.listens).owner,
            Domain::Party(mv.istio_party)
        );
        assert_eq!(mv.party_rels(PartyId(7)), Vec::new());
    }
}
