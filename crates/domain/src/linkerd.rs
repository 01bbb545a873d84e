//! The Linkerd policy domain: `Server` / `ServerAuthorization`
//! (policy.linkerd.io) for the mesh administrator, with Istio
//! `PeerAuthentication` mTLS and `Sidecar` egress allowlists for the
//! platform administrator.
//!
//! This is a genuinely different policy semantics from the K8s/Istio
//! [`crate::mesh`] domain — not a rename:
//!
//! * Linkerd is **default-deny once modeled**: a flow needs an explicit
//!   `Server` on the destination port *and* a `ServerAuthorization`
//!   admitting the client. There is no "no policy ⇒ open" disjunct.
//! * Egress is a **destination allowlist** (`Sidecar` hosts), not
//!   port-based rules.
//! * mTLS is owned by the *platform* party (in the mesh domain the
//!   Istio party owns it) and interacts with structural mesh
//!   membership: `STRICT` destinations only accept meshed sources.
//!
//! `allowed(src, dst, p)` ⇔ `listens(dst, p) ∧ srv(dst, p) ∧ saz(src,
//! dst) ∧ (eg_guard(src) ⇒ eg_allow(src, dst)) ∧ (mtls_strict(dst) ⇒
//! meshed(src))`.
//!
//! The goal tables are the goal language of `muppet_goals`, which
//! translates them through this domain's `allowed`:
//! [`LinkerdVocab`] implements [`GoalVocab`] over the mesh crate's
//! [`ServiceUniverse`]. The platform table is `port,perm,selector`,
//! whose `DENY` / `ALLOW` rows are the shared K8s rows (named `platform
//! goal N`) and whose `MTLS` rows are this domain's own; the Linkerd
//! table is the shared reachability table
//! `srcService,dstService,srcPort,dstPort` with the paper's Fig. 4
//! `?var` existential ports (named `linkerd goal N`).

use std::collections::BTreeMap;
use std::ops::Deref;

use muppet::NamedGoal;
use muppet_goals::{GoalParseError, GoalVocab, IstioGoal, K8sGoal, NamedFormula};
use muppet_logic::{
    simplify, AtomId, Domain, Formula, Instance, PartyId, RelDecl, RelId, Term, Vocabulary,
};
use muppet_mesh::manifest::{
    emit_peer_authentication, emit_service, parse_peer_authentication, parse_service,
    selector_yaml,
};
use muppet_mesh::{Mesh, MtlsMode, PeerAuthentication, Selector, ServiceUniverse};
use muppet_yaml::{parse_documents, Yaml};

use crate::{ConfigDomain, DomainInput, DomainModel, DomainParty};

/// A Linkerd `Server` (policy.linkerd.io/v1beta1): marks a workload
/// port as policy-bearing. Without a matching `ServerAuthorization`, a
/// `Server`'s traffic is denied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Server {
    /// `metadata.name`.
    pub name: String,
    /// `spec.podSelector` (workloads this server covers).
    pub selector: Selector,
    /// `spec.port`.
    pub port: u16,
}

/// Who a [`ServerAuthorization`] admits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Clients {
    /// `spec.client.unauthenticated: true` — any client.
    Unauthenticated,
    /// `spec.client.meshTLS.serviceAccounts` — the named services.
    Services(Vec<String>),
}

/// A Linkerd `ServerAuthorization` (policy.linkerd.io/v1beta1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerAuthorization {
    /// `metadata.name`.
    pub name: String,
    /// `spec.server.name` — the [`Server`] this authorization attaches to.
    pub server: String,
    /// Admitted clients.
    pub clients: Clients,
}

/// An Istio `Sidecar` egress allowlist (networking.istio.io): workloads
/// selected by `selector` may only open connections to the listed
/// destination services.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SidecarPolicy {
    /// `metadata.name`.
    pub name: String,
    /// `spec.workloadSelector` (missing ⇒ all workloads).
    pub selector: Selector,
    /// Destination service names from `spec.egress[].hosts` (`./<svc>`
    /// entries; `*/*` means unrestricted and yields every service).
    pub hosts: Vec<String>,
}

/// Everything found in a Linkerd-domain manifest stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkerdBundle {
    /// Structure: services, ports, mesh membership (`linkerd.io/inject`).
    pub mesh: Mesh,
    /// Linkerd `Server` documents.
    pub servers: Vec<Server>,
    /// Linkerd `ServerAuthorization` documents.
    pub authorizations: Vec<ServerAuthorization>,
    /// Istio `Sidecar` egress documents (platform-owned).
    pub sidecars: Vec<SidecarPolicy>,
    /// Istio `PeerAuthentication` documents (platform-owned).
    pub peer_auth: Vec<PeerAuthentication>,
}

fn invalid(msg: impl Into<String>) -> String {
    format!("invalid manifest: {}", msg.into())
}

fn metadata_name(doc: &Yaml) -> Result<String, String> {
    doc.get_path(&["metadata", "name"])
        .and_then(Yaml::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid("missing metadata.name"))
}

/// `podSelector` / `workloadSelector` → [`Selector`]: absent or empty
/// selects everything; `matchLabels` / `labels` maps select by label.
fn parse_label_selector(node: Option<&Yaml>, keys: &[&str]) -> Result<Selector, String> {
    let Some(node) = node else {
        return Ok(Selector::All);
    };
    if node.is_null() {
        return Ok(Selector::All);
    }
    let mut labels = None;
    for key in keys {
        if let Some(m) = node.get(key) {
            labels = Some(m);
            break;
        }
    }
    let Some(labels) = labels else {
        return Ok(Selector::All);
    };
    let pairs = labels
        .as_map()
        .ok_or_else(|| invalid("selector labels must be a mapping"))?;
    match pairs.len() {
        0 => Ok(Selector::All),
        1 => {
            let (k, v) = &pairs[0];
            let v = v
                .as_scalar_string()
                .ok_or_else(|| invalid(format!("label {k:?} must be a scalar")))?;
            Ok(Selector::label(k.clone(), v))
        }
        _ => Err(invalid("modeled subset: at most one selector label")),
    }
}

fn parse_server(doc: &Yaml) -> Result<Server, String> {
    let name = metadata_name(doc)?;
    let selector = parse_label_selector(doc.get_path(&["spec", "podSelector"]), &["matchLabels"])?;
    let port = doc
        .get_path(&["spec", "port"])
        .and_then(Yaml::as_i64)
        .filter(|&p| p > 0 && p <= i64::from(u16::MAX))
        .ok_or_else(|| invalid(format!("Server {name:?} needs a numeric spec.port")))?;
    Ok(Server {
        name,
        selector,
        port: port as u16,
    })
}

fn parse_server_authorization(doc: &Yaml) -> Result<ServerAuthorization, String> {
    let name = metadata_name(doc)?;
    let server = doc
        .get_path(&["spec", "server", "name"])
        .and_then(Yaml::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(format!("ServerAuthorization {name:?} needs spec.server.name")))?;
    let client = doc
        .get_path(&["spec", "client"])
        .ok_or_else(|| invalid(format!("ServerAuthorization {name:?} needs spec.client")))?;
    let clients = if client
        .get("unauthenticated")
        .and_then(Yaml::as_bool)
        .unwrap_or(false)
    {
        Clients::Unauthenticated
    } else {
        let accounts = client
            .get_path(&["meshTLS", "serviceAccounts"])
            .and_then(Yaml::as_seq)
            .ok_or_else(|| {
                invalid(format!(
                    "ServerAuthorization {name:?} needs client.unauthenticated or \
                     client.meshTLS.serviceAccounts"
                ))
            })?;
        let mut svcs = Vec::new();
        for a in accounts {
            let n = a
                .get("name")
                .and_then(Yaml::as_str)
                .or_else(|| a.as_str())
                .ok_or_else(|| invalid("serviceAccounts entries need a name"))?;
            // SPIFFE-style identities keep only the trailing segment.
            svcs.push(n.rsplit('/').next().unwrap_or(n).to_string());
        }
        Clients::Services(svcs)
    };
    Ok(ServerAuthorization {
        name,
        server,
        clients,
    })
}

fn parse_sidecar(doc: &Yaml) -> Result<SidecarPolicy, String> {
    let name = metadata_name(doc)?;
    let selector =
        parse_label_selector(doc.get_path(&["spec", "workloadSelector"]), &["labels"])?;
    let mut hosts = Vec::new();
    let egress = doc
        .get_path(&["spec", "egress"])
        .and_then(Yaml::as_seq)
        .ok_or_else(|| invalid(format!("Sidecar {name:?} needs spec.egress")))?;
    for entry in egress {
        let Some(hs) = entry.get("hosts").and_then(Yaml::as_seq) else {
            continue;
        };
        for h in hs {
            let h = h
                .as_str()
                .ok_or_else(|| invalid("egress hosts must be strings"))?;
            hosts.push(h.to_string());
        }
    }
    Ok(SidecarPolicy {
        name,
        selector,
        hosts,
    })
}

/// Parse a multi-document Linkerd-domain manifest stream, dispatching on
/// `kind`. Unknown kinds are errors (same contract as the mesh domain).
pub fn parse_linkerd_manifests(input: &str) -> Result<LinkerdBundle, String> {
    let mut bundle = LinkerdBundle::default();
    for doc in parse_documents(input).map_err(|e| e.to_string())? {
        match doc.get("kind").and_then(Yaml::as_str) {
            Some("Service") => {
                let mut svc = parse_service(&doc).map_err(|e| e.to_string())?;
                // Mesh membership: `linkerd.io/inject: disabled` opts a
                // workload out (everything else is injected).
                if doc
                    .get_path(&["metadata", "annotations", "linkerd.io/inject"])
                    .and_then(Yaml::as_str)
                    == Some("disabled")
                {
                    svc = svc.without_sidecar();
                }
                bundle.mesh.add_service(svc);
            }
            Some("Server") => bundle.servers.push(parse_server(&doc)?),
            Some("ServerAuthorization") => {
                bundle.authorizations.push(parse_server_authorization(&doc)?)
            }
            Some("Sidecar") => bundle.sidecars.push(parse_sidecar(&doc)?),
            Some("PeerAuthentication") => bundle
                .peer_auth
                .push(parse_peer_authentication(&doc).map_err(|e| e.to_string())?),
            Some(other) => return Err(invalid(format!("unsupported kind {other:?}"))),
            None => return Err(invalid("document without a kind")),
        }
    }
    Ok(bundle)
}

/// Emit a [`Server`] document.
pub fn emit_server(s: &Server) -> String {
    muppet_yaml::emit(&Yaml::map([
        ("apiVersion".to_string(), Yaml::str("policy.linkerd.io/v1beta1")),
        ("kind".to_string(), Yaml::str("Server")),
        (
            "metadata".to_string(),
            Yaml::map([("name".to_string(), Yaml::str(s.name.clone()))]),
        ),
        (
            "spec".to_string(),
            Yaml::map([
                ("podSelector".to_string(), selector_yaml(&s.selector, "matchLabels")),
                ("port".to_string(), Yaml::Int(i64::from(s.port))),
            ]),
        ),
    ]))
}

/// Emit a [`ServerAuthorization`] document.
pub fn emit_server_authorization(a: &ServerAuthorization) -> String {
    let client = match &a.clients {
        Clients::Unauthenticated => Yaml::map([("unauthenticated".to_string(), Yaml::Bool(true))]),
        Clients::Services(svcs) => Yaml::map([(
            "meshTLS".to_string(),
            Yaml::map([(
                "serviceAccounts".to_string(),
                Yaml::Seq(
                    svcs.iter()
                        .map(|s| Yaml::map([("name".to_string(), Yaml::str(s.clone()))]))
                        .collect(),
                ),
            )]),
        )]),
    };
    muppet_yaml::emit(&Yaml::map([
        ("apiVersion".to_string(), Yaml::str("policy.linkerd.io/v1beta1")),
        ("kind".to_string(), Yaml::str("ServerAuthorization")),
        (
            "metadata".to_string(),
            Yaml::map([("name".to_string(), Yaml::str(a.name.clone()))]),
        ),
        (
            "spec".to_string(),
            Yaml::map([
                (
                    "server".to_string(),
                    Yaml::map([("name".to_string(), Yaml::str(a.server.clone()))]),
                ),
                ("client".to_string(), client),
            ]),
        ),
    ]))
}

/// Emit a [`SidecarPolicy`] document.
pub fn emit_sidecar(s: &SidecarPolicy) -> String {
    let mut spec = Vec::new();
    if s.selector != Selector::All {
        spec.push((
            "workloadSelector".to_string(),
            selector_yaml(&s.selector, "labels"),
        ));
    }
    spec.push((
        "egress".to_string(),
        Yaml::Seq(vec![Yaml::map([(
            "hosts".to_string(),
            Yaml::Seq(s.hosts.iter().map(|h| Yaml::str(h.clone())).collect()),
        )])]),
    ));
    muppet_yaml::emit(&Yaml::map([
        ("apiVersion".to_string(), Yaml::str("networking.istio.io/v1alpha3")),
        ("kind".to_string(), Yaml::str("Sidecar")),
        (
            "metadata".to_string(),
            Yaml::map([("name".to_string(), Yaml::str(s.name.clone()))]),
        ),
        ("spec".to_string(), Yaml::map(spec)),
    ]))
}

/// Emit a whole [`LinkerdBundle`] as a `---`-separated stream that
/// [`parse_linkerd_manifests`] round-trips.
pub fn emit_linkerd_bundle(bundle: &LinkerdBundle) -> String {
    let mut out = String::new();
    let mut push = |doc: String| {
        if !out.is_empty() {
            out.push_str("---\n");
        }
        out.push_str(&doc);
    };
    for s in bundle.mesh.services() {
        push(emit_service(s));
    }
    for s in &bundle.servers {
        push(emit_server(s));
    }
    for a in &bundle.authorizations {
        push(emit_server_authorization(a));
    }
    for s in &bundle.sidecars {
        push(emit_sidecar(s));
    }
    for p in &bundle.peer_auth {
        push(emit_peer_authentication(p));
    }
    out
}

/// The Linkerd domain's relational vocabulary: the shared
/// [`ServiceUniverse`], this domain's relations and its
/// compile/decompile maps (the domain analogue of `MeshVocab`).
pub struct LinkerdVocab {
    /// Relation declarations.
    pub vocab: Vocabulary,
    /// The platform party (mTLS + egress allowlists).
    pub platform_party: PartyId,
    /// The Linkerd party (Server + ServerAuthorization).
    pub linkerd_party: PartyId,
    /// `listens(Service, Port)` — structure: declared service ports.
    pub listens: RelId,
    /// `meshed(Service)` — structure: the workload is Linkerd-injected.
    pub meshed: RelId,
    /// `mtls_strict(Service)` — platform: STRICT PeerAuthentication.
    pub mtls_strict: RelId,
    /// `eg_guard(Service)` — platform: a Sidecar restricts this source.
    pub eg_guard: RelId,
    /// `eg_allow(Service, Service)` — platform: egress allowlist entry.
    pub eg_allow: RelId,
    /// `srv(Service, Port)` — linkerd: a Server covers the port.
    pub srv: RelId,
    /// `saz(Service, Service)` — linkerd: client → server authorized.
    pub saz: RelId,
    space: ServiceUniverse,
}

/// The universe and its lookups are the mesh crate's one
/// [`ServiceUniverse`], as for `MeshVocab`.
impl Deref for LinkerdVocab {
    type Target = ServiceUniverse;

    fn deref(&self) -> &ServiceUniverse {
        &self.space
    }
}

/// The goal language's view of this domain: both goal tables translate
/// through `muppet_goals` against the `allowed` semantics of the module
/// docs.
impl GoalVocab for LinkerdVocab {
    const PORT_ROWS: &'static str = "platform goal";
    const REACH_ROWS: &'static str = "linkerd goal";

    fn listens(&self) -> RelId {
        self.listens
    }

    fn allowed_formula(&self, src: Term, dst: Term, dport: Term) -> Formula {
        Formula::and([
            Formula::pred(self.listens, [dst, dport]),
            Formula::pred(self.srv, [dst, dport]),
            Formula::pred(self.saz, [src, dst]),
            Formula::implies(
                Formula::pred(self.eg_guard, [src]),
                Formula::pred(self.eg_allow, [src, dst]),
            ),
            Formula::implies(
                Formula::pred(self.mtls_strict, [dst]),
                Formula::pred(self.meshed, [src]),
            ),
        ])
    }
}

impl LinkerdVocab {
    /// Build the vocabulary for a mesh. `extra_ports` must cover every
    /// port mentioned by goals, `Server`s or spare ∃-port choices.
    pub fn new(
        mesh: &Mesh,
        extra_ports: impl IntoIterator<Item = u16>,
        platform_party: PartyId,
        linkerd_party: PartyId,
    ) -> LinkerdVocab {
        assert_ne!(platform_party, linkerd_party, "parties must be distinct");
        let space = ServiceUniverse::new(mesh, extra_ports);
        let (svc_sort, port_sort) = (space.svc_sort, space.port_sort);
        let mut vocab = Vocabulary::new();
        let platform = Domain::Party(platform_party);
        let linkerd = Domain::Party(linkerd_party);
        let listens = vocab.add_rel(RelDecl {
            name: "listens".into(),
            arg_sorts: vec![svc_sort, port_sort],
            owner: Domain::Structure,
            english: "{0} listens on port {1}".into(),
            english_neg: "{0} does not listen on port {1}".into(),
        });
        let meshed = vocab.add_rel(RelDecl {
            name: "meshed".into(),
            arg_sorts: vec![svc_sort],
            owner: Domain::Structure,
            english: "{0} is injected into the Linkerd mesh".into(),
            english_neg: "{0} is not injected into the Linkerd mesh".into(),
        });
        let mtls_strict = vocab.add_rel(RelDecl {
            name: "mtls_strict".into(),
            arg_sorts: vec![svc_sort],
            owner: platform,
            english: "{0} requires strict mutual TLS".into(),
            english_neg: "{0} does not require strict mutual TLS".into(),
        });
        let eg_guard = vocab.add_rel(RelDecl {
            name: "eg_guard".into(),
            arg_sorts: vec![svc_sort],
            owner: platform,
            english: "a Sidecar restricts egress from {0}".into(),
            english_neg: "no Sidecar restricts egress from {0}".into(),
        });
        let eg_allow = vocab.add_rel(RelDecl {
            name: "eg_allow".into(),
            arg_sorts: vec![svc_sort, svc_sort],
            owner: platform,
            english: "{0} may open connections to {1}".into(),
            english_neg: "{0} may not open connections to {1}".into(),
        });
        let srv = vocab.add_rel(RelDecl {
            name: "srv".into(),
            arg_sorts: vec![svc_sort, port_sort],
            owner: linkerd,
            english: "a Server covers {0} port {1}".into(),
            english_neg: "no Server covers {0} port {1}".into(),
        });
        let saz = vocab.add_rel(RelDecl {
            name: "saz".into(),
            arg_sorts: vec![svc_sort, svc_sort],
            owner: linkerd,
            english: "{0} is authorized to call {1}".into(),
            english_neg: "{0} is not authorized to call {1}".into(),
        });
        LinkerdVocab {
            vocab,
            platform_party,
            linkerd_party,
            listens,
            meshed,
            mtls_strict,
            eg_guard,
            eg_allow,
            srv,
            saz,
            space,
        }
    }

    /// The fixed structural instance: `listens` from declared service
    /// ports, `meshed` from injection.
    pub fn structure_instance(&self) -> Instance {
        let mut inst = Instance::new();
        for s in self.mesh().services() {
            let sa = self.atom_of(s);
            for &p in &s.ports {
                let pa = self.port_atom(p).expect("service ports are in the universe");
                inst.insert(self.listens, vec![sa, pa]);
            }
            if s.sidecar {
                inst.insert(self.meshed, vec![sa]);
            }
        }
        inst
    }

    /// Well-formedness axioms: a `Server` can only cover ports its
    /// workload actually exposes.
    pub fn well_formedness_axioms(&self, vocab: &mut Vocabulary) -> Vec<Formula> {
        let d = vocab.fresh_var();
        let p = vocab.fresh_var();
        vec![Formula::forall(
            d,
            self.svc_sort,
            Formula::forall(
                p,
                self.port_sort,
                Formula::implies(
                    Formula::pred(self.srv, [Term::Var(d), Term::Var(p)]),
                    Formula::pred(self.listens, [Term::Var(d), Term::Var(p)]),
                ),
            ),
        )]
    }

    /// Compile the platform party's deployed documents
    /// (PeerAuthentication + Sidecar) into an instance.
    pub fn compile_platform(&self, bundle: &LinkerdBundle) -> Result<Instance, String> {
        let mut inst = Instance::new();
        for p in &bundle.peer_auth {
            if p.mode != MtlsMode::Strict {
                continue;
            }
            for s in self.mesh().select(&p.selector) {
                inst.insert(self.mtls_strict, vec![self.atom_of(s)]);
            }
        }
        for sc in &bundle.sidecars {
            for src in self.mesh().select(&sc.selector) {
                let sa = self.atom_of(src);
                inst.insert(self.eg_guard, vec![sa]);
                for host in &sc.hosts {
                    if host == "*/*" || host == "*" {
                        for dst in self.mesh().services() {
                            inst.insert(self.eg_allow, vec![sa, self.atom_of(dst)]);
                        }
                        continue;
                    }
                    let name = host.strip_prefix("./").unwrap_or(host);
                    let da = self
                        .svc_atom(name)
                        .ok_or_else(|| format!("Sidecar {:?} names unknown host {host:?}", sc.name))?;
                    inst.insert(self.eg_allow, vec![sa, da]);
                }
            }
        }
        Ok(inst)
    }

    /// Compile the Linkerd party's deployed documents
    /// (Server + ServerAuthorization) into an instance.
    pub fn compile_linkerd(&self, bundle: &LinkerdBundle) -> Result<Instance, String> {
        let mut inst = Instance::new();
        let mut server_svcs: BTreeMap<&str, Vec<AtomId>> = BTreeMap::new();
        for srv in &bundle.servers {
            let pa = self
                .port_atom(srv.port)
                .ok_or_else(|| format!("Server {:?} port {} outside the universe", srv.name, srv.port))?;
            let mut covered = Vec::new();
            for s in self.mesh().select(&srv.selector) {
                let sa = self.atom_of(s);
                inst.insert(self.srv, vec![sa, pa]);
                covered.push(sa);
            }
            server_svcs.entry(srv.name.as_str()).or_default().extend(covered);
        }
        for auth in &bundle.authorizations {
            let servers = server_svcs.get(auth.server.as_str()).ok_or_else(|| {
                format!(
                    "ServerAuthorization {:?} references unknown Server {:?}",
                    auth.name, auth.server
                )
            })?;
            let clients: Vec<AtomId> = match &auth.clients {
                Clients::Unauthenticated => self
                    .mesh()
                    .services()
                    .iter()
                    .map(|s| self.atom_of(s))
                    .collect(),
                Clients::Services(names) => {
                    let mut out = Vec::new();
                    for n in names {
                        out.push(self.svc_atom(n).ok_or_else(|| {
                            format!(
                                "ServerAuthorization {:?} names unknown service {n:?}",
                                auth.name
                            )
                        })?);
                    }
                    out
                }
            };
            for &dst in servers {
                for &src in &clients {
                    inst.insert(self.saz, vec![src, dst]);
                }
            }
        }
        Ok(inst)
    }

    /// Decompile a platform instance back into documents.
    pub fn decompile_platform(&self, inst: &Instance) -> (Vec<PeerAuthentication>, Vec<SidecarPolicy>) {
        let mut peer = Vec::new();
        for s in self.mesh().services() {
            if inst.holds(self.mtls_strict, &[self.atom_of(s)]) {
                peer.push(PeerAuthentication {
                    name: format!("mtls-{}", s.name),
                    selector: Selector::Name(s.name.clone()),
                    mode: MtlsMode::Strict,
                });
            }
        }
        let mut sidecars = Vec::new();
        for s in self.mesh().services() {
            let sa = self.atom_of(s);
            if !inst.holds(self.eg_guard, &[sa]) {
                continue;
            }
            let hosts: Vec<String> = self
                .mesh()
                .services()
                .iter()
                .filter(|d| inst.holds(self.eg_allow, &[sa, self.atom_of(d)]))
                .map(|d| format!("./{}", d.name))
                .collect();
            sidecars.push(SidecarPolicy {
                name: format!("egress-{}", s.name),
                selector: Selector::Name(s.name.clone()),
                hosts,
            });
        }
        (peer, sidecars)
    }

    /// Decompile a Linkerd instance back into documents. Authorizations
    /// whose destination has no `Server` are dropped (they authorize
    /// nothing under the default-deny semantics).
    pub fn decompile_linkerd(&self, inst: &Instance) -> (Vec<Server>, Vec<ServerAuthorization>) {
        let mut servers = Vec::new();
        let mut first_server: BTreeMap<AtomId, String> = BTreeMap::new();
        for s in self.mesh().services() {
            let sa = self.atom_of(s);
            for p in self.ports() {
                let pa = self.port_atom(p).expect("universe port");
                if inst.holds(self.srv, &[sa, pa]) {
                    let name = format!("srv-{}-{p}", s.name);
                    first_server.entry(sa).or_insert_with(|| name.clone());
                    servers.push(Server {
                        name,
                        selector: Selector::Name(s.name.clone()),
                        port: p,
                    });
                }
            }
        }
        let mut auths = Vec::new();
        for d in self.mesh().services() {
            let da = self.atom_of(d);
            let Some(server) = first_server.get(&da) else {
                continue;
            };
            let clients: Vec<String> = self
                .mesh()
                .services()
                .iter()
                .filter(|s| inst.holds(self.saz, &[self.atom_of(s), da]))
                .map(|s| s.name.clone())
                .collect();
            if clients.is_empty() {
                continue;
            }
            auths.push(ServerAuthorization {
                name: format!("authz-{}", d.name),
                server: server.clone(),
                clients: Clients::Services(clients),
            });
        }
        (servers, auths)
    }
}

/// A platform goal row: `port,perm,selector` with perm `DENY` / `ALLOW`
/// / `MTLS` (the port cell of an `MTLS` row is ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlatformGoal {
    /// Reuses the shared K8s row shape for DENY/ALLOW.
    Port(K8sGoal),
    /// `_,MTLS,selector`: the selected services must require strict mTLS.
    Mtls(Selector),
}

impl PlatformGoal {
    /// Parse the platform goal table. Records are read once, in file
    /// order, by the shared CSV reader; DENY/ALLOW rows go through the
    /// shared [`K8sGoal`] row reader, and `MTLS` rows are
    /// domain-specific.
    pub fn parse_csv(input: &str) -> Result<Vec<PlatformGoal>, GoalParseError> {
        let mut out = Vec::new();
        for rec in muppet_goals::csv::parse_csv(input).map_err(goal_err)? {
            if rec.len() == 3 && rec[1].eq_ignore_ascii_case("mtls") {
                let sel = if rec[2] == "*" || rec[2].is_empty() {
                    Selector::All
                } else {
                    Selector::Name(rec[2].clone())
                };
                out.push(PlatformGoal::Mtls(sel));
            } else if let Some(g) = K8sGoal::from_record(&rec)? {
                out.push(PlatformGoal::Port(g));
            }
        }
        Ok(out)
    }
}

fn goal_err(message: String) -> GoalParseError {
    GoalParseError { message }
}

/// Translate platform goal rows into named formulas, numbered in table
/// order. DENY/ALLOW rows are the goal language's K8s rows
/// ([`muppet_goals::translate_k8s_row`]).
pub fn translate_platform_goals(
    goals: &[PlatformGoal],
    lv: &LinkerdVocab,
    vocab: &mut Vocabulary,
) -> Result<Vec<NamedFormula>, GoalParseError> {
    let mut out = Vec::new();
    for (i, g) in goals.iter().enumerate() {
        out.push(match g {
            PlatformGoal::Port(g) => muppet_goals::translate_k8s_row(i + 1, g, lv, vocab)?,
            PlatformGoal::Mtls(sel) => translate_mtls_row(i + 1, sel, lv)?,
        });
    }
    Ok(out)
}

/// An `MTLS` row: every selected service requires strict mTLS.
fn translate_mtls_row(
    row: usize,
    sel: &Selector,
    lv: &LinkerdVocab,
) -> Result<NamedFormula, GoalParseError> {
    let covered: Vec<AtomId> = lv.mesh().select(sel).iter().map(|s| lv.atom_of(s)).collect();
    if covered.is_empty() {
        return Err(goal_err(format!("MTLS goal row {row} selects no services")));
    }
    let formula = Formula::and(
        covered
            .iter()
            .map(|&a| Formula::pred(lv.mtls_strict, [Term::Const(a)]))
            .collect::<Vec<_>>(),
    );
    Ok(NamedFormula {
        name: format!("{} {row}: require strict mTLS", LinkerdVocab::PORT_ROWS),
        formula: simplify(&formula),
        var_names: Vec::new(),
    })
}

/// Domain-private state for a built Linkerd model.
pub struct LinkerdPayload {
    /// Parsed manifest documents.
    pub bundle: LinkerdBundle,
    /// Universe + relation handles.
    pub lv: LinkerdVocab,
}

/// Downcast a model's payload; `Some` iff built by [`LinkerdDomain`].
pub fn payload(model: &DomainModel) -> Option<&LinkerdPayload> {
    model.payload.downcast_ref::<LinkerdPayload>()
}

/// The Linkerd policy domain (roles `platform`, `linkerd`).
pub struct LinkerdDomain;

impl ConfigDomain for LinkerdDomain {
    fn name(&self) -> &'static str {
        "linkerd"
    }

    fn roles(&self) -> &'static [&'static str] {
        &["platform", "linkerd"]
    }

    fn displays(&self) -> &'static [&'static str] {
        &["platform-admin", "linkerd-admin"]
    }

    fn build(&self, input: &DomainInput) -> Result<DomainModel, String> {
        let bundle = parse_linkerd_manifests(&input.manifests)?;
        if bundle.mesh.services().is_empty() {
            return Err("no Service documents found in the manifests".into());
        }
        let platform_rows =
            PlatformGoal::parse_csv(input.goal_text(0)).map_err(|e| e.to_string())?;
        let linkerd_rows = IstioGoal::parse_csv(input.goal_text(1)).map_err(|e| e.to_string())?;
        let port_rows = platform_rows.iter().filter_map(|g| match g {
            PlatformGoal::Port(g) => Some(g),
            PlatformGoal::Mtls(_) => None,
        });
        let mut ports = muppet_goals::collect_goal_ports(port_rows, &linkerd_rows);
        ports.extend(&input.extra_ports);
        ports.extend(bundle.servers.iter().map(|s| s.port));
        let lv = LinkerdVocab::new(&bundle.mesh, ports, PartyId(0), PartyId(1));
        let port_list: Vec<u16> = lv.ports().collect();
        let mut vocab = lv.vocab.clone();
        let platform_goals: Vec<NamedGoal> =
            translate_platform_goals(&platform_rows, &lv, &mut vocab)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(NamedGoal::from)
                .collect();
        let linkerd_goals: Vec<NamedGoal> =
            muppet_goals::translate_istio_goals(&linkerd_rows, &lv, &mut vocab)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(NamedGoal::from)
                .collect();
        let axioms = lv.well_formedness_axioms(&mut vocab);
        let services = bundle.mesh.services().len();
        let parties = vec![
            DomainParty {
                id: lv.platform_party,
                role: "platform".into(),
                display: "platform-admin".into(),
                goals: platform_goals,
                goals_text: input.goal_text(0).to_string(),
            },
            DomainParty {
                id: lv.linkerd_party,
                role: "linkerd".into(),
                display: "linkerd-admin".into(),
                goals: linkerd_goals,
                goals_text: input.goal_text(1).to_string(),
            },
        ];
        Ok(DomainModel {
            domain: "linkerd",
            universe: lv.universe.clone(),
            structure: lv.structure_instance(),
            vocab,
            axioms,
            parties,
            ports: port_list,
            services,
            payload: Box::new(LinkerdPayload { bundle, lv }),
        })
    }

    fn deployed(&self, model: &DomainModel, party: PartyId) -> Result<Instance, String> {
        let pay = payload(model).ok_or("not a linkerd model")?;
        if party == pay.lv.platform_party {
            pay.lv.compile_platform(&pay.bundle)
        } else {
            pay.lv.compile_linkerd(&pay.bundle)
        }
    }

    fn emit_solution(
        &self,
        model: &DomainModel,
        configs: &BTreeMap<PartyId, Instance>,
    ) -> Option<String> {
        let pay = payload(model)?;
        let empty = Instance::new();
        let platform_cfg = configs.get(&pay.lv.platform_party).unwrap_or(&empty);
        let linkerd_cfg = configs.get(&pay.lv.linkerd_party).unwrap_or(&empty);
        let (peer_auth, sidecars) = pay.lv.decompile_platform(platform_cfg);
        let (servers, authorizations) = pay.lv.decompile_linkerd(linkerd_cfg);
        Some(emit_linkerd_bundle(&LinkerdBundle {
            mesh: pay.bundle.mesh.clone(),
            servers,
            authorizations,
            sidecars,
            peer_auth,
        }))
    }
}

/// The committed example scenario's manifests: a four-service shop mesh
/// with one legacy (uninjected) workload, a STRICT mTLS policy on the
/// database, an egress-restricted web frontend, and a served+authorized
/// api — the Linkerd analogue of the paper's Fig. 1 walkthrough.
pub fn example_manifests() -> String {
    concat!(
        "apiVersion: v1\n",
        "kind: Service\n",
        "metadata:\n",
        "  name: web\n",
        "spec:\n",
        "  ports:\n",
        "    - port: 8080\n",
        "---\n",
        "apiVersion: v1\n",
        "kind: Service\n",
        "metadata:\n",
        "  name: api\n",
        "spec:\n",
        "  ports:\n",
        "    - port: 8443\n",
        "---\n",
        "apiVersion: v1\n",
        "kind: Service\n",
        "metadata:\n",
        "  name: db\n",
        "spec:\n",
        "  ports:\n",
        "    - port: 5432\n",
        "---\n",
        "apiVersion: v1\n",
        "kind: Service\n",
        "metadata:\n",
        "  name: legacy\n",
        "  annotations:\n",
        "    linkerd.io/inject: disabled\n",
        "spec:\n",
        "  ports:\n",
        "    - port: 9090\n",
        "---\n",
        "apiVersion: policy.linkerd.io/v1beta1\n",
        "kind: Server\n",
        "metadata:\n",
        "  name: api-8443\n",
        "spec:\n",
        "  podSelector:\n",
        "    matchLabels:\n",
        "      app: api\n",
        "  port: 8443\n",
        "---\n",
        "apiVersion: policy.linkerd.io/v1beta1\n",
        "kind: ServerAuthorization\n",
        "metadata:\n",
        "  name: web-to-api\n",
        "spec:\n",
        "  server:\n",
        "    name: api-8443\n",
        "  client:\n",
        "    meshTLS:\n",
        "      serviceAccounts:\n",
        "        - name: web\n",
        "---\n",
        "apiVersion: networking.istio.io/v1alpha3\n",
        "kind: Sidecar\n",
        "metadata:\n",
        "  name: egress-web\n",
        "spec:\n",
        "  workloadSelector:\n",
        "    labels:\n",
        "      app: web\n",
        "  egress:\n",
        "    - hosts:\n",
        "        - ./api\n",
        "---\n",
        "apiVersion: security.istio.io/v1beta1\n",
        "kind: PeerAuthentication\n",
        "metadata:\n",
        "  name: db-strict\n",
        "spec:\n",
        "  selector:\n",
        "    matchLabels:\n",
        "      app: db\n",
        "  mtls:\n",
        "    mode: STRICT\n",
    )
    .to_string()
}

/// The platform admin's goal table for the example scenario: the
/// metrics port stays closed mesh-wide, and the database keeps strict
/// mTLS.
pub fn example_platform_goals() -> String {
    "port,perm,selector\n9090,DENY,*\n0,MTLS,db\n".to_string()
}

/// The Linkerd admin's goal table for the example scenario. Row 1 is
/// satisfiable; rows 2 and 3 conflict with the platform's goals (the
/// legacy workload is outside the mesh and 9090 is banned), so
/// negotiation must drop them.
pub fn example_linkerd_goals() -> String {
    "srcService,dstService,srcPort,dstPort\n\
     web,api,*,8443\n\
     legacy,db,*,5432\n\
     web,legacy,*,9090\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet::ReconcileMode;

    fn example_input() -> DomainInput {
        DomainInput {
            manifests: example_manifests(),
            goals: vec![example_platform_goals(), example_linkerd_goals()],
            mtls: false,
            extra_ports: Vec::new(),
        }
    }

    #[test]
    fn example_bundle_round_trips_through_emit() {
        let bundle = parse_linkerd_manifests(&example_manifests()).unwrap();
        assert_eq!(bundle.mesh.services().len(), 4);
        assert_eq!(bundle.servers.len(), 1);
        assert_eq!(bundle.authorizations.len(), 1);
        assert_eq!(bundle.sidecars.len(), 1);
        assert_eq!(bundle.peer_auth.len(), 1);
        let back = parse_linkerd_manifests(&emit_linkerd_bundle(&bundle)).unwrap();
        // Selector spellings normalize (matchLabels app: x ⇒ label
        // selector), so compare compiled semantics, not raw structs.
        let lv = LinkerdVocab::new(&bundle.mesh, [], PartyId(0), PartyId(1));
        assert_eq!(
            lv.compile_platform(&bundle).unwrap(),
            lv.compile_platform(&back).unwrap()
        );
        assert_eq!(
            lv.compile_linkerd(&bundle).unwrap(),
            lv.compile_linkerd(&back).unwrap()
        );
        assert_eq!(
            lv.structure_instance(),
            LinkerdVocab::new(&back.mesh, [], PartyId(0), PartyId(1)).structure_instance()
        );
    }

    #[test]
    fn deployed_configs_respect_default_deny_and_mtls() {
        let model = LinkerdDomain.build(&example_input()).unwrap();
        let pay = payload(&model).unwrap();
        let lv = &pay.lv;
        let platform = LinkerdDomain.deployed(&model, lv.platform_party).unwrap();
        let linkerd = LinkerdDomain.deployed(&model, lv.linkerd_party).unwrap();
        let full = model.structure.union(&platform).union(&linkerd);
        let allowed = |src: &str, dst: &str, port: u16| {
            let f = lv.allowed_formula(
                Term::Const(lv.svc_atom(src).unwrap()),
                Term::Const(lv.svc_atom(dst).unwrap()),
                Term::Const(lv.port_atom(port).unwrap()),
            );
            muppet_logic::evaluate_closed(&f, &full, &lv.universe).unwrap()
        };
        assert!(allowed("web", "api", 8443), "served + authorized + allowlisted");
        assert!(!allowed("db", "api", 8443), "db holds no authorization");
        assert!(!allowed("web", "db", 5432), "no Server on db: default deny");
        assert!(!allowed("api", "web", 8080), "no Server on web either");
    }

    #[test]
    fn example_reconciles_only_after_dropping_conflicting_goals() {
        let model = LinkerdDomain.build(&example_input()).unwrap();
        let mut s = model.session();
        let rec = s.reconcile(ReconcileMode::Blameable).unwrap();
        assert!(!rec.success, "legacy/db and 9090 rows conflict");
        // Blame names both sides.
        assert!(
            rec.core.iter().any(|c| c.contains("platform goal")),
            "core: {:?}",
            rec.core
        );
        assert!(
            rec.core.iter().any(|c| c.contains("linkerd goal")),
            "core: {:?}",
            rec.core
        );
        // Dropping the two conflicting reachability rows reconciles.
        let solo = DomainInput {
            goals: vec![
                example_platform_goals(),
                "srcService,dstService,srcPort,dstPort\nweb,api,*,8443\n".into(),
            ],
            ..example_input()
        };
        let model = LinkerdDomain.build(&solo).unwrap();
        let mut s = model.session();
        let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.success, "core: {:?}", rec.core);
    }

    #[test]
    fn mtls_blocks_unmeshed_sources_in_the_solver_too() {
        // legacy -> db is impossible while db requires strict mTLS,
        // because `meshed` is structure and legacy opted out.
        let input = DomainInput {
            manifests: example_manifests(),
            goals: vec![
                "port,perm,selector\n0,MTLS,db\n".into(),
                "srcService,dstService,srcPort,dstPort\nlegacy,db,*,5432\n".into(),
            ],
            mtls: false,
            extra_ports: Vec::new(),
        };
        let model = LinkerdDomain.build(&input).unwrap();
        let mut s = model.session();
        assert!(!s.reconcile(ReconcileMode::HardBounds).unwrap().success);
        // Without the mTLS requirement the same row is satisfiable.
        let relaxed = DomainInput {
            goals: vec![
                String::new(),
                "srcService,dstService,srcPort,dstPort\nlegacy,db,*,5432\n".into(),
            ],
            ..input
        };
        let model = LinkerdDomain.build(&relaxed).unwrap();
        let mut s = model.session();
        assert!(s.reconcile(ReconcileMode::HardBounds).unwrap().success);
    }

    /// Each goal of the example holds or fails under the deployed
    /// configuration as the scenario describes: the platform's goals
    /// and web → api hold; the two rows negotiation must drop fail.
    #[test]
    fn example_goals_are_named_and_judged_against_the_deployment() {
        let model = LinkerdDomain.build(&example_input()).unwrap();
        let lv = &payload(&model).unwrap().lv;
        let deployed = model
            .structure
            .union(&LinkerdDomain.deployed(&model, lv.platform_party).unwrap())
            .union(&LinkerdDomain.deployed(&model, lv.linkerd_party).unwrap());
        let judged: Vec<(&str, bool)> = model
            .parties
            .iter()
            .flat_map(|p| &p.goals)
            .map(|g| {
                let holds =
                    muppet_logic::evaluate_closed(&g.formula, &deployed, &lv.universe).unwrap();
                (g.name.as_str(), holds)
            })
            .collect();
        assert_eq!(
            judged,
            [
                ("platform goal 1: DENY port 9090", true),
                ("platform goal 2: require strict mTLS", true),
                ("linkerd goal 1: web -> api (port 8443)", true),
                ("linkerd goal 2: legacy -> db (port 5432)", false),
                ("linkerd goal 3: web -> legacy (port 9090)", false),
            ]
        );
    }

    /// Platform rows, and the `platform goal N` names they translate
    /// to, follow file order whatever headers, comments and blank lines
    /// sit between them.
    #[test]
    fn platform_rows_keep_file_order() {
        let names = |table: &str| -> Vec<String> {
            let input = DomainInput {
                goals: vec![table.into(), String::new()],
                ..example_input()
            };
            let model = LinkerdDomain.build(&input).unwrap();
            model.parties[0].goals.iter().map(|g| g.name.clone()).collect()
        };
        let rows = PlatformGoal::parse_csv("port,perm,selector\n0,MTLS,db\n9090,DENY,*\n").unwrap();
        assert!(matches!(rows[..], [PlatformGoal::Mtls(_), PlatformGoal::Port(_)]));
        assert_eq!(
            names("port,perm,selector\n0,MTLS,db\n9090,DENY,*\n"),
            ["platform goal 1: require strict mTLS", "platform goal 2: DENY port 9090"]
        );
        assert_eq!(
            names("9090,DENY,*\n# note\n\n0,MTLS,db\n23,DENY,*\n"),
            [
                "platform goal 1: DENY port 9090",
                "platform goal 2: require strict mTLS",
                "platform goal 3: DENY port 23",
            ]
        );
    }

    #[test]
    fn platform_goal_table_parses_all_three_perms() {
        let rows = PlatformGoal::parse_csv("port,perm,selector\n23,DENY,*\n80,ALLOW,api\n0,MTLS,db\n")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert!(matches!(rows[0], PlatformGoal::Port(_)));
        assert!(matches!(rows[2], PlatformGoal::Mtls(Selector::Name(_))));
        assert!(PlatformGoal::parse_csv("23,AUDIT,*\n").is_err());
    }

    #[test]
    fn emit_solution_round_trips_solved_configs() {
        let model = LinkerdDomain.build(&example_input()).unwrap();
        let pay = payload(&model).unwrap();
        let mut configs = BTreeMap::new();
        configs.insert(
            pay.lv.platform_party,
            LinkerdDomain.deployed(&model, pay.lv.platform_party).unwrap(),
        );
        configs.insert(
            pay.lv.linkerd_party,
            LinkerdDomain.deployed(&model, pay.lv.linkerd_party).unwrap(),
        );
        let yaml = LinkerdDomain.emit_solution(&model, &configs).unwrap();
        let back = parse_linkerd_manifests(&yaml).unwrap();
        let lv = &pay.lv;
        assert_eq!(
            lv.compile_platform(&back).unwrap(),
            configs[&lv.platform_party]
        );
        assert_eq!(
            lv.compile_linkerd(&back).unwrap(),
            configs[&lv.linkerd_party]
        );
    }
}
