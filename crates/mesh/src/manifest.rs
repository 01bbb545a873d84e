//! YAML manifests: the production file formats Muppet consumes.
//!
//! "Muppet consumes the YAML files that K8s and Istio administrators use
//! in production to model the system structure" (Sec. 3). This module
//! parses and emits:
//!
//! * **Service** (`v1/Service`): name, labels, listening ports;
//! * **NetworkPolicy** (`networking.k8s.io/v1`): `podSelector`,
//!   `policyTypes`, `ingress`/`egress` rules with `from`/`to` peers and
//!   `ports`. The paper's model additionally supports DENY rules
//!   (Fig. 2's `perm` column); stock NetworkPolicy is allow-only, so deny
//!   policies round-trip through the `x-muppet-action: Deny` annotation.
//! * **AuthorizationPolicy** (`security.istio.io/v1`): `selector`,
//!   `action`, `rules[].from[].source.principals`,
//!   `rules[].to[].operation.ports`. The paper's model also has egress
//!   policies on the source (Fig. 5's `allow_to_ports`); these round-trip
//!   through `x-muppet-direction: Egress`.
//!
//! Principals may be bare service names or full SPIFFE-style identities
//! (`cluster.local/ns/default/sa/<name>`); the trailing segment is the
//! service name.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use muppet_yaml::{parse_documents, Yaml};

use crate::policy::{
    Action, AuthPolicyRule, AuthorizationPolicy, Direction, MtlsMode, NetPolicyRule,
    NetworkPolicy, PeerAuthentication,
};
use crate::service::{Mesh, Selector, Service};

/// Errors from manifest ingestion.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestError {
    /// Underlying YAML error.
    Yaml(muppet_yaml::ParseError),
    /// Structurally invalid manifest.
    Invalid(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Yaml(e) => write!(f, "{e}"),
            ManifestError::Invalid(m) => write!(f, "invalid manifest: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<muppet_yaml::ParseError> for ManifestError {
    fn from(e: muppet_yaml::ParseError) -> ManifestError {
        ManifestError::Yaml(e)
    }
}

fn invalid(msg: impl Into<String>) -> ManifestError {
    ManifestError::Invalid(msg.into())
}

/// Everything found in a multi-document manifest stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ManifestBundle {
    /// The mesh structure (from Service documents).
    pub mesh: Mesh,
    /// K8s NetworkPolicies.
    pub k8s_policies: Vec<NetworkPolicy>,
    /// Istio AuthorizationPolicies.
    pub istio_policies: Vec<AuthorizationPolicy>,
    /// Istio PeerAuthentication policies (mTLS extension).
    pub peer_auth: Vec<PeerAuthentication>,
}

/// Parse a multi-document YAML stream, dispatching on `kind`.
pub fn parse_manifests(input: &str) -> Result<ManifestBundle, ManifestError> {
    let mut bundle = ManifestBundle::default();
    for doc in parse_documents(input)? {
        match doc.get("kind").and_then(Yaml::as_str) {
            Some("Service") => bundle.mesh.add_service(parse_service(&doc)?),
            Some("NetworkPolicy") => bundle.k8s_policies.push(parse_network_policy(&doc)?),
            Some("AuthorizationPolicy") => {
                bundle.istio_policies.push(parse_authorization_policy(&doc)?)
            }
            Some("PeerAuthentication") => {
                bundle.peer_auth.push(parse_peer_authentication(&doc)?)
            }
            Some(other) => {
                return Err(invalid(format!("unsupported kind {other:?}")));
            }
            None => return Err(invalid("document without a kind")),
        }
    }
    Ok(bundle)
}

fn metadata_name(doc: &Yaml) -> Result<String, ManifestError> {
    doc.get_path(&["metadata", "name"])
        .and_then(Yaml::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid("missing metadata.name"))
}

fn annotation<'y>(doc: &'y Yaml, key: &str) -> Option<&'y str> {
    doc.get_path(&["metadata", "annotations", key])
        .and_then(Yaml::as_str)
}

/// Parse a `v1/Service` document.
pub fn parse_service(doc: &Yaml) -> Result<Service, ManifestError> {
    let name = metadata_name(doc)?;
    let mut labels = BTreeMap::new();
    if let Some(pairs) = doc
        .get_path(&["metadata", "labels"])
        .and_then(Yaml::as_map)
    {
        for (k, v) in pairs {
            labels.insert(
                k.clone(),
                v.as_scalar_string()
                    .ok_or_else(|| invalid(format!("label {k:?} must be a scalar")))?,
            );
        }
    }
    if labels.is_empty() {
        labels.insert("app".to_string(), name.clone());
    }
    let mut ports = BTreeSet::new();
    if let Some(items) = doc.get_path(&["spec", "ports"]).and_then(Yaml::as_seq) {
        for item in items {
            let port = match item {
                Yaml::Int(_) | Yaml::Str(_) => item.as_i64(),
                other => other.get("port").and_then(Yaml::as_i64),
            }
            .ok_or_else(|| invalid("service port entries need a numeric `port`"))?;
            ports.insert(
                u16::try_from(port).map_err(|_| invalid(format!("port {port} out of range")))?,
            );
        }
    }
    let sidecar = annotation(doc, "x-muppet-sidecar")
        .map(|v| v != "false")
        .unwrap_or(true);
    let namespace = doc
        .get_path(&["metadata", "namespace"])
        .and_then(Yaml::as_str)
        .unwrap_or("default")
        .to_string();
    Ok(Service {
        name,
        namespace,
        labels,
        ports,
        sidecar,
    })
}

fn parse_selector(node: Option<&Yaml>) -> Result<Selector, ManifestError> {
    let Some(node) = node else {
        return Ok(Selector::All);
    };
    if node.is_null() {
        return Ok(Selector::All);
    }
    let map = node
        .as_map()
        .ok_or_else(|| invalid("selector must be a mapping"))?;
    if map.is_empty() {
        return Ok(Selector::All);
    }
    let labels = node
        .get("matchLabels")
        .ok_or_else(|| invalid("selector must be `{}` or have matchLabels"))?;
    let pairs = labels
        .as_map()
        .ok_or_else(|| invalid("matchLabels must be a mapping"))?;
    if pairs.is_empty() {
        return Ok(Selector::All);
    }
    let mut out = BTreeMap::new();
    for (k, v) in pairs {
        out.insert(
            k.clone(),
            v.as_scalar_string()
                .ok_or_else(|| invalid(format!("matchLabels {k:?} must be a scalar")))?,
        );
    }
    // The well-known namespace label round-trips to a namespace
    // selector.
    if out.len() == 1 {
        if let Some(ns) = out.get("kubernetes.io/metadata.name") {
            return Ok(Selector::Namespace(ns.clone()));
        }
    }
    Ok(Selector::Labels(out))
}

/// Parsed `ports:` entries: discrete ports and `port`/`endPort` ranges.
type PortsAndRanges = (BTreeSet<u16>, Vec<(u16, u16)>);

fn parse_ports_list(node: Option<&Yaml>) -> Result<PortsAndRanges, ManifestError> {
    let mut out = BTreeSet::new();
    let mut ranges = Vec::new();
    if let Some(items) = node.and_then(Yaml::as_seq) {
        for item in items {
            let port = match item {
                Yaml::Int(_) | Yaml::Str(_) => item.as_i64(),
                other => other.get("port").and_then(Yaml::as_i64),
            }
            .ok_or_else(|| invalid("ports entries must be numbers or have `port`"))?;
            let port = u16::try_from(port)
                .map_err(|_| invalid(format!("port {port} out of range")))?;
            // K8s `endPort`: an inclusive range starting at `port`.
            match item.get("endPort").map(|e| e.as_i64()) {
                Some(Some(end)) => {
                    let end = u16::try_from(end)
                        .map_err(|_| invalid(format!("endPort {end} out of range")))?;
                    if end < port {
                        return Err(invalid(format!(
                            "endPort {end} is below port {port}"
                        )));
                    }
                    ranges.push((port, end));
                }
                Some(None) => return Err(invalid("endPort must be numeric")),
                None => {
                    out.insert(port);
                }
            }
        }
    }
    Ok((out, ranges))
}

/// Parse a `networking.k8s.io/v1 NetworkPolicy` document.
pub fn parse_network_policy(doc: &Yaml) -> Result<NetworkPolicy, ManifestError> {
    let name = metadata_name(doc)?;
    let action = match annotation(doc, "x-muppet-action") {
        Some("Deny") | Some("DENY") => Action::Deny,
        Some("Allow") | Some("ALLOW") | None => Action::Allow,
        Some(other) => return Err(invalid(format!("unknown x-muppet-action {other:?}"))),
    };
    let selector = parse_selector(doc.get_path(&["spec", "podSelector"]))?;
    let has_ingress = doc.get_path(&["spec", "ingress"]).is_some();
    let has_egress = doc.get_path(&["spec", "egress"]).is_some();
    let (direction, rules_node, peer_key) = match (has_ingress, has_egress) {
        (true, false) => (Direction::Ingress, doc.get_path(&["spec", "ingress"]), "from"),
        (false, true) => (Direction::Egress, doc.get_path(&["spec", "egress"]), "to"),
        (true, true) => {
            return Err(invalid(
                "policies with both ingress and egress sections are outside the modeled \
                 subset; split them into two policies",
            ))
        }
        (false, false) => {
            // Direction can still come from policyTypes (a selector-only
            // policy, e.g. default-deny).
            let types = doc
                .get_path(&["spec", "policyTypes"])
                .and_then(Yaml::as_seq)
                .ok_or_else(|| invalid("policy needs ingress, egress or policyTypes"))?;
            let dirs: Vec<&str> = types.iter().filter_map(Yaml::as_str).collect();
            match dirs.as_slice() {
                ["Ingress"] => (Direction::Ingress, None, "from"),
                ["Egress"] => (Direction::Egress, None, "to"),
                _ => return Err(invalid("policyTypes must be exactly [Ingress] or [Egress]")),
            }
        }
    };
    let mut rules = Vec::new();
    if let Some(items) = rules_node.and_then(Yaml::as_seq) {
        for item in items {
            let (ports, port_ranges) = parse_ports_list(item.get("ports"))?;
            let peers = item.get(peer_key).and_then(Yaml::as_seq);
            match peers {
                None => rules.push(NetPolicyRule {
                    peer: Selector::All,
                    ports,
                    port_ranges,
                }),
                Some(peers) => {
                    for peer in peers {
                        let sel = parse_selector(peer.get("podSelector"))?;
                        rules.push(NetPolicyRule {
                            peer: sel,
                            ports: ports.clone(),
                            port_ranges: port_ranges.clone(),
                        });
                    }
                }
            }
        }
    }
    Ok(NetworkPolicy {
        name,
        selector,
        direction,
        action,
        rules,
    })
}

/// The service name inside a principal string: either a bare name or the
/// final `/`-separated segment of a SPIFFE-style identity.
fn principal_service(p: &str) -> String {
    p.rsplit('/').next().unwrap_or(p).to_string()
}

/// Parse a `security.istio.io/v1 AuthorizationPolicy` document.
pub fn parse_authorization_policy(doc: &Yaml) -> Result<AuthorizationPolicy, ManifestError> {
    let name = metadata_name(doc)?;
    let direction = match annotation(doc, "x-muppet-direction") {
        Some("Egress") | Some("EGRESS") => Direction::Egress,
        Some("Ingress") | Some("INGRESS") | None => Direction::Ingress,
        Some(other) => return Err(invalid(format!("unknown x-muppet-direction {other:?}"))),
    };
    let action = match doc
        .get_path(&["spec", "action"])
        .and_then(Yaml::as_str)
        .unwrap_or("ALLOW")
    {
        "ALLOW" => Action::Allow,
        "DENY" => Action::Deny,
        other => return Err(invalid(format!("unsupported action {other:?}"))),
    };
    let selector = parse_selector(doc.get_path(&["spec", "selector"]))?;
    let mut rules = Vec::new();
    if let Some(items) = doc.get_path(&["spec", "rules"]).and_then(Yaml::as_seq) {
        for item in items {
            let mut services = BTreeSet::new();
            if let Some(froms) = item.get("from").and_then(Yaml::as_seq) {
                for f in froms {
                    if let Some(principals) =
                        f.get_path(&["source", "principals"]).and_then(Yaml::as_seq)
                    {
                        for p in principals {
                            let s = p
                                .as_scalar_string()
                                .ok_or_else(|| invalid("principals must be strings"))?;
                            services.insert(principal_service(&s));
                        }
                    }
                }
            }
            let mut ports = BTreeSet::new();
            if let Some(tos) = item.get("to").and_then(Yaml::as_seq) {
                for t in tos {
                    if let Some(ps) = t.get_path(&["operation", "ports"]).and_then(Yaml::as_seq) {
                        for p in ps {
                            let n = p
                                .as_i64()
                                .ok_or_else(|| invalid("operation.ports must be numeric"))?;
                            ports.insert(
                                u16::try_from(n)
                                    .map_err(|_| invalid(format!("port {n} out of range")))?,
                            );
                        }
                    }
                }
            }
            let mut namespaces = BTreeSet::new();
            if let Some(froms) = item.get("from").and_then(Yaml::as_seq) {
                for f in froms {
                    if let Some(nss) =
                        f.get_path(&["source", "namespaces"]).and_then(Yaml::as_seq)
                    {
                        for n in nss {
                            namespaces.insert(
                                n.as_scalar_string()
                                    .ok_or_else(|| invalid("namespaces must be strings"))?,
                            );
                        }
                    }
                }
            }
            rules.push(AuthPolicyRule {
                services,
                namespaces,
                ports,
            });
        }
    }
    Ok(AuthorizationPolicy {
        name,
        selector,
        direction,
        action,
        rules,
    })
}

/// Parse a `security.istio.io/v1 PeerAuthentication` document.
pub fn parse_peer_authentication(doc: &Yaml) -> Result<PeerAuthentication, ManifestError> {
    let name = metadata_name(doc)?;
    let selector = parse_selector(doc.get_path(&["spec", "selector"]))?;
    let mode = match doc
        .get_path(&["spec", "mtls", "mode"])
        .and_then(Yaml::as_str)
        .unwrap_or("PERMISSIVE")
    {
        "STRICT" => MtlsMode::Strict,
        "PERMISSIVE" => MtlsMode::Permissive,
        other => {
            return Err(invalid(format!(
                "unsupported PeerAuthentication mode {other:?} (modeled subset: \
                 STRICT / PERMISSIVE)"
            )))
        }
    };
    Ok(PeerAuthentication {
        name,
        selector,
        mode,
    })
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

/// A selector as the mapping under a policy's selector field, with its
/// labels under `label_key`: `matchLabels` for K8s and Istio policies,
/// `labels` for an Istio `Sidecar`'s `workloadSelector`.
pub fn selector_yaml(sel: &Selector, label_key: &str) -> Yaml {
    match sel {
        Selector::All => Yaml::Map(vec![]),
        Selector::Labels(labels) => Yaml::map([(
            label_key.to_string(),
            Yaml::Map(
                labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Yaml::str(v.clone())))
                    .collect(),
            ),
        )]),
        // A name selector is emitted as the conventional app label; the
        // default Service labels make this equivalent.
        Selector::Name(n) => Yaml::map([(
            label_key.to_string(),
            Yaml::map([("app".to_string(), Yaml::str(n.clone()))]),
        )]),
        // K8s convention: namespaces are matched via the well-known
        // kubernetes.io/metadata.name label.
        Selector::Namespace(ns) => Yaml::map([(
            label_key.to_string(),
            Yaml::map([(
                "kubernetes.io/metadata.name".to_string(),
                Yaml::str(ns.clone()),
            )]),
        )]),
    }
}

/// Emit a Service manifest.
pub fn emit_service(svc: &Service) -> String {
    let mut metadata = vec![
        ("name".to_string(), Yaml::str(svc.name.clone())),
        ("namespace".to_string(), Yaml::str(svc.namespace.clone())),
        (
            "labels".to_string(),
            Yaml::Map(
                svc.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Yaml::str(v.clone())))
                    .collect(),
            ),
        ),
    ];
    if !svc.sidecar {
        metadata.push((
            "annotations".to_string(),
            Yaml::map([("x-muppet-sidecar".to_string(), Yaml::str("false"))]),
        ));
    }
    let doc = Yaml::map([
        ("apiVersion".to_string(), Yaml::str("v1")),
        ("kind".to_string(), Yaml::str("Service")),
        ("metadata".to_string(), Yaml::Map(metadata)),
        (
            "spec".to_string(),
            Yaml::map([(
                "ports".to_string(),
                Yaml::Seq(
                    svc.ports
                        .iter()
                        .map(|&p| Yaml::map([("port".to_string(), Yaml::Int(p as i64))]))
                        .collect(),
                ),
            )]),
        ),
    ]);
    muppet_yaml::emit(&doc)
}

/// Emit a NetworkPolicy manifest (with the `x-muppet-action` annotation
/// for deny policies).
pub fn emit_network_policy(p: &NetworkPolicy) -> String {
    let mut metadata = vec![("name".to_string(), Yaml::str(p.name.clone()))];
    if p.action == Action::Deny {
        metadata.push((
            "annotations".to_string(),
            Yaml::map([("x-muppet-action".to_string(), Yaml::str("Deny"))]),
        ));
    }
    let (dir_key, peer_key, type_name) = match p.direction {
        Direction::Ingress => ("ingress", "from", "Ingress"),
        Direction::Egress => ("egress", "to", "Egress"),
    };
    let rules: Vec<Yaml> = p
        .rules
        .iter()
        .map(|r| {
            let mut pairs = Vec::new();
            if !matches!(r.peer, Selector::All) {
                pairs.push((
                    peer_key.to_string(),
                    Yaml::Seq(vec![Yaml::map([(
                        "podSelector".to_string(),
                        selector_yaml(&r.peer, "matchLabels"),
                    )])]),
                ));
            }
            if !r.ports.is_empty() || !r.port_ranges.is_empty() {
                let mut entries: Vec<Yaml> = r
                    .ports
                    .iter()
                    .map(|&port| Yaml::map([("port".to_string(), Yaml::Int(port as i64))]))
                    .collect();
                entries.extend(r.port_ranges.iter().map(|&(lo, hi)| {
                    Yaml::map([
                        ("port".to_string(), Yaml::Int(lo as i64)),
                        ("endPort".to_string(), Yaml::Int(hi as i64)),
                    ])
                }));
                pairs.push(("ports".to_string(), Yaml::Seq(entries)));
            }
            Yaml::Map(pairs)
        })
        .collect();
    let mut spec = vec![
        ("podSelector".to_string(), selector_yaml(&p.selector, "matchLabels")),
        (
            "policyTypes".to_string(),
            Yaml::Seq(vec![Yaml::str(type_name)]),
        ),
    ];
    if !rules.is_empty() {
        spec.push((dir_key.to_string(), Yaml::Seq(rules)));
    }
    let doc = Yaml::map([
        (
            "apiVersion".to_string(),
            Yaml::str("networking.k8s.io/v1"),
        ),
        ("kind".to_string(), Yaml::str("NetworkPolicy")),
        ("metadata".to_string(), Yaml::Map(metadata)),
        ("spec".to_string(), Yaml::Map(spec)),
    ]);
    muppet_yaml::emit(&doc)
}

/// Emit an AuthorizationPolicy manifest (with `x-muppet-direction` for
/// egress policies).
pub fn emit_authorization_policy(p: &AuthorizationPolicy) -> String {
    let mut metadata = vec![("name".to_string(), Yaml::str(p.name.clone()))];
    if p.direction == Direction::Egress {
        metadata.push((
            "annotations".to_string(),
            Yaml::map([("x-muppet-direction".to_string(), Yaml::str("Egress"))]),
        ));
    }
    let rules: Vec<Yaml> = p
        .rules
        .iter()
        .map(|r| {
            let mut pairs = Vec::new();
            if !r.services.is_empty() || !r.namespaces.is_empty() {
                let mut source = Vec::new();
                if !r.services.is_empty() {
                    source.push((
                        "principals".to_string(),
                        Yaml::Seq(
                            r.services.iter().map(|s| Yaml::str(s.clone())).collect(),
                        ),
                    ));
                }
                if !r.namespaces.is_empty() {
                    source.push((
                        "namespaces".to_string(),
                        Yaml::Seq(
                            r.namespaces.iter().map(|s| Yaml::str(s.clone())).collect(),
                        ),
                    ));
                }
                pairs.push((
                    "from".to_string(),
                    Yaml::Seq(vec![Yaml::map([(
                        "source".to_string(),
                        Yaml::Map(source),
                    )])]),
                ));
            }
            if !r.ports.is_empty() {
                pairs.push((
                    "to".to_string(),
                    Yaml::Seq(vec![Yaml::map([(
                        "operation".to_string(),
                        Yaml::map([(
                            "ports".to_string(),
                            Yaml::Seq(
                                r.ports
                                    .iter()
                                    .map(|p| Yaml::str(p.to_string()))
                                    .collect(),
                            ),
                        )]),
                    )])]),
                ));
            }
            Yaml::Map(pairs)
        })
        .collect();
    let action = match p.action {
        Action::Allow => "ALLOW",
        Action::Deny => "DENY",
    };
    let mut spec = vec![
        ("selector".to_string(), selector_yaml(&p.selector, "matchLabels")),
        ("action".to_string(), Yaml::str(action)),
    ];
    if !rules.is_empty() {
        spec.push(("rules".to_string(), Yaml::Seq(rules)));
    }
    let doc = Yaml::map([
        (
            "apiVersion".to_string(),
            Yaml::str("security.istio.io/v1"),
        ),
        ("kind".to_string(), Yaml::str("AuthorizationPolicy")),
        ("metadata".to_string(), Yaml::Map(metadata)),
        ("spec".to_string(), Yaml::Map(spec)),
    ]);
    muppet_yaml::emit(&doc)
}

/// Emit a PeerAuthentication manifest.
pub fn emit_peer_authentication(p: &PeerAuthentication) -> String {
    let mode = match p.mode {
        MtlsMode::Strict => "STRICT",
        MtlsMode::Permissive => "PERMISSIVE",
    };
    let doc = Yaml::map([
        (
            "apiVersion".to_string(),
            Yaml::str("security.istio.io/v1"),
        ),
        ("kind".to_string(), Yaml::str("PeerAuthentication")),
        (
            "metadata".to_string(),
            Yaml::map([("name".to_string(), Yaml::str(p.name.clone()))]),
        ),
        (
            "spec".to_string(),
            Yaml::map([
                ("selector".to_string(), selector_yaml(&p.selector, "matchLabels")),
                (
                    "mtls".to_string(),
                    Yaml::map([("mode".to_string(), Yaml::str(mode))]),
                ),
            ]),
        ),
    ]);
    muppet_yaml::emit(&doc)
}

/// Emit an entire bundle as a multi-document stream.
pub fn emit_bundle(bundle: &ManifestBundle) -> String {
    let mut out = String::new();
    for s in bundle.mesh.services() {
        out.push_str("---\n");
        out.push_str(&emit_service(s));
    }
    for p in &bundle.k8s_policies {
        out.push_str("---\n");
        out.push_str(&emit_network_policy(p));
    }
    for p in &bundle.istio_policies {
        out.push_str("---\n");
        out.push_str(&emit_authorization_policy(p));
    }
    for p in &bundle.peer_auth {
        out.push_str("---\n");
        out.push_str(&emit_peer_authentication(p));
    }
    out
}

/// The paper's Fig. 1 mesh as a manifest stream (useful for examples).
pub fn paper_example_manifests() -> String {
    emit_bundle(&ManifestBundle {
        mesh: Mesh::paper_example(),
        ..ManifestBundle::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_service_manifest() {
        let src = "\
apiVersion: v1
kind: Service
metadata:
  name: test-backend
  labels:
    app: test-backend
    tier: mid
spec:
  ports:
  - port: 25
  - port: 12000
";
        let doc = muppet_yaml::parse(src).unwrap();
        let svc = parse_service(&doc).unwrap();
        assert_eq!(svc.name, "test-backend");
        assert_eq!(svc.labels.get("tier").unwrap(), "mid");
        assert!(svc.ports.contains(&25) && svc.ports.contains(&12000));
    }

    #[test]
    fn service_defaults_app_label_and_scalar_ports() {
        let src = "kind: Service\nmetadata:\n  name: x\nspec:\n  ports:\n  - 8080\n";
        let doc = muppet_yaml::parse(src).unwrap();
        let svc = parse_service(&doc).unwrap();
        assert_eq!(svc.labels.get("app").unwrap(), "x");
        assert!(svc.ports.contains(&8080));
    }

    #[test]
    fn parse_deny_network_policy() {
        let src = "\
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: deny-telnet
  annotations:
    x-muppet-action: Deny
spec:
  podSelector: {}
  policyTypes:
  - Ingress
  ingress:
  - ports:
    - port: 23
";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_network_policy(&doc).unwrap();
        assert_eq!(p.action, Action::Deny);
        assert_eq!(p.direction, Direction::Ingress);
        assert!(matches!(p.selector, Selector::All));
        assert_eq!(p.rules.len(), 1);
        assert!(p.rules[0].ports.contains(&23));
        assert!(matches!(p.rules[0].peer, Selector::All));
    }

    #[test]
    fn parse_allow_policy_with_peers() {
        let src = "\
kind: NetworkPolicy
metadata:
  name: allow-fe
spec:
  podSelector:
    matchLabels:
      app: test-backend
  ingress:
  - from:
    - podSelector:
        matchLabels:
          app: test-frontend
    ports:
    - port: 25
";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_network_policy(&doc).unwrap();
        assert_eq!(p.action, Action::Allow);
        match &p.rules[0].peer {
            Selector::Labels(l) => assert_eq!(l.get("app").unwrap(), "test-frontend"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_port_ranges_roundtrip() {
        let src = "\
kind: NetworkPolicy
metadata:
  name: range
  annotations:
    x-muppet-action: Deny
spec:
  podSelector: {}
  ingress:
  - ports:
    - port: 8000
      endPort: 8005
    - port: 23
";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_network_policy(&doc).unwrap();
        assert_eq!(p.rules[0].port_ranges, vec![(8000, 8005)]);
        assert!(p.rules[0].ports.contains(&23));
        // Round-trip through emission.
        let emitted = emit_network_policy(&p);
        assert!(emitted.contains("endPort: 8005"));
        let doc2 = muppet_yaml::parse(&emitted).unwrap();
        assert_eq!(parse_network_policy(&doc2).unwrap(), p);
        // Degenerate range rejected.
        let bad = src.replace("endPort: 8005", "endPort: 7000");
        let doc3 = muppet_yaml::parse(&bad).unwrap();
        assert!(parse_network_policy(&doc3).is_err());
    }

    #[test]
    fn parse_selector_only_default_deny() {
        let src = "kind: NetworkPolicy\nmetadata:\n  name: dd\nspec:\n  podSelector: {}\n  policyTypes:\n  - Egress\n";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_network_policy(&doc).unwrap();
        assert_eq!(p.direction, Direction::Egress);
        assert!(p.rules.is_empty());
    }

    #[test]
    fn parse_authorization_policy_with_principals_and_ports() {
        let src = "\
apiVersion: security.istio.io/v1
kind: AuthorizationPolicy
metadata:
  name: be-in
spec:
  selector:
    matchLabels:
      app: test-backend
  action: ALLOW
  rules:
  - from:
    - source:
        principals: [\"cluster.local/ns/default/sa/test-frontend\"]
    to:
    - operation:
        ports: [\"25\"]
";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_authorization_policy(&doc).unwrap();
        assert_eq!(p.direction, Direction::Ingress);
        assert_eq!(p.action, Action::Allow);
        assert!(p.rules[0].services.contains("test-frontend"));
        assert!(p.rules[0].ports.contains(&25));
    }

    #[test]
    fn egress_direction_annotation() {
        let src = "\
kind: AuthorizationPolicy
metadata:
  name: eg
  annotations:
    x-muppet-direction: Egress
spec:
  selector:
    matchLabels:
      app: test-backend
  action: DENY
  rules:
  - to:
    - operation:
        ports: [\"23\"]
";
        let doc = muppet_yaml::parse(src).unwrap();
        let p = parse_authorization_policy(&doc).unwrap();
        assert_eq!(p.direction, Direction::Egress);
        assert_eq!(p.action, Action::Deny);
        assert!(p.rules[0].ports.contains(&23));
    }

    #[test]
    fn bundle_roundtrip() {
        let bundle = ManifestBundle {
            mesh: Mesh::paper_example(),
            k8s_policies: vec![NetworkPolicy::deny_port_for_all("ban23", 23)],
            istio_policies: vec![AuthorizationPolicy {
                name: "fe-in".into(),
                selector: Selector::label("app", "test-frontend"),
                direction: Direction::Ingress,
                action: Action::Allow,
                rules: vec![AuthPolicyRule::from_services(["test-backend"])],
            }],
            peer_auth: vec![PeerAuthentication {
                name: "fe-mtls".into(),
                selector: Selector::label("app", "test-frontend"),
                mode: MtlsMode::Strict,
            }],
        };
        let text = emit_bundle(&bundle);
        let back = parse_manifests(&text).unwrap();
        assert_eq!(back.mesh, bundle.mesh);
        assert_eq!(back.k8s_policies, bundle.k8s_policies);
        assert_eq!(back.istio_policies, bundle.istio_policies);
        assert_eq!(back.peer_auth, bundle.peer_auth);
    }

    #[test]
    fn bad_manifests_are_rejected() {
        assert!(parse_manifests("kind: Deployment\nmetadata:\n  name: x\n").is_err());
        assert!(parse_manifests("metadata:\n  name: x\n").is_err());
        let no_name = "kind: Service\nspec: {}\n";
        assert!(parse_manifests(no_name).is_err());
        let both_dirs = "\
kind: NetworkPolicy
metadata:
  name: bad
spec:
  podSelector: {}
  ingress:
  - ports:
    - port: 1
  egress:
  - ports:
    - port: 2
";
        assert!(parse_manifests(both_dirs).is_err());
        let bad_action = "\
kind: AuthorizationPolicy
metadata:
  name: bad
spec:
  action: AUDIT
";
        assert!(parse_manifests(bad_action).is_err());
    }

    #[test]
    fn principal_names() {
        assert_eq!(principal_service("svc"), "svc");
        assert_eq!(
            principal_service("cluster.local/ns/default/sa/test-db"),
            "test-db"
        );
    }
}
