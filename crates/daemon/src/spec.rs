//! Session specifications and warm sessions.
//!
//! A [`SessionSpec`] is the wire-level description of a configuration
//! session: which registered [`ConfigDomain`] interprets it, manifest
//! YAML (services + deployed policies), one CSV goal table per party,
//! and feature flags — exactly the inputs `muppet-cli` takes from
//! files, but carried inline so the daemon needs no filesystem access
//! to serve a client.
//!
//! Loading a spec produces a [`WarmSession`]: the domain-built
//! [`DomainModel`] ([`WarmCore`]) plus a [`PreparedStore`] of
//! grounded/encoded solver state. The core is immutable after load; a
//! `muppet::Session` (which borrows the universe) is rebuilt cheaply
//! per request from it, while the prepared store persists and keeps CNF
//! warm across requests.

use muppet::fingerprint::Fingerprinter;
use muppet::PreparedStore;
use muppet_domain::{ConfigDomain, DomainInput, DomainModel, DEFAULT_DOMAIN};
use muppet_logic::{Instance, PartyId};

use crate::json::Json;

/// Everything that defines a session, as content (no file paths).
#[derive(Clone, Debug, PartialEq, Eq)]
#[derive(Default)]
pub struct SessionSpec {
    /// The registered domain interpreting this spec. Empty means the
    /// default (`"mesh"`, the paper's K8s/Istio pair), so pre-plugin
    /// wire clients keep working unchanged.
    pub domain: String,
    /// Concatenated YAML manifests: structure documents plus any
    /// deployed policy documents the domain understands.
    pub manifests: String,
    /// Mesh-domain alias for the slot-0 goal table
    /// (`port,perm,selector`); used when [`SessionSpec::goals`] is
    /// empty. Kept as a first-class field for wire compatibility.
    pub k8s_goals: String,
    /// Mesh-domain alias for the slot-1 goal table
    /// (`srcService,dstService,srcPort,dstPort`); used when
    /// [`SessionSpec::goals`] is empty.
    pub istio_goals: String,
    /// Per-party goal tables in the domain's slot order. When non-empty
    /// this wins over the two legacy alias fields.
    pub goals: Vec<String>,
    /// Enable the mTLS extension where the domain supports it.
    pub mtls: bool,
    /// Spare ports widening the universe for ∃-port goals.
    pub extra_ports: Vec<u16>,
}


impl SessionSpec {
    /// The effective domain name (empty field ⇒ the default domain).
    pub fn domain_name(&self) -> &str {
        if self.domain.is_empty() {
            DEFAULT_DOMAIN
        } else {
            &self.domain
        }
    }

    /// The effective per-slot goal tables: [`SessionSpec::goals`] when
    /// set, else the two legacy mesh alias fields.
    pub fn goal_texts(&self) -> Vec<String> {
        if self.goals.is_empty() {
            vec![self.k8s_goals.clone(), self.istio_goals.clone()]
        } else {
            self.goals.clone()
        }
    }

    /// Content fingerprint of the full spec. Identical specs — whatever
    /// client they come from, legacy alias fields or the generic
    /// `goals` list — share one warm session.
    pub fn fingerprint(&self) -> u128 {
        let mut fp = Fingerprinter::new();
        fp.add_str("session-spec-v1")
            .add_str(self.domain_name())
            .add_str(&self.manifests);
        let texts = self.goal_texts();
        fp.add_u64(texts.len() as u64);
        for t in &texts {
            fp.add_str(t);
        }
        fp.add_bool(self.mtls);
        let mut ports = self.extra_ports.clone();
        ports.sort_unstable();
        ports.dedup();
        fp.add_u64(ports.len() as u64);
        for p in ports {
            fp.add_u64(u64::from(p));
        }
        fp.digest()
    }

    /// Serialize for the wire. The legacy mesh alias fields are always
    /// present (empty strings when a generic `goals` list is used);
    /// `domain`/`goals` are emitted only when set, so mesh specs stay
    /// byte-compatible with pre-plugin clients.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("manifests".to_string(), Json::str(&self.manifests)),
            ("k8s_goals".to_string(), Json::str(&self.k8s_goals)),
            ("istio_goals".to_string(), Json::str(&self.istio_goals)),
            ("mtls".to_string(), Json::Bool(self.mtls)),
            (
                "extra_ports".to_string(),
                Json::Arr(self.extra_ports.iter().map(|&p| Json::num(u64::from(p))).collect()),
            ),
        ];
        if !self.domain.is_empty() {
            pairs.insert(0, ("domain".to_string(), Json::str(&self.domain)));
        }
        if !self.goals.is_empty() {
            pairs.push((
                "goals".to_string(),
                Json::Arr(self.goals.iter().map(Json::str).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Deserialize from the wire. Missing string fields default to
    /// empty; a malformed `extra_ports` or `goals` entry is an error.
    pub fn from_json(v: &Json) -> Result<SessionSpec, String> {
        let s = |key: &str| -> Result<String, String> {
            match v.get(key) {
                None => Ok(String::new()),
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(_) => Err(format!("spec.{key} must be a string")),
            }
        };
        let mut extra_ports = Vec::new();
        if let Some(arr) = v.get("extra_ports") {
            let items = arr
                .as_arr()
                .ok_or_else(|| "spec.extra_ports must be an array".to_string())?;
            for item in items {
                let n = item
                    .as_u64()
                    .filter(|&n| n <= u64::from(u16::MAX))
                    .ok_or_else(|| "spec.extra_ports entries must be ports".to_string())?;
                extra_ports.push(n as u16);
            }
        }
        let mut goals = Vec::new();
        if let Some(arr) = v.get("goals") {
            let items = arr
                .as_arr()
                .ok_or_else(|| "spec.goals must be an array".to_string())?;
            for item in items {
                let t = item
                    .as_str()
                    .ok_or_else(|| "spec.goals entries must be strings".to_string())?;
                goals.push(t.to_string());
            }
        }
        Ok(SessionSpec {
            domain: s("domain")?,
            manifests: s("manifests")?,
            k8s_goals: s("k8s_goals")?,
            istio_goals: s("istio_goals")?,
            goals,
            mtls: v.get("mtls").and_then(Json::as_bool).unwrap_or(false),
            extra_ports,
        })
    }

    /// The paper's running example with the strict Fig. 3 Istio goals
    /// (jointly unsatisfiable with the Fig. 2 port-23 ban).
    pub fn paper_strict() -> SessionSpec {
        SessionSpec {
            manifests: muppet_domain::mesh::paper_example_manifests(),
            k8s_goals: "port,perm,selector\n23,DENY,*\n".to_string(),
            istio_goals: "srcService,dstService,srcPort,dstPort\n\
                          test-frontend,test-backend,24,25\n\
                          test-backend,test-frontend,26,23\n\
                          test-backend,test-db,14000,16000\n\
                          test-db,test-backend,10000,12000\n"
                .to_string(),
            ..SessionSpec::default()
        }
    }

    /// The paper's running example with the relaxed Fig. 4 Istio goals
    /// (∃-port rows; reconcilable by re-exposing spare ports).
    pub fn paper_relaxed() -> SessionSpec {
        SessionSpec {
            istio_goals: "srcService,dstService,srcPort,dstPort\n\
                          test-frontend,test-backend,?w,?x\n\
                          test-backend,test-frontend,?y,?z\n\
                          test-backend,test-db,14000,16000\n\
                          test-db,test-backend,10000,12000\n"
                .to_string(),
            ..SessionSpec::paper_strict()
        }
    }

    /// The committed Linkerd-domain example (ROADMAP item 3): a
    /// four-service shop mesh with one unmeshed legacy workload,
    /// platform mTLS + metrics-port goals against Linkerd reachability
    /// rows, two of which conflict.
    pub fn linkerd_example() -> SessionSpec {
        SessionSpec {
            domain: "linkerd".to_string(),
            manifests: muppet_domain::linkerd::example_manifests(),
            goals: vec![
                muppet_domain::linkerd::example_platform_goals(),
                muppet_domain::linkerd::example_linkerd_goals(),
            ],
            ..SessionSpec::default()
        }
    }

    /// Build the domain model for this spec: resolve the domain in the
    /// registry and hand it the domain-independent input.
    pub fn build_model(&self) -> Result<(&'static dyn ConfigDomain, DomainModel), String> {
        let domain = muppet_domain::lookup(self.domain_name()).ok_or_else(|| {
            let known: Vec<&str> =
                muppet_domain::registry().iter().map(|d| d.name()).collect();
            format!(
                "unknown domain {:?} (registered: {})",
                self.domain_name(),
                known.join(", ")
            )
        })?;
        let input = DomainInput {
            manifests: self.manifests.clone(),
            goals: self.goal_texts(),
            mtls: self.mtls,
            extra_ports: self.extra_ports.clone(),
        };
        let model = domain.build(&input)?;
        Ok((domain, model))
    }

    /// Parse, translate and compile the spec into a [`WarmSession`].
    /// Mirrors `muppet-cli`'s loading pipeline exactly (same domain
    /// build), so daemon verdicts match CLI verdicts.
    pub fn load(self) -> Result<WarmSession, String> {
        let (domain, model) = self.build_model()?;
        Ok(WarmSession {
            core: WarmCore {
                spec: self,
                domain,
                model,
            },
            prepared: PreparedStore::new(),
        })
    }
}

/// The immutable, parsed artifacts of a loaded spec. A borrowing
/// `Session` is rebuilt from this per request ([`DomainModel::session`]);
/// the rebuild is cheap (clones of already-translated formulas), and
/// the expensive state lives in the sibling [`PreparedStore`].
pub struct WarmCore {
    /// The original spec (for cache-key derivation).
    pub spec: SessionSpec,
    /// The registered domain that built (and interprets) the model.
    pub domain: &'static dyn ConfigDomain,
    /// The domain-built model: universe, vocabulary, parties, payload.
    pub model: DomainModel,
}

/// A warm session: parsed core + persistent solver state.
pub struct WarmSession {
    /// Parsed, immutable artifacts.
    pub core: WarmCore,
    /// Warm grounded/encoded solver state, reused across requests.
    pub prepared: PreparedStore,
}

impl WarmCore {
    /// The party's deployed configuration, compiled by the domain from
    /// the manifest bundle's policy documents.
    pub fn deployed(&self, id: PartyId) -> Result<Instance, String> {
        self.domain.deployed(&self.model, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrip() {
        let spec = SessionSpec {
            manifests: "kind: Service\n".into(),
            k8s_goals: "port,perm,selector\n".into(),
            mtls: true,
            extra_ports: vec![24, 26],
            ..SessionSpec::default()
        };
        let back = SessionSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
        // Domain-qualified specs with a generic goals list round-trip too.
        let linkerd = SessionSpec::linkerd_example();
        let back = SessionSpec::from_json(&linkerd.to_json()).unwrap();
        assert_eq!(back, linkerd);
        assert_eq!(back.fingerprint(), linkerd.fingerprint());
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = SessionSpec::paper_strict();
        let b = SessionSpec::paper_strict();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SessionSpec::paper_relaxed();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = SessionSpec::paper_strict();
        d.mtls = true;
        assert_ne!(a.fingerprint(), d.fingerprint());
        // The legacy alias fields and an equivalent generic goals list
        // are the same content.
        let mut e = SessionSpec::paper_strict();
        e.goals = vec![e.k8s_goals.clone(), e.istio_goals.clone()];
        e.k8s_goals = String::new();
        e.istio_goals = String::new();
        assert_eq!(a.fingerprint(), e.fingerprint());
        // An explicit default domain is the same content as none.
        let mut f = SessionSpec::paper_strict();
        f.domain = "mesh".to_string();
        assert_eq!(a.fingerprint(), f.fingerprint());
        // A different domain is different content even with equal text.
        let mut g = SessionSpec::paper_strict();
        g.domain = "linkerd".to_string();
        assert_ne!(a.fingerprint(), g.fingerprint());
    }

    #[test]
    fn paper_specs_load_and_reconcile_as_in_the_paper() {
        let strict = SessionSpec::paper_strict().load().unwrap();
        let mut s = strict.core.model.session();
        let rec = s.reconcile(muppet::ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success, "Fig. 3 goals conflict with the ban");
        let relaxed = SessionSpec::paper_relaxed().load().unwrap();
        let mut s = relaxed.core.model.session();
        let rec = s.reconcile(muppet::ReconcileMode::HardBounds).unwrap();
        assert!(rec.success, "Fig. 4 relaxation reconciles: {:?}", rec.core);
    }

    #[test]
    fn linkerd_example_loads_through_the_registry() {
        let warm = SessionSpec::linkerd_example().load().unwrap();
        assert_eq!(warm.core.model.domain, "linkerd");
        assert_eq!(warm.core.model.parties.len(), 2);
        assert!(warm.core.model.party_id("platform").is_ok());
        assert!(warm.core.model.party_id("linkerd-admin").is_ok());
        assert!(warm.core.model.party_id("k8s").is_err());
        let mut s = warm.core.model.session();
        let rec = s.reconcile(muppet::ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success, "the committed example carries a conflict");
    }

    #[test]
    fn bad_specs_error_cleanly() {
        let mut spec = SessionSpec::paper_strict();
        spec.manifests = "kind: Nonsense\n".into();
        assert!(spec.load().is_err());
        let mut spec = SessionSpec::paper_strict();
        spec.k8s_goals = "not,a,valid\nheader,row,x\n".into();
        assert!(spec.load().is_err());
        let mut spec = SessionSpec::paper_strict();
        spec.domain = "nomad".into();
        let err = match spec.load() {
            Ok(_) => panic!("unknown domain must not load"),
            Err(e) => e,
        };
        assert!(err.contains("unknown domain"), "{err}");
        assert!(err.contains("mesh") && err.contains("linkerd"), "{err}");
    }
}
