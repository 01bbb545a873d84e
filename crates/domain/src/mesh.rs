//! The paper's K8s/Istio service-mesh domain, as a [`ConfigDomain`],
//! and the one place a two-party K8s/Istio session is assembled.
//!
//! [`MeshWire::parse`] reads wire content (manifests plus both goal
//! tables) and derives the universe's port set; [`session`] assembles the
//! session over a [`MeshVocab`] from typed goal rows: goal translation
//! order, well-formedness axioms, structure, party ids and display
//! names, and the tight offers of bounded runs. The daemon's sessions
//! ([`MeshDomain`]), its `watch` streams (`muppet-stream`), the
//! scenario generator and the paper fixtures all go through these two
//! functions, so the same configuration poses the same problem on
//! every path.

use std::collections::{BTreeMap, BTreeSet};

use muppet::{NamedGoal, Party, Session};
use muppet_goals::{translate_istio_goals, translate_k8s_goals, IstioGoal, K8sGoal};
use muppet_logic::{Instance, PartialInstance, PartyId};
use muppet_mesh::manifest::{emit_bundle, parse_manifests, ManifestBundle};
use muppet_mesh::MeshVocab;

use crate::{ConfigDomain, DomainInput, DomainModel, DomainParty};

// Re-exported so domain-generic consumers (the daemon's committed paper
// specs, harness lanes) can reach the paper fixture without importing
// the mesh crate directly.
pub use muppet_mesh::manifest::paper_example_manifests;

/// Domain-private state: the parsed manifests and the vocabulary's
/// compile/decompile maps.
pub struct MeshPayload {
    /// Parsed manifest documents.
    pub bundle: ManifestBundle,
    /// Universe + mesh relation handles.
    pub mv: MeshVocab,
}

/// Downcast a model's payload; `Some` iff the model was built by
/// [`MeshDomain`]. Mesh-only consumers (the CLI's dataplane diagnosis,
/// the stream engine) go through this instead of re-parsing.
pub fn payload(model: &DomainModel) -> Option<&MeshPayload> {
    model.payload.downcast_ref::<MeshPayload>()
}

/// Mesh wire content, parsed: what a mesh session is assembled from.
pub struct MeshWire {
    /// The manifest documents.
    pub bundle: ManifestBundle,
    /// The K8s admin's goal rows.
    pub k8s_goals: Vec<K8sGoal>,
    /// The Istio admin's goal rows.
    pub istio_goals: Vec<IstioGoal>,
    /// The ports the universe needs besides the services' own: every
    /// goal port, every port a deployed policy names, and the spare
    /// ports.
    pub ports: BTreeSet<u16>,
}

impl MeshWire {
    /// Parse manifests and both goal tables, and derive the universe's
    /// port set from them and `extra_ports`. A port named only by a
    /// deployed policy still widens the universe, so a goal with an
    /// existential port can be met there.
    pub fn parse(
        manifests: &str,
        k8s_csv: &str,
        istio_csv: &str,
        extra_ports: &[u16],
    ) -> Result<MeshWire, String> {
        let bundle = parse_manifests(manifests).map_err(|e| e.to_string())?;
        if bundle.mesh.services().is_empty() {
            return Err("no Service documents found in the manifests".into());
        }
        let k8s_goals = K8sGoal::parse_csv(k8s_csv).map_err(|e| e.to_string())?;
        let istio_goals = IstioGoal::parse_csv(istio_csv).map_err(|e| e.to_string())?;
        let mut ports = muppet_goals::collect_goal_ports(&k8s_goals, &istio_goals);
        ports.extend(extra_ports);
        for rule in bundle.k8s_policies.iter().flat_map(|p| &p.rules) {
            ports.extend(&rule.ports);
        }
        for rule in bundle.istio_policies.iter().flat_map(|p| &p.rules) {
            ports.extend(&rule.ports);
        }
        Ok(MeshWire {
            bundle,
            k8s_goals,
            istio_goals,
            ports,
        })
    }
}

/// Assemble the two-party K8s/Istio session over `mv`: the K8s rows'
/// goals, then the Istio rows' goals, then the well-formedness axioms
/// are translated into one vocabulary; the structure is
/// [`MeshVocab::sidecar_instance`]; `k8s-admin` and `istio-admin` hold
/// their rows as hard goals. With `spare_ports`, both parties also
/// carry the tight offers of a bounded run: no policy relation may
/// gain a tuple, and `listens` only on declared or spare ports.
pub fn session<'a>(
    mv: &'a MeshVocab,
    k8s_goals: &[K8sGoal],
    istio_goals: &[IstioGoal],
    spare_ports: Option<&[u16]>,
) -> Result<Session<'a>, String> {
    let mut vocab = mv.vocab.clone();
    let k8s = translate_k8s_goals(k8s_goals, mv, &mut vocab).map_err(|e| e.to_string())?;
    let istio = translate_istio_goals(istio_goals, mv, &mut vocab).map_err(|e| e.to_string())?;
    let axioms = mv.well_formedness_axioms(&mut vocab);
    let mut k8s_party =
        Party::new(mv.k8s_party, DISPLAYS[0]).with_goals(k8s.into_iter().map(NamedGoal::from));
    let mut istio_party =
        Party::new(mv.istio_party, DISPLAYS[1]).with_goals(istio.into_iter().map(NamedGoal::from));
    if let Some(spare) = spare_ports {
        (k8s_party.offer, istio_party.offer) = tight_offers(mv, spare);
    }
    let mut s = Session::new(&mv.universe, vocab, mv.sidecar_instance());
    s.add_axioms(axioms);
    s.add_party(k8s_party);
    s.add_party(istio_party);
    Ok(s)
}

/// Tight Kodkod-style offers for a scale run: `(k8s, istio)`.
///
/// The cluster admin offers to add **no** network policies (all six
/// `k8s_*` relations bounded empty); the mesh admin offers to add no
/// authorization policies and to only expose ports a service declares
/// or one of the `spare` ports (`listens` upper-bounded to that
/// support, nothing required). Upper bounds only remove models, so
/// conflicts stay conflicts; the no-policy / declared-exposure witness
/// keeps conflict-free scenarios satisfiable.
fn tight_offers(mv: &MeshVocab, spare: &[u16]) -> (PartialInstance, PartialInstance) {
    let mut k8s = PartialInstance::new();
    for rel in mv.k8s_rels() {
        k8s.bound(rel);
    }
    let mut istio = PartialInstance::new();
    for rel in mv.istio_rels() {
        istio.bound(rel);
    }
    for svc in mv.mesh().services() {
        let s = mv.svc_atom(&svc.name).expect("mesh service has an atom");
        for &p in svc.ports.iter().chain(spare) {
            let pa = mv.port_atom(p).expect("mesh port has an atom");
            istio.permit(mv.listens, vec![s, pa]);
        }
    }
    (k8s, istio)
}

/// The mesh parties' display names, in slot order.
const DISPLAYS: [&str; 2] = ["k8s-admin", "istio-admin"];

/// The K8s/Istio pair (roles `k8s`, `istio`).
pub struct MeshDomain;

impl ConfigDomain for MeshDomain {
    fn name(&self) -> &'static str {
        "mesh"
    }

    fn roles(&self) -> &'static [&'static str] {
        &["k8s", "istio"]
    }

    fn displays(&self) -> &'static [&'static str] {
        &DISPLAYS
    }

    fn build(&self, input: &DomainInput) -> Result<DomainModel, String> {
        let wire = MeshWire::parse(
            &input.manifests,
            input.goal_text(0),
            input.goal_text(1),
            &input.extra_ports,
        )?;
        let port_list: Vec<u16> = wire.ports.iter().copied().collect();
        let mv = MeshVocab::new_with_features(
            &wire.bundle.mesh,
            wire.ports,
            PartyId(0),
            PartyId(1),
            input.mtls,
        );
        let s = session(&mv, &wire.k8s_goals, &wire.istio_goals, None)?;
        let parties = s
            .parties()
            .iter()
            .zip(self.roles())
            .enumerate()
            .map(|(slot, (p, role))| DomainParty {
                id: p.id,
                role: role.to_string(),
                display: p.name.clone(),
                goals: p.goals.clone(),
                goals_text: input.goal_text(slot).to_string(),
            })
            .collect();
        Ok(DomainModel {
            domain: "mesh",
            universe: mv.universe.clone(),
            structure: s.structure().clone(),
            vocab: s.vocab().clone(),
            axioms: s.axioms().to_vec(),
            parties,
            ports: port_list,
            services: wire.bundle.mesh.services().len(),
            payload: Box::new(MeshPayload {
                bundle: wire.bundle,
                mv,
            }),
        })
    }

    fn deployed(&self, model: &DomainModel, party: PartyId) -> Result<Instance, String> {
        let pay = payload(model).ok_or("not a mesh model")?;
        if party == pay.mv.k8s_party {
            pay.mv
                .compile_k8s(&pay.bundle.k8s_policies)
                .map_err(|e| e.to_string())
        } else {
            let istio = pay
                .mv
                .compile_istio(&pay.bundle.istio_policies)
                .map_err(|e| e.to_string())?;
            let peer = pay
                .mv
                .compile_peer_auth(&pay.bundle.peer_auth)
                .map_err(|e| e.to_string())?;
            Ok(istio.union(&peer))
        }
    }

    fn deployed_snapshot(
        &self,
        model: &DomainModel,
        party: PartyId,
    ) -> Result<Instance, String> {
        let pay = payload(model).ok_or("not a mesh model")?;
        let deployed = self.deployed(model, party)?;
        if party == pay.mv.istio_party {
            // `listens` is Istio-owned current deployment (see
            // `MeshVocab::structure_instance`), so the snapshot carries
            // it even though solver queries treat it as revisable.
            Ok(pay.mv.structure_instance().union(&deployed))
        } else {
            Ok(deployed)
        }
    }

    fn emit_solution(
        &self,
        model: &DomainModel,
        configs: &BTreeMap<PartyId, Instance>,
    ) -> Option<String> {
        let pay = payload(model)?;
        let mut combined = model.structure.clone();
        for c in configs.values() {
            combined = combined.union(c);
        }
        let empty = Instance::new();
        let k8s_cfg = configs.get(&pay.mv.k8s_party).unwrap_or(&empty);
        let istio_cfg = configs.get(&pay.mv.istio_party).unwrap_or(&empty);
        let bundle = ManifestBundle {
            mesh: pay.mv.decompile_services(&combined),
            k8s_policies: pay.mv.decompile_k8s(k8s_cfg),
            istio_policies: pay.mv.decompile_istio(istio_cfg),
            peer_auth: pay.mv.decompile_peer_auth(istio_cfg),
        };
        Some(emit_bundle(&bundle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet::ReconcileMode;

    fn paper_input(istio_goals: &str) -> DomainInput {
        DomainInput {
            manifests: muppet_mesh::manifest::paper_example_manifests(),
            goals: vec![
                "port,perm,selector\n23,DENY,*\n".into(),
                istio_goals.into(),
            ],
            mtls: false,
            extra_ports: Vec::new(),
        }
    }

    const FIG3: &str = "srcService,dstService,srcPort,dstPort\n\
                        test-frontend,test-backend,24,25\n\
                        test-backend,test-frontend,26,23\n\
                        test-backend,test-db,14000,16000\n\
                        test-db,test-backend,10000,12000\n";

    #[test]
    fn paper_fixture_builds_and_reconciles_as_in_the_paper() {
        let model = MeshDomain.build(&paper_input(FIG3)).unwrap();
        assert_eq!(model.parties.len(), 2);
        assert_eq!(model.role(PartyId(0)), "k8s");
        assert_eq!(model.party_id("istio-admin").unwrap(), PartyId(1));
        let mut s = model.session();
        let rec = s.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(!rec.success, "Fig. 3 goals conflict with the port-23 ban");
    }

    #[test]
    fn deployed_is_lazy_and_per_party() {
        let model = MeshDomain.build(&paper_input(FIG3)).unwrap();
        let k8s = MeshDomain.deployed(&model, PartyId(0)).unwrap();
        let istio = MeshDomain.deployed(&model, PartyId(1)).unwrap();
        // The paper manifests carry no deployed policies: both empty.
        assert_eq!(k8s, Instance::new());
        assert_eq!(istio, Instance::new());
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let mut input = paper_input(FIG3);
        input.manifests = "kind: Nonsense\n".into();
        assert!(MeshDomain.build(&input).is_err());
        let mut input = paper_input(FIG3);
        input.goals[0] = "not,a,valid\nheader,row,x\n".into();
        assert!(MeshDomain.build(&input).is_err());
        let input = DomainInput::default();
        assert!(MeshDomain.build(&input).is_err(), "no services");
    }
}
