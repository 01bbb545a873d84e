//! The paper's K8s/Istio service-mesh domain, as a [`ConfigDomain`].
//!
//! This is the load pipeline that used to live inside
//! `muppet-daemon`'s `SessionSpec::load` and `muppet-cli`, moved behind
//! the trait: parse the manifest bundle, derive the port universe from
//! goals + policies + extras, build [`MeshVocab`], translate both goal
//! tables and collect well-formedness axioms. Roles, display names,
//! goal names and the universe derivation are all byte-identical to the
//! pre-plugin pipeline — the N=2 differential gate
//! (`tests/nparty_differential.rs`) holds the refactor to that.

use std::collections::{BTreeMap, BTreeSet};

use muppet::NamedGoal;
use muppet_goals::{translate_istio_goals, translate_k8s_goals, IstioGoal, K8sGoal};
use muppet_logic::{Instance, PartyId};
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
        &["k8s-admin", "istio-admin"]
    }

    fn build(&self, input: &DomainInput) -> Result<DomainModel, String> {
        let bundle = parse_manifests(&input.manifests).map_err(|e| e.to_string())?;
        if bundle.mesh.services().is_empty() {
            return Err("no Service documents found in the manifests".into());
        }
        let k8s_rows = K8sGoal::parse_csv(input.goal_text(0)).map_err(|e| e.to_string())?;
        let istio_rows = IstioGoal::parse_csv(input.goal_text(1)).map_err(|e| e.to_string())?;
        // The universe's port set derives from BOTH goal tables, the
        // deployed policies and the explicit extras — anything touching
        // it invalidates every per-op cache key (see the Engine docs).
        let mut ports: BTreeSet<u16> = muppet_goals::collect_goal_ports(&k8s_rows, &istio_rows);
        ports.extend(&input.extra_ports);
        for p in &bundle.k8s_policies {
            for r in &p.rules {
                ports.extend(&r.ports);
            }
        }
        for p in &bundle.istio_policies {
            for r in &p.rules {
                ports.extend(&r.ports);
            }
        }
        let port_list: Vec<u16> = ports.iter().copied().collect();
        let mv = MeshVocab::new_with_features(
            &bundle.mesh,
            ports,
            PartyId(0),
            PartyId(1),
            input.mtls,
        );
        let mut vocab = mv.vocab.clone();
        let k8s_goals: Vec<NamedGoal> = translate_k8s_goals(&k8s_rows, &mv, &mut vocab)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(NamedGoal::from)
            .collect();
        let istio_goals: Vec<NamedGoal> = translate_istio_goals(&istio_rows, &mv, &mut vocab)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(NamedGoal::from)
            .collect();
        let axioms = mv.well_formedness_axioms(&mut vocab);
        let services = bundle.mesh.services().len();
        let parties = vec![
            DomainParty {
                id: mv.k8s_party,
                role: "k8s".into(),
                display: "k8s-admin".into(),
                goals: k8s_goals,
                goals_text: input.goal_text(0).to_string(),
            },
            DomainParty {
                id: mv.istio_party,
                role: "istio".into(),
                display: "istio-admin".into(),
                goals: istio_goals,
                goals_text: input.goal_text(1).to_string(),
            },
        ];
        Ok(DomainModel {
            domain: "mesh",
            universe: mv.universe.clone(),
            structure: mv.sidecar_instance(),
            vocab,
            axioms,
            parties,
            ports: port_list,
            services,
            payload: Box::new(MeshPayload { bundle, mv }),
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
