//! The mTLS / PeerAuthentication extension (paper Sec. 7: debugging
//! "interactions between other security elements in Istio and K8s, such
//! as authentication"), exercised end to end: dataplane semantics,
//! logical encoding (differential), envelopes and manifests.

use muppet::{NamedGoal, ReconcileMode};
use muppet_goals::{IstioGoal, K8sGoal};
use muppet_logic::{evaluate_closed, Instance, PartyId, Term};
use muppet_mesh::{
    evaluate_flow_full, Flow, Mesh, MeshVocab, MtlsMode, PeerAuthentication, Selector, Service,
};

fn mesh_with_legacy_client() -> Mesh {
    let mut mesh = Mesh::paper_example();
    // A legacy batch job without a sidecar that scrapes the backend.
    mesh.add_service(Service::new("legacy-batch", [9000]).without_sidecar());
    mesh
}

fn mv(mesh: &Mesh) -> MeshVocab {
    MeshVocab::new_with_features(
        mesh,
        [24, 26, 10000, 14000],
        PartyId(0),
        PartyId(1),
        true,
    )
}

#[test]
fn dataplane_strict_mtls_rejects_sidecarless_sources() {
    let mesh = mesh_with_legacy_client();
    let strict = PeerAuthentication {
        name: "backend-mtls".into(),
        selector: Selector::label("app", "test-backend"),
        mode: MtlsMode::Strict,
    };
    // Without the policy the legacy job can reach the backend.
    let flow = Flow::new("legacy-batch", "test-backend", 0, 25);
    assert!(evaluate_flow_full(&mesh, &[], &[], &[], &flow).allowed);
    // With strict mTLS it is refused at the transport layer...
    let d = evaluate_flow_full(&mesh, &[], &[], &[std::slice::from_ref(&strict)[0].clone()], &flow);
    assert!(!d.allowed);
    assert!(d.trace.last().unwrap().contains("connection refused"));
    // ...while sidecar-equipped sources are unaffected.
    let ok = Flow::new("test-frontend", "test-backend", 0, 25);
    assert!(evaluate_flow_full(&mesh, &[], &[], std::slice::from_ref(&strict), &ok).allowed);
    // Permissive mode refuses nobody.
    let permissive = PeerAuthentication {
        mode: MtlsMode::Permissive,
        ..strict
    };
    assert!(evaluate_flow_full(&mesh, &[], &[], &[permissive], &flow).allowed);
}

#[test]
fn encoding_matches_dataplane_with_mtls() {
    // Differential check over every flow and every subset of strict
    // services.
    let mesh = mesh_with_legacy_client();
    let mv = mv(&mesh);
    let services: Vec<&str> = mesh.services().iter().map(|s| s.name.as_str()).collect();
    for mask in 0..(1u32 << services.len()) {
        let peer_auth: Vec<PeerAuthentication> = services
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, name)| PeerAuthentication {
                name: format!("mtls-{name}"),
                selector: Selector::Name(name.to_string()),
                mode: MtlsMode::Strict,
            })
            .collect();
        let inst = mv
            .structure_instance()
            .union(&mv.compile_peer_auth(&peer_auth).unwrap());
        for src in mesh.services() {
            for dst in mesh.services() {
                for port in mv.ports() {
                    let plane = evaluate_flow_full(
                        &mesh,
                        &[],
                        &[],
                        &peer_auth,
                        &Flow::new(src.name.clone(), dst.name.clone(), 0, port),
                    )
                    .allowed;
                    let f = mv.allowed_formula(
                        Term::Const(mv.svc_atom(&src.name).unwrap()),
                        Term::Const(mv.svc_atom(&dst.name).unwrap()),
                        Term::Const(mv.port_atom(port).unwrap()),
                    );
                    let logic = evaluate_closed(&f, &inst, &mv.universe).unwrap();
                    assert_eq!(
                        plane, logic,
                        "mask {mask}: {} → {}:{port}",
                        src.name, dst.name
                    );
                }
            }
        }
    }
}

#[test]
fn peer_auth_compile_decompile_roundtrip() {
    let mesh = mesh_with_legacy_client();
    let mv = mv(&mesh);
    let policies = vec![
        PeerAuthentication {
            name: "be".into(),
            selector: Selector::Name("test-backend".into()),
            mode: MtlsMode::Strict,
        },
        PeerAuthentication {
            name: "noop".into(),
            selector: Selector::Name("test-db".into()),
            mode: MtlsMode::Permissive, // compiles to nothing
        },
    ];
    let inst = mv.compile_peer_auth(&policies).unwrap();
    let back = mv.decompile_peer_auth(&inst);
    assert_eq!(mv.compile_peer_auth(&back).unwrap(), inst);
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].mode, MtlsMode::Strict);

    // YAML round-trip as well.
    let yaml = muppet_mesh::manifest::emit_peer_authentication(&policies[0]);
    let doc = muppet_yaml::parse(&yaml).unwrap();
    let parsed = muppet_mesh::manifest::parse_peer_authentication(&doc).unwrap();
    assert_eq!(parsed.mode, MtlsMode::Strict);
    assert_eq!(mv.compile_peer_auth(&[parsed]).unwrap().total_tuples(), 1);
}

#[test]
fn feature_off_rejects_peer_auth() {
    let mesh = Mesh::paper_example();
    let plain = MeshVocab::paper_example();
    assert!(plain.compile_peer_auth(&[]).unwrap().total_tuples() == 0);
    let strict = PeerAuthentication {
        name: "x".into(),
        selector: Selector::All,
        mode: MtlsMode::Strict,
    };
    assert!(plain.compile_peer_auth(&[strict]).is_err());
    let _ = mesh;
}

/// With the extension on, the Fig. 5 envelope grows a sixth disjunct:
/// "dst requires strict mutual TLS and src runs no sidecar proxy" — a
/// new Istio-side way to satisfy the K8s ban.
#[test]
fn envelope_gains_the_mtls_disjunct() {
    let mesh = mesh_with_legacy_client();
    let mv = mv(&mesh);
    let ban = K8sGoal::parse_csv("23,DENY,*\n").unwrap();
    let session = muppet_domain::mesh::session(&mv, &ban, &[], None).unwrap();

    let env = session
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .unwrap();
    assert_eq!(env.predicates.len(), 1);
    let mut inner = &env.predicates[0].formula;
    while let muppet_logic::Formula::Forall(_, _, body) = inner {
        inner = body;
    }
    let muppet_logic::Formula::Or(disjuncts) = inner else {
        panic!("expected disjunction: {inner:?}");
    };
    assert_eq!(disjuncts.len(), 6, "{disjuncts:#?}");
    let mtls = mv.mtls.unwrap();
    assert!(disjuncts.iter().any(|d| d.rels().contains(&mtls.strict)));
    // The rendered English mentions the new option.
    let english = env.render_english(session.vocab(), session.universe());
    assert!(english.contains("strict mutual TLS"), "{english}");
}

/// Synthesis can now *choose* strict mTLS as the mechanism: a mesh
/// whose only sidecar-less workload is the offender can be locked down
/// with a single PeerAuthentication object.
#[test]
fn synthesis_can_pick_mtls_as_the_mechanism() {
    // legacy-batch (no sidecar) must not reach the db; everyone else
    // keeps full reachability of their current flows.
    let mut mesh = Mesh::paper_example();
    mesh.add_service(Service::new("legacy-batch", [9000]).without_sidecar());
    let mv = MeshVocab::new_with_features(&mesh, [14000], PartyId(0), PartyId(1), true);
    let istio_rows = IstioGoal::parse_csv(
        "srcService,dstService,srcPort,dstPort\n\
         test-backend,test-db,14000,16000\n",
    )
    .unwrap();
    let mut session = muppet_domain::mesh::session(&mv, &[], &istio_rows, None).unwrap();
    // Hand-written K8s goal: legacy-batch must not reach the db at all,
    // over a variable no translated goal binds.
    let src = mv.svc_atom("legacy-batch").unwrap();
    let dst = mv.svc_atom("test-db").unwrap();
    let p = session.vocab().clone().fresh_var();
    let ban = muppet_logic::Formula::forall(
        p,
        mv.port_sort,
        muppet_logic::Formula::not(mv.allowed_formula(
            Term::Const(src),
            Term::Const(dst),
            Term::Var(p),
        )),
    );
    let k8s = session.party_mut(mv.k8s_party).unwrap();
    k8s.goals.push(NamedGoal::hard("ban legacy→db", ban));
    let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success, "core: {:?}", rec.core);
    // Verify on the dataplane: decompile everything and run the flows.
    let istio_cfg = &rec.configs[&mv.istio_party];
    let k8s_cfg = &rec.configs[&mv.k8s_party];
    let updated = mv.decompile_services(istio_cfg);
    let k8s_pol = mv.decompile_k8s(k8s_cfg);
    let istio_pol = mv.decompile_istio(istio_cfg);
    let peer_auth = mv.decompile_peer_auth(istio_cfg);
    for port in mv.ports() {
        assert!(
            !evaluate_flow_full(
                &updated,
                &k8s_pol,
                &istio_pol,
                &peer_auth,
                &Flow::new("legacy-batch", "test-db", 0, port),
            )
            .allowed,
            "legacy-batch must not reach test-db:{port}"
        );
    }
    let be_db = updated
        .service("test-db")
        .unwrap()
        .ports
        .iter()
        .any(|&p| {
            evaluate_flow_full(
                &updated,
                &k8s_pol,
                &istio_pol,
                &peer_auth,
                &Flow::new("test-backend", "test-db", 0, p),
            )
            .allowed
        });
    assert!(be_db, "backend must still reach the db");
}
