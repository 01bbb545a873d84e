//! Multi-tenant namespaces, end to end — the paper's motivating setting:
//! "all of these big companies have multiple teams … they need to make
//! it possible for those different teams, with potentially different
//! security requirements …, to deploy to a single cluster" (Sec. 1).
//!
//! Two tenant teams share a cluster in separate namespaces; the platform
//! (K8s) administrator states namespace-scoped goals, and envelopes and
//! synthesis respect the tenancy boundary.

use muppet::ReconcileMode;
use muppet_goals::{IstioGoal, K8sGoal};
use muppet_logic::PartyId;
use muppet_mesh::{
    evaluate_flow, AuthPolicyRule, AuthorizationPolicy, Flow, Mesh, MeshVocab, Selector, Service,
};

/// A two-tenant cluster: team `shop` and team `pay`, one shared
/// ingress-ish frontend per team.
fn tenant_mesh() -> Mesh {
    let mut mesh = Mesh::new();
    mesh.add_service(Service::new("shop-web", [8080]).in_namespace("shop"));
    mesh.add_service(Service::new("shop-db", [5432]).in_namespace("shop"));
    mesh.add_service(Service::new("pay-api", [8443]).in_namespace("pay"));
    mesh.add_service(Service::new("pay-ledger", [5432]).in_namespace("pay"));
    mesh
}

#[test]
fn namespace_selectors_match_and_expand() {
    let mesh = tenant_mesh();
    assert_eq!(mesh.select(&Selector::Namespace("shop".into())).len(), 2);
    assert_eq!(mesh.select(&Selector::Namespace("pay".into())).len(), 2);
    assert_eq!(mesh.select(&Selector::Namespace("ghost".into())).len(), 0);
}

#[test]
fn namespace_scoped_auth_rules_on_the_dataplane() {
    let mesh = tenant_mesh();
    // The pay ledger only accepts traffic from its own namespace.
    let policy = AuthorizationPolicy {
        name: "pay-only".into(),
        selector: Selector::Name("pay-ledger".into()),
        direction: muppet_mesh::Direction::Ingress,
        action: muppet_mesh::Action::Allow,
        rules: vec![AuthPolicyRule::from_namespaces(["pay"])],
    };
    let ok = Flow::new("pay-api", "pay-ledger", 0, 5432);
    let cross = Flow::new("shop-web", "pay-ledger", 0, 5432);
    assert!(evaluate_flow(&mesh, &[], std::slice::from_ref(&policy), &ok).allowed);
    let d = evaluate_flow(&mesh, &[], std::slice::from_ref(&policy), &cross);
    assert!(!d.allowed);
    assert!(d.trace.last().unwrap().contains("implicit deny"));
}

#[test]
fn namespace_rules_compile_like_their_expansion() {
    let mesh = tenant_mesh();
    let mv = MeshVocab::new(&mesh, [], PartyId(0), PartyId(1));
    let by_namespace = AuthorizationPolicy {
        name: "ns".into(),
        selector: Selector::Name("pay-ledger".into()),
        direction: muppet_mesh::Direction::Ingress,
        action: muppet_mesh::Action::Allow,
        rules: vec![AuthPolicyRule::from_namespaces(["pay"])],
    };
    let by_services = AuthorizationPolicy {
        rules: vec![AuthPolicyRule::from_services(["pay-api", "pay-ledger"])],
        ..by_namespace.clone()
    };
    assert_eq!(
        mv.compile_istio(std::slice::from_ref(&by_namespace)).unwrap(),
        mv.compile_istio(std::slice::from_ref(&by_services)).unwrap()
    );
}

#[test]
fn namespace_goal_selector_scopes_the_ban() {
    // Platform admin: nothing in the `pay` namespace may be reached on
    // 5432 (the ledger port) — but the shop team's 5432 is its own
    // business.
    let mesh = tenant_mesh();
    let mv = MeshVocab::new(&mesh, [], PartyId(0), PartyId(1));
    let bans = K8sGoal::parse_csv("5432,DENY,ns=pay\n").unwrap();
    // Tenants: shop needs its web → db flow; pay needs api → ledger —
    // which now conflicts.
    let flows = IstioGoal::parse_csv(
        "srcService,dstService,srcPort,dstPort\n\
         shop-web,shop-db,*,5432\n\
         pay-api,pay-ledger,*,5432\n",
    )
    .unwrap();
    let mut session = muppet_domain::mesh::session(&mv, &bans, &flows, None).unwrap();
    let rec = session.reconcile(ReconcileMode::Blameable).unwrap();
    assert!(!rec.success);
    // Blame names the namespace ban and the PAY goal, not the shop one.
    assert!(rec.core.iter().any(|c| c.contains("DENY port 5432")));
    assert!(rec.core.iter().any(|c| c.contains("pay-api -> pay-ledger")));
    assert!(
        !rec.core.iter().any(|c| c.contains("shop-web")),
        "the shop tenant is not part of the conflict: {:?}",
        rec.core
    );

    // Drop the pay goal: the shop flow synthesizes fine despite sharing
    // the port number — the ban was namespace-scoped.
    let tenants = session.party_mut(mv.istio_party).unwrap();
    tenants.goals.retain(|g| !g.name.contains("pay-api"));
    let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
    assert!(rec.success, "core: {:?}", rec.core);
}

#[test]
fn service_manifests_roundtrip_namespaces() {
    let mesh = tenant_mesh();
    let yaml = muppet_mesh::manifest::emit_service(mesh.service("pay-ledger").unwrap());
    assert!(yaml.contains("namespace: pay"));
    let doc = muppet_yaml::parse(&yaml).unwrap();
    let back = muppet_mesh::manifest::parse_service(&doc).unwrap();
    assert_eq!(&back, mesh.service("pay-ledger").unwrap());

    // Namespace-sourced auth rules round-trip too.
    let policy = AuthorizationPolicy {
        name: "ns".into(),
        selector: Selector::Namespace("pay".into()),
        direction: muppet_mesh::Direction::Ingress,
        action: muppet_mesh::Action::Allow,
        rules: vec![AuthPolicyRule::from_namespaces(["pay", "shop"])],
    };
    let yaml = muppet_mesh::manifest::emit_authorization_policy(&policy);
    assert!(yaml.contains("namespaces"));
    let doc = muppet_yaml::parse(&yaml).unwrap();
    let back = muppet_mesh::manifest::parse_authorization_policy(&doc).unwrap();
    assert_eq!(back, policy);
}
