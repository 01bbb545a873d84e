//! The complete Sec. 3 walkthrough, end to end, from the file formats
//! administrators actually use:
//!
//! 1. the mesh structure arrives as Kubernetes Service **YAML**
//!    (Fig. 1);
//! 2. goals arrive as **CSV** tables (Fig. 2 for K8s, Fig. 3 for Istio);
//! 3. reconciliation fails, blaming exactly the two clashing rows;
//! 4. the envelope `E_{K8s→Istio}` is produced (Fig. 5, both renderings);
//! 5. the Istio admin relaxes to the Fig. 4 table; synthesis succeeds;
//! 6. the synthesized configurations are decompiled back into
//!    NetworkPolicy / AuthorizationPolicy **YAML** manifests and
//!    verified flow-by-flow on the dataplane simulator.
//!
//! Run with `cargo run --example istio_k8s_walkthrough`.

use muppet::{ReconcileMode, Session};
use muppet_goals::{IstioGoal, K8sGoal};
use muppet_logic::{Instance, PartyId};
use muppet_mesh::manifest::{emit_authorization_policy, emit_network_policy, parse_manifests};
use muppet_mesh::{evaluate_flow, Flow, MeshVocab};

/// The Fig. 1 mesh as Service manifests (what `kubectl get svc -o yaml`
/// would show).
const SERVICES_YAML: &str = "\
---
apiVersion: v1
kind: Service
metadata:
  name: test-frontend
  labels:
    app: test-frontend
spec:
  ports:
  - port: 23
---
apiVersion: v1
kind: Service
metadata:
  name: test-backend
  labels:
    app: test-backend
spec:
  ports:
  - port: 25
  - port: 12000
---
apiVersion: v1
kind: Service
metadata:
  name: test-db
  labels:
    app: test-db
spec:
  ports:
  - port: 16000
";

/// Fig. 2: the K8s admin's goal table.
const K8S_GOALS_CSV: &str = "port,perm,selector\n23,DENY,*\n";

/// Fig. 3: the Istio admin's initial goal table.
const ISTIO_GOALS_CSV: &str = "\
srcService,dstService,srcPort,dstPort
test-frontend,test-backend,24,25
test-backend,test-frontend,26,23
test-backend,test-db,14000,16000
test-db,test-backend,10000,12000
";

/// Fig. 4: the relaxed table (existential ports ∃w ∃x ∃y ∃z).
const ISTIO_RELAXED_CSV: &str = "\
srcService,dstService,srcPort,dstPort
test-frontend,test-backend,?w,?x
test-backend,test-frontend,?y,?z
test-backend,test-db,14000,16000
test-db,test-backend,10000,12000
";

fn build_session<'a>(mv: &'a MeshVocab, istio_csv: &str) -> Session<'a> {
    let k8s_rows = K8sGoal::parse_csv(K8S_GOALS_CSV).expect("fig2 parses");
    let istio_rows = IstioGoal::parse_csv(istio_csv).expect("istio goals parse");
    muppet_domain::mesh::session(mv, &k8s_rows, &istio_rows, None).expect("translate")
}

fn main() {
    // ── 1. Ingest the mesh from YAML ────────────────────────────────
    let bundle = parse_manifests(SERVICES_YAML).expect("service manifests parse");
    println!("loaded {} services from YAML", bundle.mesh.services().len());
    // Port universe: mesh ports + the goal-table ports + spares.
    let mv = MeshVocab::new(
        &bundle.mesh,
        [24, 26, 10000, 14000],
        PartyId(0),
        PartyId(1),
    );

    // ── 2–3. Strict goals conflict ──────────────────────────────────
    let mut strict = build_session(&mv, ISTIO_GOALS_CSV);
    let rec = strict.reconcile(ReconcileMode::HardBounds).expect("solve");
    println!("\nstrict goals (Figs. 2+3): success = {}", rec.success);
    for name in &rec.core {
        println!("  conflict involves: {name}");
    }

    // ── 4. The envelope (Fig. 5) ────────────────────────────────────
    let envelope = strict
        .compute_envelope(mv.k8s_party, mv.istio_party, &Instance::new())
        .expect("envelope");
    println!("\n─ E_{{K8s→Istio}} (Alloy) ─");
    print!("{}", envelope.render_alloy(strict.vocab(), strict.universe()));
    println!("─ E_{{K8s→Istio}} (English) ─");
    print!(
        "{}",
        envelope.render_english(strict.vocab(), strict.universe())
    );

    // ── 5. Relax to Fig. 4 and synthesize ───────────────────────────
    let mut relaxed = build_session(&mv, ISTIO_RELAXED_CSV);
    let rec = relaxed.reconcile(ReconcileMode::HardBounds).expect("solve");
    println!("\nrelaxed goals (Fig. 4): success = {}", rec.success);
    assert!(rec.success, "the paper's relaxation must synthesize");

    // ── 6. Decompile to production YAML and verify on the dataplane ─
    let k8s_cfg = &rec.configs[&mv.k8s_party];
    let istio_cfg = &rec.configs[&mv.istio_party];
    let k8s_policies = mv.decompile_k8s(k8s_cfg);
    let istio_policies = mv.decompile_istio(istio_cfg);
    let updated_mesh = mv.decompile_services(istio_cfg);

    println!("\nsynthesized K8s NetworkPolicies:");
    for p in &k8s_policies {
        println!("---\n{}", emit_network_policy(p).trim_end());
    }
    println!("\nsynthesized Istio AuthorizationPolicies:");
    for p in &istio_policies {
        println!("---\n{}", emit_authorization_policy(p).trim_end());
    }
    println!("\nupdated service exposure:");
    for s in updated_mesh.services() {
        println!("  {} now listens on {:?}", s.name, s.ports);
    }

    // Dataplane check: the Fig. 1 reachability intents hold on some
    // ports, and port 23 is dead everywhere.
    println!("\ndataplane verification:");
    let pairs = [
        ("test-frontend", "test-backend"),
        ("test-backend", "test-frontend"),
        ("test-backend", "test-db"),
        ("test-db", "test-backend"),
    ];
    for (src, dst) in pairs {
        let reachable_port = updated_mesh
            .service(dst)
            .expect("exists")
            .ports
            .iter()
            .copied()
            .find(|&p| {
                evaluate_flow(
                    &updated_mesh,
                    &k8s_policies,
                    &istio_policies,
                    &Flow::new(src, dst, 0, p),
                )
                .allowed
            });
        match reachable_port {
            Some(p) => println!("  {src} → {dst}: reachable on port {p}"),
            None => println!("  {src} → {dst}: UNREACHABLE (bug!)"),
        }
        assert!(reachable_port.is_some());
    }
    for svc in updated_mesh.services() {
        for dst in updated_mesh.services() {
            let d = evaluate_flow(
                &updated_mesh,
                &k8s_policies,
                &istio_policies,
                &Flow::new(svc.name.clone(), dst.name.clone(), 0, 23),
            );
            assert!(!d.allowed, "{} → {}:23 must be blocked", svc.name, dst.name);
        }
    }
    println!("  port 23 is unreachable from everywhere: ban enforced ✓");
}
