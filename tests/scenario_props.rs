//! Properties of the scenario generator (DESIGN.md §15): seeded
//! determinism (same seed + params ⇒ byte-identical output, checked on
//! freshly generated scenarios, not cached ones) and wire-format
//! round-trips — generated YAML through the depth-limited manifest
//! parser, generated CSVs through the goal-table parsers.

use muppet::ReconcileMode;
use muppet_domain::{ConfigDomain, DomainInput, MeshDomain};
use muppet_goals::{IstioGoal, K8sGoal};
use muppet_mesh::manifest::parse_manifests;
use muppet_scenario::{generate, ScenarioParams};
use muppet_stream::{verdict_line, StreamSpec};
use proptest::prelude::*;

/// A strategy over the whole parameter space the corpus draws from,
/// kept small enough that a case generates in milliseconds.
fn params_strategy() -> impl Strategy<Value = ScenarioParams> {
    (
        3usize..=20,          // services
        1usize..=3,           // ports_per_service
        0usize..=6,           // extra_ports
        0usize..=12,          // istio_goals
        0usize..=3,           // k8s_goals
        0u8..=2,              // conflict_fraction thirds
        0u8..=2,              // flexible_fraction thirds
        1usize..=3,           // namespaces
        1usize..=4,           // tiers
        0usize..=4,           // port_pool
        any::<bool>(),        // bounded
        any::<u64>(),         // seed
    )
        .prop_map(
            |(services, pps, extra, istio, k8s, cf, ff, ns, tiers, pool, bounded, seed)| {
                ScenarioParams {
                    services,
                    ports_per_service: pps,
                    extra_ports: extra,
                    istio_goals: istio,
                    k8s_goals: k8s,
                    conflict_fraction: cf as f64 / 2.0,
                    flexible_fraction: ff as f64 / 2.0,
                    namespaces: ns,
                    tiers,
                    port_pool: pool,
                    bounded,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed + params ⇒ byte-identical manifests, goal tables and
    /// provenance, across two independent generator runs.
    #[test]
    fn generation_is_byte_deterministic(params in params_strategy()) {
        let a = generate(params);
        let b = generate(params);
        prop_assert_eq!(a.wire_content(), b.wire_content());
        prop_assert_eq!(a.provenance_json("prop"), b.provenance_json("prop"));
        prop_assert_eq!(a.expected_label(), b.expected_label());
    }

    /// Generated YAML survives the depth-limited manifest parser with
    /// every service, namespace, label and port intact, and the goal
    /// CSVs survive their own parsers row for row.
    #[test]
    fn wire_content_round_trips(params in params_strategy()) {
        let s = generate(params);
        let (manifests, k8s_csv, istio_csv, _extras) = s.wire_content();

        let bundle = parse_manifests(&manifests).expect("generated YAML parses");
        prop_assert_eq!(bundle.mesh.services().len(), s.mesh.services().len());
        for svc in s.mesh.services() {
            let parsed = bundle
                .mesh
                .service(&svc.name)
                .expect("service survives the round-trip");
            prop_assert_eq!(parsed, svc);
        }

        let k8s = K8sGoal::parse_csv(&k8s_csv).expect("generated k8s CSV parses");
        prop_assert_eq!(&k8s, &s.k8s_goals);
        let istio = IstioGoal::parse_csv(&istio_csv).expect("generated istio CSV parses");
        prop_assert_eq!(&istio, &s.istio_goals);
    }

    /// The bounded (offer-carrying) session reaches the same verdict as
    /// the unbounded one: bounds are an optimization, never a semantic
    /// change.
    #[test]
    fn bounded_verdict_matches_unbounded(seed in 0u64..32, conflict in 0u8..=1) {
        let base = ScenarioParams {
            services: 6,
            istio_goals: 6,
            k8s_goals: 2,
            conflict_fraction: conflict as f64,
            seed,
            ..ScenarioParams::default()
        };
        let unbounded = generate(ScenarioParams { bounded: false, ..base });
        let bounded = generate(ScenarioParams { bounded: true, ..base });
        let ru = unbounded
            .session(false)
            .reconcile(muppet::ReconcileMode::HardBounds)
            .unwrap();
        let rb = bounded
            .session(false)
            .reconcile(muppet::ReconcileMode::HardBounds)
            .unwrap();
        prop_assert_eq!(ru.success, rb.success);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every mesh session path goes through one builder, so the mesh
    /// domain's model of the scenario's wire content (the daemon's
    /// `open_session`), the scenario's own session and the stream's
    /// spec pose the same problem: byte-identical verdict lines. The
    /// wire carries no offers, so the scenarios are unbounded.
    #[test]
    fn mesh_session_paths_give_identical_verdicts(params in params_strategy()) {
        let sc = generate(ScenarioParams { bounded: false, ..params });
        let (manifests, k8s, istio, extra_ports) = sc.wire_content();
        let model = MeshDomain
            .build(&DomainInput { manifests, goals: vec![k8s, istio], mtls: false, extra_ports })
            .expect("generated wire content builds");
        let spec = StreamSpec::from(&sc);
        let mv = spec.vocab();
        let verdicts = [
            model.session().reconcile(ReconcileMode::HardBounds),
            sc.session(false).reconcile(ReconcileMode::HardBounds),
            spec.session(&mv).expect("stream session").reconcile(ReconcileMode::HardBounds),
        ]
        .map(|rec| verdict_line(&rec.expect("reconcile")));
        prop_assert_eq!(&verdicts[0], &verdicts[1]);
        prop_assert_eq!(&verdicts[2], &verdicts[1]);
    }
}
