//! Synthetic scenario generation.
//!
//! Scenarios scale along the axes the paper's example fixes: number of
//! services, goal-table size, and how many goals collide with the other
//! party's port bans. Generation is deterministic given the seed.
//!
//! Two regimes share one code path:
//!
//! * **Paper scale** (the defaults): every service gets its own port
//!   range, relations are unbounded, and sessions look exactly like the
//!   hand-built paper fixtures — byte-identical to what the generator
//!   produced before it moved into this crate.
//! * **Large scale** (`port_pool > 0`, `bounded = true`): services draw
//!   from a small shared port pool (so the port sort stays small while
//!   the service sort grows to the thousands) and both parties attach
//!   *offers* — tight Kodkod-style upper bounds that pin the policy
//!   relations empty and limit `listens` to the declared exposure — so
//!   the solver's variable map stays sparse. Bounds only ever shrink the
//!   model space, so an `Unsat` label is preserved exactly, and the
//!   generator's `Sat` witness (services listen on their declared ports,
//!   no extra policies) lies inside the bounds by construction.

use muppet::Session;
use muppet_goals::{IstioGoal, K8sGoal, PortSpec};
use muppet_mesh::{Mesh, MeshVocab, Selector, Service};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Expected;

/// Scenario dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Number of services in the mesh.
    pub services: usize,
    /// Listening ports per service.
    pub ports_per_service: usize,
    /// Spare ports added to the universe (room for ∃-port goals).
    pub extra_ports: usize,
    /// Istio reachability goal rows (the tenant / mesh-admin side of
    /// the tenant–provider goal split).
    pub istio_goals: usize,
    /// K8s DENY-port goal rows (the provider / cluster-admin side).
    pub k8s_goals: usize,
    /// Fraction of K8s bans aimed at ports that Istio goals rely on
    /// (1.0 = every ban conflicts, 0.0 = bans only hit safe ports).
    pub conflict_fraction: f64,
    /// Fraction of Istio goal rows whose destination port is a named
    /// existential variable instead of a concrete port (Fig. 4 style
    /// flexibility).
    pub flexible_fraction: f64,
    /// Number of namespaces; services are assigned round-robin. With
    /// more than one, each K8s ban is namespace-scoped with probability
    /// ½ (the multi-tenant shape of the paper's Sec. 1 motivation).
    pub namespaces: usize,
    /// Label topology: with more than one tier, service `i` carries a
    /// `tier=t{i % tiers}` label and K8s bans may be label-scoped. `1`
    /// (the default) reproduces the historical generator byte for byte.
    pub tiers: usize,
    /// Shared port pool size. `0` (the default) gives every service its
    /// own `1000 + 100·i` port range — fine up to a few hundred
    /// services. A positive pool makes services draw their ports from
    /// `7000..7000+port_pool`, keeping the port sort (and with it the
    /// grounding product) small at thousands of services.
    pub port_pool: usize,
    /// Attach tight party offers (upper bounds) to the session so the
    /// solver materializes only the bounded support instead of the full
    /// tuple product. Required for `services ≳ 500`.
    pub bounded: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            services: 6,
            ports_per_service: 2,
            extra_ports: 4,
            istio_goals: 6,
            k8s_goals: 1,
            conflict_fraction: 0.0,
            flexible_fraction: 0.0,
            namespaces: 1,
            tiers: 1,
            port_pool: 0,
            bounded: false,
            seed: 0x4d55_5050,
        }
    }
}

/// A generated scenario: mesh, vocabulary and both goal tables.
pub struct Scenario {
    /// The mesh.
    pub mesh: Mesh,
    /// The logical vocabulary over it.
    pub mv: MeshVocab,
    /// K8s goal rows.
    pub k8s_goals: Vec<K8sGoal>,
    /// Istio goal rows.
    pub istio_goals: Vec<IstioGoal>,
    /// Parameters used.
    pub params: ScenarioParams,
}

/// Generate a scenario deterministically from its parameters.
pub fn generate(params: ScenarioParams) -> Scenario {
    assert!(
        params.port_pool > 0 || params.services <= 600,
        "legacy per-service port ranges overflow u16 beyond ~600 services; \
         set port_pool for large meshes"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut services = Vec::with_capacity(params.services);
    let mut all_ports: Vec<u16> = Vec::new();
    let namespaces = params.namespaces.max(1);
    for i in 0..params.services {
        let ports: Vec<u16> = if params.port_pool > 0 {
            // Draw distinct ports from the shared pool.
            let want = params.ports_per_service.min(params.port_pool);
            let mut picked: Vec<usize> = Vec::with_capacity(want);
            while picked.len() < want {
                let j = rng.random_range(0..params.port_pool);
                if !picked.contains(&j) {
                    picked.push(j);
                }
            }
            picked.into_iter().map(|j| 7000 + j as u16).collect()
        } else {
            let base = 1000 + (i as u16) * 100;
            (0..params.ports_per_service)
                .map(|j| base + j as u16)
                .collect()
        };
        all_ports.extend(&ports);
        let mut svc = Service::new(format!("svc-{i}"), ports)
            .in_namespace(format!("ns-{}", i % namespaces));
        if params.tiers > 1 {
            svc = svc.with_label("tier", format!("t{}", i % params.tiers));
        }
        services.push(svc);
    }
    let mesh = Mesh::from_services(services);
    if params.port_pool > 0 {
        all_ports.sort_unstable();
        all_ports.dedup();
    }
    let extra: Vec<u16> = (0..params.extra_ports)
        .map(|j| 20000 + j as u16)
        .collect();

    // Istio reachability goals: random src≠dst pairs; the destination
    // port is one the destination actually listens on (or an ∃ variable
    // for the flexible fraction).
    let mut istio_goals = Vec::new();
    let mut used_ports: Vec<u16> = Vec::new();
    for gi in 0..params.istio_goals {
        let si = rng.random_range(0..params.services);
        let mut di = rng.random_range(0..params.services);
        if params.services > 1 {
            while di == si {
                di = rng.random_range(0..params.services);
            }
        }
        let dst_svc = mesh.service(&format!("svc-{di}")).expect("generated");
        let dst_ports: Vec<u16> = dst_svc.ports.iter().copied().collect();
        let port = dst_ports[rng.random_range(0..dst_ports.len())];
        let flexible = rng.random_bool(params.flexible_fraction.clamp(0.0, 1.0));
        let dst_port = if flexible {
            PortSpec::Var(format!("p{gi}"))
        } else {
            used_ports.push(port);
            PortSpec::Port(port)
        };
        istio_goals.push(IstioGoal {
            src: format!("svc-{si}"),
            dst: format!("svc-{di}"),
            src_port: PortSpec::Any,
            dst_port,
        });
    }

    // K8s bans: conflicting bans target ports that concrete Istio goals
    // depend on; benign bans target unused ports, falling back to the
    // spare ports when the whole listening set is goal-covered (the
    // usual case with a small shared pool).
    let unused: Vec<u16> = all_ports
        .iter()
        .copied()
        .filter(|p| !used_ports.contains(p))
        .collect();
    let mut k8s_goals = Vec::new();
    for _ in 0..params.k8s_goals {
        let conflicting = rng.random_bool(params.conflict_fraction.clamp(0.0, 1.0));
        let port = if conflicting && !used_ports.is_empty() {
            used_ports[rng.random_range(0..used_ports.len())]
        } else if !unused.is_empty() {
            unused[rng.random_range(0..unused.len())]
        } else if !conflicting && !extra.is_empty() {
            extra[rng.random_range(0..extra.len())]
        } else if !all_ports.is_empty() {
            all_ports[rng.random_range(0..all_ports.len())]
        } else {
            20000
        };
        if k8s_goals
            .iter()
            .any(|g: &K8sGoal| g.port == port)
        {
            continue; // avoid duplicate bans
        }
        let selector = if params.tiers > 1 && rng.random_bool(0.5) {
            Selector::label("tier", format!("t{}", rng.random_range(0..params.tiers)))
        } else if namespaces > 1 && rng.random_bool(0.5) {
            Selector::Namespace(format!("ns-{}", rng.random_range(0..namespaces)))
        } else {
            Selector::All
        };
        k8s_goals.push(K8sGoal {
            port,
            perm: muppet_mesh::Action::Deny,
            selector,
        });
    }

    let mv = MeshVocab::new(
        &mesh,
        extra,
        muppet_logic::PartyId(0),
        muppet_logic::PartyId(1),
    );
    Scenario {
        mesh,
        mv,
        k8s_goals,
        istio_goals,
        params,
    }
}

/// The ports banned by `k8s_goals` that some concrete Istio goal row
/// needs — the built-in conflicts of a `(mesh, bans, goals)` state.
/// Shared by [`Scenario::conflicting_ports`] and the edit-stream
/// replay in [`crate::stream`], which evolves bare parts without
/// paying for vocabulary rebuilds.
pub fn conflicting_ports_of(
    mesh: &Mesh,
    k8s_goals: &[K8sGoal],
    istio_goals: &[IstioGoal],
) -> Vec<u16> {
    k8s_goals
        .iter()
        .filter(|k| {
            istio_goals.iter().any(|g| {
                g.dst_port == PortSpec::Port(k.port)
                    && mesh
                        .service(&g.dst)
                        .map(|d| k.selector.matches(d))
                        .unwrap_or(false)
            })
        })
        .map(|k| k.port)
        .collect()
}

impl Scenario {
    /// Build a two-party Muppet session for this scenario with the mesh
    /// domain's builder ([`muppet_domain::mesh::session`]).
    /// `soft_istio` marks the Istio goals droppable (for negotiation
    /// experiments). With `params.bounded`, both parties carry the
    /// builder's tight offers over the spare ports.
    pub fn session(&self, soft_istio: bool) -> Session<'_> {
        let spare = self.params.bounded.then(|| self.extra_port_list());
        let mut session = muppet_domain::mesh::session(
            &self.mv,
            &self.k8s_goals,
            &self.istio_goals,
            spare.as_deref(),
        )
        .expect("generated goals");
        if soft_istio {
            let istio = session.party_mut(self.mv.istio_party).expect("istio party");
            for g in &mut istio.goals {
                g.hard = false;
            }
        }
        session
    }

    /// Render the scenario as daemon wire content: `(manifests YAML,
    /// k8s goal CSV, istio goal CSV, extra ports)` — the fields of a
    /// `muppet-daemon` `SessionSpec`. Round-trips through the same
    /// parsers the CLI uses, so a daemon loaded from these strings sees
    /// the scenario's mesh and goal tables.
    pub fn wire_content(&self) -> (String, String, String, Vec<u16>) {
        let manifests = muppet_mesh::manifest::emit_bundle(&muppet_mesh::manifest::ManifestBundle {
            mesh: self.mesh.clone(),
            ..Default::default()
        });
        let k8s = k8s_goals_csv(&self.k8s_goals);
        let istio = istio_goals_csv(&self.istio_goals);
        (manifests, k8s, istio, self.extra_port_list())
    }

    /// The ports banned by the K8s goals that some concrete Istio goal
    /// needs — i.e. the built-in conflicts. Namespace-scoped bans only
    /// conflict with goals whose destination lives in the banned
    /// namespace.
    pub fn conflicting_ports(&self) -> Vec<u16> {
        conflicting_ports_of(&self.mesh, &self.k8s_goals, &self.istio_goals)
    }

    /// The spare ports this scenario adds to the universe (the
    /// `extra_ports` parameter, materialized).
    pub fn extra_port_list(&self) -> Vec<u16> {
        (0..self.params.extra_ports)
            .map(|j| 20000 + j as u16)
            .collect()
    }

    /// Rebuild the vocabulary after a mesh mutation (see
    /// [`crate::stream::ConfigDelta::apply`]). The rebuild is purely
    /// content-driven — a rebuild from identical mesh content yields a
    /// vocabulary with an identical atom layout.
    pub fn rebuild_vocab(&mut self) {
        let extra = self.extra_port_list();
        self.mv = MeshVocab::new(
            &self.mesh,
            extra,
            muppet_logic::PartyId(0),
            muppet_logic::PartyId(1),
        );
    }

    /// The verdict this scenario is constructed to have, derived from
    /// its built-in conflicts: a ban covering a destination on a port a
    /// concrete reachability row needs is a contradiction no
    /// configuration resolves (the ban's translation quantifies over
    /// every source), and with no such collision the declared-exposure /
    /// no-policy configuration satisfies everything. Valid when the
    /// session is built with hard Istio goals (`session(false)`).
    pub fn expected_label(&self) -> Expected {
        if self.conflicting_ports().is_empty() {
            Expected::Sat
        } else {
            Expected::Unsat
        }
    }

    /// The `scenario.json` provenance stamp: schema id, full parameter
    /// set, seed and expected verdict, plus summary counts. Field order
    /// and float formatting are stable, so byte-equality of two stamps
    /// means two identical scenarios.
    pub fn provenance_json(&self, name: &str) -> String {
        let p = &self.params;
        let conflicts: Vec<String> = self
            .conflicting_ports()
            .iter()
            .map(|c| c.to_string())
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"muppet-scenario-v1\",\"name\":\"{}\",\"seed\":{},",
                "\"params\":{{\"services\":{},\"ports_per_service\":{},\"extra_ports\":{},",
                "\"istio_goals\":{},\"k8s_goals\":{},\"conflict_fraction\":{:?},",
                "\"flexible_fraction\":{:?},\"namespaces\":{},\"tiers\":{},",
                "\"port_pool\":{},\"bounded\":{}}},",
                "\"expected\":\"{}\",\"conflicting_ports\":[{}],",
                "\"services\":{},\"k8s_goal_rows\":{},\"istio_goal_rows\":{}}}"
            ),
            name,
            p.seed,
            p.services,
            p.ports_per_service,
            p.extra_ports,
            p.istio_goals,
            p.k8s_goals,
            p.conflict_fraction,
            p.flexible_fraction,
            p.namespaces,
            p.tiers,
            p.port_pool,
            p.bounded,
            self.expected_label(),
            conflicts.join(","),
            self.mesh.services().len(),
            self.k8s_goals.len(),
            self.istio_goals.len(),
        )
    }
}

// The CSV serializers live next to their parsers in `muppet-goals`
// (one crate owns the row grammar); re-exported here because scenario
// consumers historically found them at this path.
pub use muppet_goals::{istio_goals_csv, k8s_goals_csv};

#[cfg(test)]
mod tests {
    use super::*;
    use muppet::ReconcileMode;

    #[test]
    fn generation_is_deterministic() {
        let p = ScenarioParams::default();
        let a = generate(p);
        let b = generate(p);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.k8s_goals, b.k8s_goals);
        assert_eq!(a.istio_goals, b.istio_goals);
        assert_eq!(a.provenance_json("t"), b.provenance_json("t"));
    }

    #[test]
    fn no_conflict_scenarios_reconcile() {
        let s = generate(ScenarioParams {
            conflict_fraction: 0.0,
            ..ScenarioParams::default()
        });
        assert!(s.conflicting_ports().is_empty());
        assert_eq!(s.expected_label(), Expected::Sat);
        let mut session = s.session(false);
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.success);
    }

    #[test]
    fn forced_conflicts_fail_reconciliation() {
        let s = generate(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals: 2,
            ..ScenarioParams::default()
        });
        assert!(!s.conflicting_ports().is_empty());
        assert_eq!(s.expected_label(), Expected::Unsat);
        let mut session = s.session(false);
        let rec = session.reconcile(ReconcileMode::Blameable).unwrap();
        assert!(!rec.success);
        assert!(!rec.core.is_empty());
    }

    #[test]
    fn flexible_goals_survive_bans() {
        // Fully flexible Istio goals can always dodge a ban via the
        // spare ports.
        let s = generate(ScenarioParams {
            conflict_fraction: 1.0,
            flexible_fraction: 1.0,
            k8s_goals: 2,
            ..ScenarioParams::default()
        });
        let mut session = s.session(false);
        let rec = session.reconcile(ReconcileMode::HardBounds).unwrap();
        assert!(rec.success);
    }

    #[test]
    fn namespaced_scenarios_generate_and_behave() {
        let s = generate(ScenarioParams {
            services: 8,
            namespaces: 3,
            k8s_goals: 3,
            conflict_fraction: 1.0,
            seed: 21,
            ..ScenarioParams::default()
        });
        // Services are spread over the namespaces.
        let namespaces: std::collections::BTreeSet<&str> = s
            .mesh
            .services()
            .iter()
            .map(|svc| svc.namespace.as_str())
            .collect();
        assert_eq!(namespaces.len(), 3);
        // The session solves either way; if conflicts exist the core
        // names goals, not the whole table.
        let mut session = s.session(false);
        let rec = session.reconcile(muppet::ReconcileMode::Blameable).unwrap();
        if s.conflicting_ports().is_empty() {
            assert!(rec.success);
        } else {
            assert!(!rec.success);
            assert!(rec.core.len() < 2 * s.istio_goals.len());
        }
    }

    #[test]
    fn scales_to_more_services() {
        let s = generate(ScenarioParams {
            services: 12,
            istio_goals: 12,
            ..ScenarioParams::default()
        });
        assert_eq!(s.mesh.services().len(), 12);
        let mut session = s.session(false);
        assert!(session.reconcile(ReconcileMode::HardBounds).unwrap().success);
    }

    #[test]
    fn pooled_ports_and_tiers_shape_the_mesh() {
        let s = generate(ScenarioParams {
            services: 40,
            ports_per_service: 3,
            port_pool: 6,
            tiers: 4,
            namespaces: 5,
            istio_goals: 10,
            seed: 3,
            ..ScenarioParams::default()
        });
        // Every port comes from the pool; the port sort stays small.
        for svc in s.mesh.services() {
            assert_eq!(svc.ports.len(), 3);
            for &p in &svc.ports {
                assert!((7000..7006).contains(&p), "pool port, got {p}");
            }
            assert!(svc.labels.iter().any(|(k, _)| k == "tier"));
        }
        // Deterministic across runs, like the legacy path.
        let t = generate(s.params);
        assert_eq!(s.mesh, t.mesh);
        assert_eq!(s.k8s_goals, t.k8s_goals);
        assert_eq!(s.istio_goals, t.istio_goals);
    }

    #[test]
    fn bounded_sessions_agree_with_unbounded_verdicts() {
        // Same scenario, bounded and unbounded: identical verdicts on
        // both a SAT and an UNSAT instance (bounds are sound).
        for (conflict, expect_ok) in [(0.0, true), (1.0, false)] {
            let mut params = ScenarioParams {
                services: 10,
                conflict_fraction: conflict,
                k8s_goals: 2,
                istio_goals: 8,
                seed: 9,
                ..ScenarioParams::default()
            };
            let free = generate(params);
            let rec_free = free.session(false).reconcile(ReconcileMode::HardBounds).unwrap();
            params.bounded = true;
            let bounded = generate(params);
            let rec_bounded = bounded
                .session(false)
                .reconcile(ReconcileMode::HardBounds)
                .unwrap();
            assert_eq!(rec_free.success, expect_ok);
            assert_eq!(rec_bounded.success, expect_ok, "bounded verdict diverged");
        }
    }

    #[test]
    fn provenance_carries_label_and_params() {
        let s = generate(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals: 2,
            ..ScenarioParams::default()
        });
        let j = s.provenance_json("probe");
        assert!(j.contains("\"name\":\"probe\""));
        assert!(j.contains("\"expected\":\"unsat\""));
        assert!(j.contains("\"services\":6"));
    }
}
