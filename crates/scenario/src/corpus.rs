//! The committed graded scenario corpus.
//!
//! Four tiers, each an array of named entries with expected verdicts:
//!
//! * **smoke** — seconds-scale mesh scenarios; run everywhere.
//! * **paper** — the paper's walkthrough instances (Figs. 1–4) plus
//!   paper-scale generated meshes and a relational pigeonhole, an
//!   UNSAT verdict gate with a fully symmetric search space.
//! * **large** — ≥1000-service generated meshes with tight offers; the
//!   harness S1 scale lane runs the headline entries end to end and the
//!   rest behind `MUPPET_SCALE=full`.
//! * **hard** — CNF kernel stress: pigeonhole and the Partner Units
//!   Problem family.
//!
//! Every `smoke`/`paper` label is validated against the solver by
//! `tests/scenario_corpus.rs`; `large` labels are gated in the S1 lane.
//! Labels are never recomputed at run time — they are the committed
//! ground truth a run is compared against.

use crate::hard::{php_cnf, pup_sat, pup_unsat, CnfInstance};
use crate::paper::{php_relational, session, vocab, IstioTable};
use crate::stream::{StreamParams, StreamProfile};
use crate::{generate, generate_stream, Expected, ScenarioParams};

/// Corpus tier: how big / slow an entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Tiny mesh scenarios; always run.
    Smoke,
    /// The paper's fixed instances and paper-scale meshes.
    Paper,
    /// ≥1000-service generated meshes (bounded sessions).
    Large,
    /// CNF kernel stress instances.
    Hard,
}

impl Tier {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Paper => "paper",
            Tier::Large => "large",
            Tier::Hard => "hard",
        }
    }

    /// Parse a tier name.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "smoke" => Some(Tier::Smoke),
            "paper" => Some(Tier::Paper),
            "large" => Some(Tier::Large),
            "hard" => Some(Tier::Hard),
            _ => None,
        }
    }
}

/// What an entry materializes into.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A generated mesh scenario (ground → encode → search pipeline).
    Mesh(ScenarioParams),
    /// The paper's strict tables (Fig. 2 vs Fig. 3).
    PaperStrict,
    /// The paper's relaxed tables (Fig. 2 vs Fig. 4).
    PaperRelaxed,
    /// Relational pigeonhole over the bounded-FOL pipeline.
    PhpRelational {
        /// Pigeons.
        pigeons: usize,
        /// Holes.
        holes: usize,
    },
    /// Propositional pigeonhole, straight CNF.
    PhpCnf {
        /// Pigeons.
        pigeons: usize,
        /// Holes.
        holes: usize,
    },
    /// Satisfiable Partner-Units instance.
    PupSat {
        /// Zones (and sensors).
        zones: usize,
        /// Zone–sensor edges.
        edges: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Unsatisfiable (over-capacity) Partner-Units instance.
    PupUnsat {
        /// Control units; zones = 2·units + 1.
        units: usize,
    },
    /// A generated edit stream (streaming-reconfiguration workload);
    /// the committed label is the verdict of the *final* state after
    /// replaying every delta.
    Stream(StreamParams),
    /// A committed fixture of a registered [`muppet_domain`] plugin
    /// (looked up by name); the fixtures come from [`domain_wire`].
    Domain {
        /// Registered domain name (`muppet_domain::lookup`).
        domain: &'static str,
    },
}

/// One committed corpus entry.
#[derive(Clone, Copy, Debug)]
pub struct CorpusEntry {
    /// Unique name (`muppet-cli gen --scenario <name>`).
    pub name: &'static str,
    /// Tier.
    pub tier: Tier,
    /// What to build.
    pub kind: Kind,
    /// The committed expected verdict.
    pub expected: Expected,
    /// One-line description.
    pub note: &'static str,
}

/// Paper-scale generator defaults shared by the corpus' mesh entries.
const BASE: ScenarioParams = ScenarioParams {
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
};

/// Large-tier generator defaults: shared port pool, tier labels,
/// multi-tenant namespaces, bounded offers.
const LARGE_BASE: ScenarioParams = ScenarioParams {
    services: 1000,
    ports_per_service: 3,
    extra_ports: 4,
    istio_goals: 150,
    k8s_goals: 3,
    conflict_fraction: 0.0,
    flexible_fraction: 0.1,
    namespaces: 10,
    tiers: 4,
    port_pool: 6,
    bounded: true,
    seed: 71,
};

/// Base mesh of the committed churn streams: paper-scale, multi-tenant
/// namespaces and tier labels, shared port pool so stream edits collide
/// on ports.
const STREAM_BASE: ScenarioParams = ScenarioParams {
    services: 24,
    ports_per_service: 2,
    extra_ports: 4,
    istio_goals: 16,
    k8s_goals: 2,
    conflict_fraction: 0.0,
    flexible_fraction: 0.0,
    namespaces: 2,
    tiers: 2,
    port_pool: 8,
    bounded: false,
    seed: 0x4d55_5050,
};

/// The committed corpus.
pub const CORPUS: &[CorpusEntry] = &[
    // ---- smoke ----
    CorpusEntry {
        name: "smoke-baseline",
        tier: Tier::Smoke,
        kind: Kind::Mesh(BASE),
        expected: Expected::Sat,
        note: "default 6-service mesh, benign ban",
    },
    CorpusEntry {
        name: "smoke-conflict",
        tier: Tier::Smoke,
        kind: Kind::Mesh(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals: 2,
            ..BASE
        }),
        expected: Expected::Unsat,
        note: "every ban targets a goal port",
    },
    CorpusEntry {
        name: "smoke-flex",
        tier: Tier::Smoke,
        kind: Kind::Mesh(ScenarioParams {
            conflict_fraction: 1.0,
            flexible_fraction: 1.0,
            k8s_goals: 2,
            ..BASE
        }),
        expected: Expected::Sat,
        note: "∃-port goals dodge every ban via spare ports",
    },
    // ---- paper ----
    CorpusEntry {
        name: "paper-strict",
        tier: Tier::Paper,
        kind: Kind::PaperStrict,
        expected: Expected::Unsat,
        note: "Fig. 2 port-23 ban vs Fig. 3 telnet row",
    },
    CorpusEntry {
        name: "paper-relaxed",
        tier: Tier::Paper,
        kind: Kind::PaperRelaxed,
        expected: Expected::Sat,
        note: "Fig. 2 vs Fig. 4 ∃-port rows (synthesis)",
    },
    CorpusEntry {
        name: "paper-mesh-12",
        tier: Tier::Paper,
        kind: Kind::Mesh(ScenarioParams {
            services: 12,
            istio_goals: 12,
            ..BASE
        }),
        expected: Expected::Sat,
        note: "paper-scale generated mesh (E-lane shape)",
    },
    CorpusEntry {
        name: "paper-mesh-12-conflict",
        tier: Tier::Paper,
        kind: Kind::Mesh(ScenarioParams {
            services: 12,
            istio_goals: 12,
            k8s_goals: 2,
            conflict_fraction: 1.0,
            ..BASE
        }),
        expected: Expected::Unsat,
        note: "paper-scale mesh, every ban targets a goal port (blame/negotiation shape)",
    },
    CorpusEntry {
        name: "linkerd-shop",
        tier: Tier::Paper,
        kind: Kind::Domain { domain: "linkerd" },
        expected: Expected::Unsat,
        note: "Linkerd default-deny shop: strict-mTLS db vs the unmeshed legacy client",
    },
    CorpusEntry {
        name: "php-9-8",
        tier: Tier::Paper,
        kind: Kind::PhpRelational {
            pigeons: 9,
            holes: 8,
        },
        expected: Expected::Unsat,
        note: "relational pigeonhole (symmetric UNSAT verdict gate)",
    },
    CorpusEntry {
        name: "stream-policy-churn",
        tier: Tier::Paper,
        kind: Kind::Stream(StreamParams {
            base: STREAM_BASE,
            profile: StreamProfile::PolicyChurn,
            deltas: 250,
            target_services: 0,
            seed: 101,
        }),
        expected: Expected::Sat,
        note: "250 ban upserts/retractions over a fixed 24-svc mesh",
    },
    CorpusEntry {
        name: "stream-goal-churn",
        tier: Tier::Paper,
        kind: Kind::Stream(StreamParams {
            base: STREAM_BASE,
            profile: StreamProfile::GoalChurn,
            deltas: 200,
            target_services: 0,
            seed: 102,
        }),
        expected: Expected::Unsat,
        note: "200 goal-row revisions over a fixed 24-svc mesh; the churn leaves a goal on a banned port",
    },
    CorpusEntry {
        name: "stream-bounded-churn",
        tier: Tier::Paper,
        kind: Kind::Stream(StreamParams {
            base: ScenarioParams {
                bounded: true,
                ..STREAM_BASE
            },
            profile: StreamProfile::PolicyChurn,
            deltas: 250,
            target_services: 0,
            seed: 101,
        }),
        expected: Expected::Sat,
        note: "250 ban upserts over a bounded-offer 24-svc mesh; tight offers keep the model canonicalizable (W1 lane workload)",
    },
    // ---- large ----
    CorpusEntry {
        name: "large-1000-sat",
        tier: Tier::Large,
        kind: Kind::Mesh(LARGE_BASE),
        expected: Expected::Sat,
        note: "1000 services, 150 goals, benign bans, bounded",
    },
    CorpusEntry {
        name: "large-1000-unsat",
        tier: Tier::Large,
        kind: Kind::Mesh(ScenarioParams {
            conflict_fraction: 1.0,
            k8s_goals: 2,
            seed: 72,
            ..LARGE_BASE
        }),
        expected: Expected::Unsat,
        note: "1000 services, bans on goal ports, bounded",
    },
    CorpusEntry {
        name: "large-2500-sat",
        tier: Tier::Large,
        kind: Kind::Mesh(ScenarioParams {
            services: 2500,
            istio_goals: 250,
            seed: 73,
            ..LARGE_BASE
        }),
        expected: Expected::Sat,
        note: "2500 services (MUPPET_SCALE=full only)",
    },
    CorpusEntry {
        name: "stream-growth-1000",
        tier: Tier::Large,
        kind: Kind::Stream(StreamParams {
            base: ScenarioParams {
                services: 10,
                istio_goals: 8,
                k8s_goals: 1,
                flexible_fraction: 0.0,
                ..LARGE_BASE
            },
            profile: StreamProfile::Growth,
            deltas: 1140,
            target_services: 1000,
            seed: 103,
        }),
        expected: Expected::Sat,
        note: "mesh grows 10 → 1000 services, goals follow, bounded",
    },
    // ---- hard ----
    CorpusEntry {
        name: "hard-php-8-7",
        tier: Tier::Hard,
        kind: Kind::PhpCnf {
            pigeons: 8,
            holes: 7,
        },
        expected: Expected::Unsat,
        note: "propositional pigeonhole (symmetric UNSAT refutation)",
    },
    CorpusEntry {
        name: "hard-pup-sat-40",
        tier: Tier::Hard,
        kind: Kind::PupSat {
            zones: 40,
            edges: 90,
            seed: 11,
        },
        expected: Expected::Sat,
        note: "Partner Units, planted placement, 20 units",
    },
    CorpusEntry {
        name: "hard-pup-unsat-5",
        tier: Tier::Hard,
        kind: Kind::PupUnsat { units: 5 },
        expected: Expected::Unsat,
        note: "11 zones on 5 capacity-2 units: over capacity",
    },
];

/// All entries of one tier, in committed order.
pub fn entries(tier: Tier) -> impl Iterator<Item = &'static CorpusEntry> {
    CORPUS.iter().filter(move |e| e.tier == tier)
}

/// Look an entry up by name.
pub fn entry(name: &str) -> Option<&'static CorpusEntry> {
    CORPUS.iter().find(|e| e.name == name)
}

/// Build the CNF instance behind a CNF-kind entry (`None` for mesh /
/// paper kinds).
pub fn cnf_instance(kind: Kind) -> Option<CnfInstance> {
    match kind {
        Kind::PhpCnf { pigeons, holes } => Some(php_cnf(pigeons, holes)),
        Kind::PupSat { zones, edges, seed } => Some(pup_sat(zones, edges, seed)),
        Kind::PupUnsat { units } => Some(pup_unsat(units)),
        _ => None,
    }
}

/// The committed wire fixture of a [`Kind::Domain`] entry: manifests
/// plus one goal-table text per party, in the domain's slot order.
/// `None` for domains without a committed corpus fixture.
pub fn domain_wire(domain: &str) -> Option<(String, Vec<String>)> {
    match domain {
        "linkerd" => Some((
            muppet_domain::linkerd::example_manifests(),
            vec![
                muppet_domain::linkerd::example_platform_goals(),
                muppet_domain::linkerd::example_linkerd_goals(),
            ],
        )),
        _ => None,
    }
}

/// Build the [`muppet_domain::DomainModel`] behind a [`Kind::Domain`]
/// entry via the plugin registry.
pub fn domain_model(domain: &str) -> muppet_domain::DomainModel {
    let d = muppet_domain::lookup(domain).expect("corpus domain is registered");
    let (manifests, goals) = domain_wire(domain).expect("corpus domain has a committed fixture");
    d.build(&muppet_domain::DomainInput {
        manifests,
        goals,
        mtls: false,
        extra_ports: Vec::new(),
    })
    .expect("corpus domain fixture builds")
}

/// Run an entry through the appropriate solver pipeline and return the
/// observed verdict. Panics on a budget-exhausted (unknown) outcome —
/// corpus entries are sized to finish.
pub fn solver_verdict(entry: &CorpusEntry) -> Expected {
    fn of_success(success: bool) -> Expected {
        if success {
            Expected::Sat
        } else {
            Expected::Unsat
        }
    }
    match entry.kind {
        Kind::Mesh(params) => {
            let s = generate(params);
            let rec = s
                .session(false)
                .reconcile(muppet::ReconcileMode::HardBounds)
                .expect("corpus mesh reconciles within budget");
            of_success(rec.success)
        }
        Kind::PaperStrict | Kind::PaperRelaxed => {
            let mv = vocab();
            let table = if matches!(entry.kind, Kind::PaperStrict) {
                IstioTable::Fig3
            } else {
                IstioTable::Fig4
            };
            let rec = session(&mv, table)
                .reconcile(muppet::ReconcileMode::HardBounds)
                .expect("paper tables reconcile within budget");
            of_success(rec.success)
        }
        Kind::PhpRelational { pigeons, holes } => {
            use muppet_solver::{Budget, FormulaGroup, IncrementalQuery, Outcome};
            let (u, v, sits, formulas) = php_relational(pigeons, holes);
            let mut q = IncrementalQuery::new(
                &v,
                &u,
                &[sits],
                &muppet_logic::PartialInstance::new(),
                muppet_logic::Instance::new(),
            );
            let groups = [FormulaGroup::new("php", formulas)];
            match q.solve(&groups, Budget::unlimited()).expect("php solves within budget") {
                Outcome::Sat { .. } => Expected::Sat,
                Outcome::Unsat { .. } => Expected::Unsat,
                other => panic!("php outcome {other:?}"),
            }
        }
        Kind::Stream(params) => {
            let s = generate_stream(params).final_scenario();
            let rec = s
                .session(false)
                .reconcile(muppet::ReconcileMode::HardBounds)
                .expect("corpus stream final state reconciles within budget");
            of_success(rec.success)
        }
        Kind::Domain { domain } => {
            let model = domain_model(domain);
            let rec = model
                .session()
                .reconcile(muppet::ReconcileMode::HardBounds)
                .expect("corpus domain fixture reconciles within budget");
            of_success(rec.success)
        }
        _ => {
            let inst = cnf_instance(entry.kind).expect("cnf kind");
            match inst.solver().solve() {
                muppet_sat::SolveResult::Sat(_) => Expected::Sat,
                muppet_sat::SolveResult::Unsat(_) => Expected::Unsat,
                muppet_sat::SolveResult::Unknown => panic!("unbudgeted solve cannot be unknown"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CORPUS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CORPUS.len());
    }

    #[test]
    fn every_tier_is_populated() {
        for tier in [Tier::Smoke, Tier::Paper, Tier::Large, Tier::Hard] {
            assert!(entries(tier).count() >= 2, "tier {} too thin", tier.name());
        }
    }

    #[test]
    fn mesh_labels_match_construction() {
        // The committed label of every mesh entry must agree with the
        // generator's own conflict analysis (solver agreement is the
        // integration test's job; this one is pure construction).
        for e in CORPUS {
            match e.kind {
                Kind::Mesh(params) => {
                    let s = generate(params);
                    assert_eq!(
                        s.expected_label(),
                        e.expected,
                        "{}: committed label disagrees with construction",
                        e.name
                    );
                }
                Kind::Stream(params) => {
                    assert_eq!(
                        generate_stream(params).final_expected(),
                        e.expected,
                        "{}: committed label disagrees with stream replay",
                        e.name
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn large_tier_is_actually_large() {
        for e in entries(Tier::Large) {
            match e.kind {
                Kind::Mesh(p) => assert!(p.services >= 1000, "{} too small", e.name),
                Kind::Stream(p) => assert!(
                    p.target_services >= 1000,
                    "{} grows to too few services",
                    e.name
                ),
                other => panic!("large tier must be mesh scenarios, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_entries_replay_cleanly() {
        // Every committed stream regenerates deterministically and its
        // growth entries actually reach their target.
        for e in CORPUS {
            if let Kind::Stream(params) = e.kind {
                let a = generate_stream(params);
                let b = generate_stream(params);
                assert_eq!(a.deltas_text(), b.deltas_text(), "{}", e.name);
                assert_eq!(a.deltas.len(), params.deltas, "{}", e.name);
                if params.profile == StreamProfile::Growth {
                    assert_eq!(
                        a.final_scenario().mesh.services().len(),
                        params.target_services,
                        "{}",
                        e.name
                    );
                }
            }
        }
    }

    #[test]
    fn tier_names_roundtrip() {
        for tier in [Tier::Smoke, Tier::Paper, Tier::Large, Tier::Hard] {
            assert_eq!(Tier::parse(tier.name()), Some(tier));
        }
    }
}
