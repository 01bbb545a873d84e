//! Differential testing of streaming reconfiguration: a warm
//! [`StreamSession`] replaying a random edit stream must produce
//! **byte-identical** verdict lines to cold-solving every intermediate
//! snapshot from scratch.
//!
//! Every satisfiable answer is the canonical lex-min model at any
//! instance size, and every core comes from ordered deletion, so warm
//! and cold verdicts are comparable byte for byte: string equality is
//! the right oracle on bounded and unbounded bases alike.

use muppet::ReconcileMode;
use muppet_scenario::stream::{generate_stream, StreamParams, StreamProfile};
use muppet_scenario::{generate, ScenarioParams};
use muppet_stream::{verdict_line, StreamSession, StreamSpec};
use proptest::prelude::*;

/// Base shapes: unbounded meshes, whose free tuple count grows
/// quadratically with services, and bounded meshes, whose tight
/// offers collapse it. Both sizes stay small enough for a debug build.
fn base_strategy() -> impl Strategy<Value = ScenarioParams> {
    (
        prop_oneof![
            (Just(false), 3..=6usize),
            (Just(true), 4..=10usize),
        ],
        2..=5usize, // istio goal rows
        1..=2usize, // k8s ban rows
        0..10_000u64,
    )
        .prop_map(|((bounded, services), istio_goals, k8s_goals, seed)| ScenarioParams {
            services,
            // Every service draws the whole pool, so every pool port a
            // churn delta can target is always in the port universe.
            ports_per_service: 4,
            extra_ports: 2,
            istio_goals,
            k8s_goals,
            port_pool: 4,
            bounded,
            seed,
            ..ScenarioParams::default()
        })
}

/// A random stream workload: base shape, edit profile, length, seed.
fn workload_strategy() -> impl Strategy<Value = StreamParams> {
    (base_strategy(), 0..4u8, 6..=14usize, 0..10_000u64)
        .prop_map(|(base, profile, deltas, seed)| {
            let profile = match profile {
                0 => StreamProfile::Growth,
                1 => StreamProfile::Mixed,
                2 => StreamProfile::GoalChurn,
                _ => StreamProfile::PolicyChurn,
            };
            StreamParams {
                base,
                profile,
                deltas,
                target_services: 0,
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm multi-shot replay == cold re-solve of every intermediate
    /// snapshot, on the canonical verdict line (model or core).
    #[test]
    fn warm_stream_equals_cold_snapshots(params in workload_strategy()) {
        let stream = generate_stream(params);

        let (mut warm, initial) =
            StreamSession::new(StreamSpec::from(&stream.base)).expect("initial state solves");

        let mut cold = generate(params.base);
        let cold_solve = |sc: &muppet_scenario::Scenario| -> String {
            let mut s = sc.session(false);
            let rec = s
                .reconcile(ReconcileMode::HardBounds)
                .expect("cold snapshot reconciles");
            prop_assert!(rec.exhausted.is_none(), "cold oracle exhausted");
            verdict_line(&rec)
        };
        prop_assert_eq!(&initial.verdict, &cold_solve(&cold));

        let mut prev = initial.verdict.clone();
        for d in &stream.deltas {
            let stats = warm.push(d).expect("generated delta replays warm");
            d.apply(&mut cold).expect("generated delta replays cold");
            let oracle = cold_solve(&cold);
            prop_assert_eq!(&stats.verdict, &oracle, "divergence at seq {}", stats.seq);
            prop_assert_eq!(stats.flipped, stats.verdict != prev, "flip flag at seq {}", stats.seq);
            prev = stats.verdict;
        }
        prop_assert_eq!(warm.solves(), stream.deltas.len() as u64 + 1);
    }
}
