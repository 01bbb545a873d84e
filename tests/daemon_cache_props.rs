//! Property test for result-cache soundness: across random goal-table
//! mutations served by ONE long-lived engine (so entries accumulate,
//! collide-or-miss, and get delta-invalidated exactly as in a real
//! daemon), every answer — cold, warm, or cached — must equal a fresh
//! cold solve on the core library.

use std::sync::OnceLock;

use muppet_daemon::json::Json;
use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};
use proptest::prelude::*;

/// The one engine every generated case goes through. Sharing it is the
/// point: later cases hit cache entries and warm sessions created by
/// earlier ones, which is where an unsound cache key would show up as
/// a verdict that differs from the fresh oracle.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(EngineConfig::default()))
}

const SERVICES: [&str; 3] = ["test-frontend", "test-backend", "test-db"];

/// Build an Istio goal-table CSV from generated rows.
fn istio_csv(rows: &[(usize, usize, u16, u16)]) -> String {
    let mut csv = String::from("srcService,dstService,srcPort,dstPort\n");
    for &(src, dst, sp, dp) in rows {
        let dst = if dst == src { (dst + 1) % SERVICES.len() } else { dst };
        csv.push_str(&format!(
            "{},{},{},{}\n",
            SERVICES[src % SERVICES.len()],
            SERVICES[dst],
            sp,
            dp
        ));
    }
    csv
}

fn spec_with(istio_goals: String, mtls: bool) -> SessionSpec {
    SessionSpec {
        istio_goals,
        mtls,
        ..SessionSpec::paper_strict()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reconcile verdicts served by the shared engine (cached or not)
    /// always equal a fresh cold solve.
    #[test]
    fn cached_reconcile_equals_fresh_cold_solve(
        rows in prop::collection::vec(
            (0usize..3, 0usize..3,
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26), Just(12000)],
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26), Just(12000)]),
            1..4,
        ),
        mtls in any::<bool>(),
    ) {
        let spec = spec_with(istio_csv(&rows), mtls);
        // Fresh cold oracle: no daemon, no cache, no warm state.
        let oracle = spec.clone().load().expect("load")
            .core.model.session()
            .reconcile(muppet::ReconcileMode::HardBounds)
            .expect("reconcile")
            .success;
        // The shared engine, twice: the first answer may come cold or
        // from an earlier case's cache entry; the second is a
        // guaranteed repeat of a now-cached key.
        let req = Request::new(Op::Reconcile).with_spec(spec);
        let first = engine().handle(&req, None);
        prop_assert!(first.ok, "{:?}", first.error);
        prop_assert_eq!(
            first.result.get("success").and_then(Json::as_bool),
            Some(oracle),
            "engine verdict diverged from fresh cold solve"
        );
        let second = engine().handle(&req, None);
        prop_assert!(second.cached, "repeat of an identical request must hit");
        prop_assert_eq!(first.result.to_line(), second.result.to_line());
    }

    /// The delta-invalidation path: the provider's envelope key ignores
    /// tenant-side goal edits that keep the port universe intact, and
    /// the served envelope (cached or not) always equals a fresh one.
    #[test]
    fn cached_envelope_equals_fresh_extraction(
        rows in prop::collection::vec(
            (0usize..3, 0usize..3,
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26)],
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26)]),
            1..4,
        ),
    ) {
        // Pin the port universe to a fixed superset so every generated
        // tenant table maps to the SAME provider-side envelope key —
        // each case after the first must be a cache hit, and the hit
        // must still match a fresh extraction.
        let mut spec = spec_with(istio_csv(&rows), false);
        spec.extra_ports = vec![23, 24, 25, 26, 12000];
        let warm = {
            let ws = spec.clone().load().expect("load");
            let s = ws.core.model.session();
            let from = ws.core.model.party_id("k8s").expect("party");
            let to = ws.core.model.party_id("istio").expect("party");
            let c_from = ws.core.deployed(from).expect("deployed");
            let env = s.compute_envelope(from, to, &c_from).expect("envelope");
            env.render_alloy(s.vocab(), s.universe())
        };
        let mut req = Request::new(Op::ExtractEnvelope).with_spec(spec);
        req.to = Some("istio".into());
        let resp = engine().handle(&req, None);
        prop_assert!(resp.ok, "{:?}", resp.error);
        prop_assert_eq!(
            resp.result.get("alloy").and_then(Json::as_str),
            Some(warm.as_str()),
            "served envelope diverged from a fresh extraction"
        );
    }

    /// Consistency checks for a party hash only that party's goals: the
    /// verdict from the shared engine always equals a fresh solve, no
    /// matter what other tables earlier cases cached.
    #[test]
    fn cached_consistency_equals_fresh_solve(
        rows in prop::collection::vec(
            (0usize..3, 0usize..3,
             prop_oneof![Just(23u16), Just(25), Just(12000)],
             prop_oneof![Just(23u16), Just(25), Just(12000)]),
            1..3,
        ),
    ) {
        let spec = spec_with(istio_csv(&rows), false);
        let oracle = {
            let ws = spec.clone().load().expect("load");
            let party = ws.core.model.party_id("istio").expect("party");
            ws.core.model.session().local_consistency(party).expect("consistency").ok
        };
        let mut req = Request::new(Op::CheckConsistency).with_spec(spec);
        req.party = Some("istio".into());
        let resp = engine().handle(&req, None);
        prop_assert!(resp.ok, "{:?}", resp.error);
        prop_assert_eq!(resp.result.get("ok").and_then(Json::as_bool), Some(oracle));
    }
}

/// Ports that no other case (or test) uses, so each overload-soundness
/// case works on a virgin cache fingerprint in the shared engine.
fn unique_port() -> u16 {
    use std::sync::atomic::{AtomicU16, Ordering};
    static NEXT: AtomicU16 = AtomicU16::new(21_000);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Overload soundness (DESIGN.md §14): work that aborts without a
    /// definite verdict — here via a pre-cancelled token, the same path
    /// a drain-deadline or client-disconnect cancellation takes — must
    /// never seed the result cache. (Server-level sheds respond before
    /// the engine runs at all, so the cancel path is the only way
    /// overload can reach the cache.) The next identical request must
    /// be a genuine cold solve that matches the fresh oracle, and only
    /// a request after THAT may hit the cache.
    #[test]
    fn cancelled_work_never_enters_the_cache(
        rows in prop::collection::vec(
            (0usize..3, 0usize..3,
             prop_oneof![Just(23u16), Just(24), Just(25), Just(12000)],
             prop_oneof![Just(23u16), Just(24), Just(25), Just(12000)]),
            1..4,
        ),
    ) {
        let mut spec = spec_with(istio_csv(&rows), false);
        spec.extra_ports.push(unique_port());
        let req = Request::new(Op::Reconcile).with_spec(spec.clone());

        let cancel = muppet_solver::CancelToken::new();
        cancel.cancel();
        let aborted = engine().handle(&req, Some(&cancel));
        prop_assert!(!aborted.cached, "aborted work cannot be a cache hit");
        prop_assert!(
            !aborted.ok
                || !aborted
                    .result
                    .get("exhausted")
                    .map(Json::is_null)
                    .unwrap_or(true),
            "a pre-cancelled solve must not produce a definite verdict: {}",
            aborted.to_line()
        );

        let oracle = spec.clone().load().expect("load")
            .core.model.session()
            .reconcile(muppet::ReconcileMode::HardBounds)
            .expect("reconcile")
            .success;
        let real = engine().handle(&req, None);
        prop_assert!(real.ok, "{:?}", real.error);
        prop_assert!(
            !real.cached,
            "the cancelled attempt must not have seeded the cache"
        );
        prop_assert_eq!(
            real.result.get("success").and_then(Json::as_bool),
            Some(oracle),
            "post-cancellation verdict diverged from the fresh oracle"
        );
        let repeat = engine().handle(&req, None);
        prop_assert!(repeat.cached, "the definite verdict is cacheable as usual");
        prop_assert_eq!(real.result.to_line(), repeat.result.to_line());
    }
}
