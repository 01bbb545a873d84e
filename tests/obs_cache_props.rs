//! Property test for the result cache's counters under concurrency:
//! 32 clients hammer one engine whose cache holds two entries, and the
//! engine's own `stats.cache` must balance for every generated
//! workload — one hit or miss per request, never more entries than
//! the cap, and no entry held or evicted that a miss did not insert.

use std::sync::Arc;
use std::thread;

use muppet_daemon::json::Json;
use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 32 concurrent clients, a handful of distinct cacheable requests,
    /// a 2-entry cache: whatever interleaving the scheduler picks, the
    /// engine's cache counters must balance exactly.
    #[test]
    fn cache_counters_balance_under_32_concurrent_clients(
        rows in prop::collection::vec(
            (0usize..3, 0usize..3,
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26), Just(12000)],
             prop_oneof![Just(23u16), Just(24), Just(25), Just(26), Just(12000)]),
            3..6,
        ),
    ) {
        // Distinct specs: one per generated row (single-row tables), so
        // the workload spans several result keys.
        let specs: Vec<SessionSpec> = rows
            .iter()
            .map(|row| SessionSpec {
                istio_goals: istio_csv(std::slice::from_ref(row)),
                ..SessionSpec::paper_strict()
            })
            .collect();
        // A 2-entry cache guarantees evictions with >2 distinct keys.
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_cap: 2,
            max_sessions: 16,
        }));

        let mut joins = Vec::new();
        for t in 0..32usize {
            let engine = Arc::clone(&engine);
            let specs = specs.clone();
            joins.push(thread::spawn(move || -> Result<u64, String> {
                let mut served = 0u64;
                for j in 0..3usize {
                    let spec = specs[(t + j) % specs.len()].clone();
                    let req = match (t + j) % 3 {
                        0 => Request::new(Op::Reconcile).with_spec(spec),
                        1 => {
                            let mut r =
                                Request::new(Op::CheckConsistency).with_spec(spec);
                            r.party = Some("istio".into());
                            r
                        }
                        _ => {
                            let mut r = Request::new(Op::Reconcile).with_spec(spec);
                            r.mode = Some("blameable".into());
                            r
                        }
                    };
                    let resp = engine.handle(&req, None);
                    if !resp.ok {
                        return Err(resp.error.unwrap_or_else(|| "?".into()));
                    }
                    served += 1;
                }
                Ok(served)
            }));
        }
        let mut total = 0u64;
        for j in joins {
            total += j.join().expect("client thread").unwrap_or_else(|e| {
                panic!("request failed: {e}");
            });
        }
        prop_assert_eq!(total, 96, "32 clients x 3 requests each");

        let stats = engine.handle(&Request::new(Op::Stats), None).result;
        let cache = stats.get("cache").expect("stats carries cache");
        let n = |k: &str| cache.get(k).and_then(Json::as_u64).expect("cache counter");
        let (hits, misses, entries, evictions) =
            (n("hits"), n("misses"), n("entries"), n("evictions"));
        // Every cacheable request does exactly one lookup: a hit or a miss.
        prop_assert_eq!(
            hits + misses,
            96,
            "one lookup per request (hits {} + misses {})",
            hits, misses
        );
        prop_assert!(entries <= 2, "{entries} entries in a 2-entry cache");
        // Only misses insert (all results here are definite); every
        // entry is still held or was evicted.
        prop_assert!(
            entries + evictions <= misses,
            "entries {entries} + evictions {evictions} > misses {misses}"
        );
        // With >2 distinct keys pounding a 2-entry cache, eviction
        // pressure is real — the counter must move.
        prop_assert!(evictions >= 1, "2-entry cache never evicted");
    }
}
