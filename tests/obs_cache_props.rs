//! Property test for metrics-counter consistency: the daemon cache's
//! global-registry counters (`daemon.cache.*`) must stay coherent
//! under concurrent clients hammering one engine — `hits + misses ==
//! lookups`, and `evictions <= insertions` — for every generated
//! workload. The cache capacity is squeezed so evictions actually
//! happen.
//!
//! This rides on the `muppet-obs` registry being cumulative and
//! process-global: deltas are taken around each workload, so the
//! invariants are checked per-case even though earlier cases (and the
//! engine's own lifetime) have already ticked the same counters.

use std::sync::Arc;
use std::thread;

use muppet_daemon::{Engine, EngineConfig, Op, Request, SessionSpec};
use muppet_obs::registry;
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

/// The cache counters we assert over, as one delta-able tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheCounters {
    lookups: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

fn cache_counters() -> CacheCounters {
    let snap = registry().snapshot();
    let get = |name: &str| snap.counter(name).unwrap_or(0);
    CacheCounters {
        lookups: get("daemon.cache.lookups"),
        hits: get("daemon.cache.hits"),
        misses: get("daemon.cache.misses"),
        insertions: get("daemon.cache.insertions"),
        evictions: get("daemon.cache.evictions"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 32 concurrent clients, a handful of distinct cacheable requests,
    /// a 2-entry cache: whatever interleaving the scheduler picks, the
    /// registry's cache counters must balance exactly.
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
        let before = cache_counters();

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

        let after = cache_counters();
        let d = |a: u64, b: u64| a - b;
        let (lookups, hits, misses, insertions, evictions) = (
            d(after.lookups, before.lookups),
            d(after.hits, before.hits),
            d(after.misses, before.misses),
            d(after.insertions, before.insertions),
            d(after.evictions, before.evictions),
        );
        // Every cacheable request does exactly one lookup.
        prop_assert_eq!(lookups, 96, "one lookup per request");
        prop_assert_eq!(
            hits + misses,
            lookups,
            "every lookup is exactly one hit or one miss \
             (hits {} + misses {} != lookups {})",
            hits, misses, lookups
        );
        // Only misses lead to insertions (all results here are
        // definite), and nothing can be evicted that wasn't inserted.
        prop_assert!(
            insertions <= misses,
            "insertions {insertions} > misses {misses}"
        );
        prop_assert!(
            evictions <= insertions,
            "evictions {evictions} > insertions {insertions}"
        );
        // With >2 distinct keys pounding a 2-entry cache, eviction
        // pressure is real — the counter must move.
        prop_assert!(evictions >= 1, "2-entry cache never evicted");
    }
}
