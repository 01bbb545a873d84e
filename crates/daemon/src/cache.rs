//! The content-addressed result cache.
//!
//! Entries are keyed by a 128-bit fingerprint of everything the answer
//! depends on — the operation kind plus exactly the spec content that
//! feeds it. Keys are *per-operation*, which is what makes invalidation
//! delta-aware: an envelope extraction toward the tenant hashes only
//! the provider-relevant inputs (manifests, the sender's goals, the
//! derived port set, mTLS), so a tenant goal edit that leaves the port
//! universe intact maps to the same key and keeps the provider's
//! envelope hot, while any change to the hashed inputs lands on a new
//! key and can never alias a stale answer.
//!
//! Eviction is LRU by a logical tick (no wall clock involved), bounded
//! by `cap`. The cache stores only definite results — the engine never
//! inserts an outcome produced under a fired budget.

use std::collections::HashMap;

use crate::json::Json;

/// One cached result.
#[derive(Clone, Debug)]
struct Entry {
    /// The operation's result object, exactly as first computed.
    result: Json,
    /// Fingerprint (hex) of the session the result came from.
    session: String,
    /// Logical time of last access, for LRU eviction.
    last_used: u64,
}

/// A bounded LRU map from result fingerprints to result objects.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<u128, Entry>,
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its LRU position on a hit. Returns the
    /// cached result object and the session fingerprint it belongs to.
    pub fn get(&mut self, key: u128) -> Option<(Json, String)> {
        self.tick += 1;
        match self.map.get_mut(&key) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some((e.result.clone(), e.session.clone()))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a definite result, evicting the least-recently-used entry
    /// if the cache is full.
    pub fn put(&mut self, key: u128, result: Json, session: String) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        let tick = self.tick;
        self.map.insert(
            key,
            Entry {
                result,
                session,
                last_used: tick,
            },
        );
    }

    /// Drop every entry computed from session `session` (hex
    /// fingerprint). Used when a warm session is evicted, so no result
    /// can outlive the state that produced it.
    pub fn invalidate_session(&mut self, session: &str) {
        self.map.retain(|_, e| e.session != session);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let mut c = ResultCache::new(4);
        assert!(c.get(1).is_none());
        c.put(1, Json::num(42), "s1".into());
        let (v, s) = c.get(1).unwrap();
        assert_eq!(v.as_u64(), Some(42));
        assert_eq!(s, "s1");
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = ResultCache::new(2);
        c.put(1, Json::num(1), "s".into());
        c.put(2, Json::num(2), "s".into());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        c.put(3, Json::num(3), "s".into());
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn session_invalidation_is_scoped() {
        let mut c = ResultCache::new(8);
        c.put(1, Json::num(1), "a".into());
        c.put(2, Json::num(2), "b".into());
        c.invalidate_session("a");
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_cap_is_clamped() {
        let mut c = ResultCache::new(0);
        c.put(1, Json::Null, "s".into());
        assert!(c.get(1).is_some());
        assert!(!c.is_empty());
    }
}
