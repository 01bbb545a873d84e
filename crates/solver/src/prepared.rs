//! Warm, reusable encode state for repeated queries.
//!
//! The warm query type itself is the incremental engine
//! ([`IncrementalQuery`], DESIGN.md §13). This module owns
//! [`PreparedStore`]: a capped, keyed store of warm engines.
//!
//! [`PreparedStore`] maps a *base fingerprint* — vocabulary, universe,
//! fixed structure, bounds and free relations — to its warm engine, so
//! callers with several distinct query shapes (per-party consistency
//! checks vs. joint reconciliation) each get their own warm state.

use std::collections::HashMap;

pub use crate::incremental::{GroupId, IncrementalQuery, PrepareError};

/// A keyed store of warm [`IncrementalQuery`] engines. Keys are *base
/// fingerprints* — everything that shapes the variable layout: vocab,
/// universe, fixed instance, bounds and free relations. Distinct keys
/// get distinct warm states; hitting an existing key is the warm path.
///
/// Counter discipline: `builds`, `hits` and the group counters are
/// **monotone over the store's lifetime** — evicting an engine retires
/// its counters into store-level accumulators instead of forgetting
/// them, so dashboards never see totals go backwards.
pub struct PreparedStore {
    map: HashMap<u128, IncrementalQuery>,
    order: Vec<u128>,
    cap: usize,
    builds: u64,
    hits: u64,
    evictions: u64,
    retired_encoded: u64,
    retired_reused: u64,
}

impl PreparedStore {
    /// A store holding at most 8 distinct query shapes.
    pub fn new() -> PreparedStore {
        PreparedStore::with_cap(8)
    }

    /// A store holding at most `cap` (≥ 1) distinct query shapes; the
    /// oldest is dropped beyond that.
    pub fn with_cap(cap: usize) -> PreparedStore {
        PreparedStore {
            map: HashMap::new(),
            order: Vec::new(),
            cap: cap.max(1),
            builds: 0,
            hits: 0,
            evictions: 0,
            retired_encoded: 0,
            retired_reused: 0,
        }
    }

    /// Fetch the warm query for `key`, building it on first use.
    ///
    /// A key evicted earlier is simply rebuilt (another cold build):
    /// sessions whose warm engine was evicted mid-negotiation rebuild
    /// transparently and keep working.
    pub fn get_or_build(
        &mut self,
        key: u128,
        build: impl FnOnce() -> IncrementalQuery,
    ) -> &mut IncrementalQuery {
        if !self.map.contains_key(&key) {
            if self.order.len() >= self.cap {
                let evict = self.order.remove(0);
                if let Some(old) = self.map.remove(&evict) {
                    // Retire the evicted engine's counters so the
                    // store-level totals stay monotone.
                    self.evictions += 1;
                    self.retired_encoded += old.encoded_groups();
                    self.retired_reused += old.reused_groups();
                }
            }
            self.map.insert(key, build());
            self.order.push(key);
            self.builds += 1;
        } else {
            self.hits += 1;
        }
        self.map.get_mut(&key).unwrap_or_else(|| {
            // Just inserted or found above; unreachable in practice.
            unreachable!("prepared store entry vanished")
        })
    }

    /// Cold builds performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Warm hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Engines evicted to stay within the cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct query shapes currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Summed (encoded, reused) group counters across the store's whole
    /// lifetime: live engines plus everything retired at eviction.
    pub fn group_counters(&self) -> (u64, u64) {
        self.map.values().fold(
            (self.retired_encoded, self.retired_reused),
            |(e, r), q| (e + q.encoded_groups(), r + q.reused_groups()),
        )
    }
}

impl Default for PreparedStore {
    fn default() -> Self {
        PreparedStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{FormulaGroup, Outcome, Phase};
    use muppet_logic::{
        Domain, Formula, Instance, PartialInstance, PartyId, RelId, Term, Universe, Vocabulary,
    };
    use muppet_sat::Budget;

    struct Fix {
        u: Universe,
        v: Vocabulary,
        allow: RelId,
        atoms: Vec<muppet_logic::AtomId>,
    }

    fn fix() -> Fix {
        let mut u = Universe::new();
        let s = u.add_sort("Service");
        let atoms = vec![u.add_atom(s, "fe"), u.add_atom(s, "be"), u.add_atom(s, "db")];
        let mut v = Vocabulary::new();
        let allow = v.add_simple_rel("allow", vec![s, s], Domain::Party(PartyId(0)));
        Fix { u, v, allow, atoms }
    }

    fn pq(f: &Fix) -> IncrementalQuery {
        IncrementalQuery::new(
            &f.v,
            &f.u,
            &[f.allow],
            &PartialInstance::new(),
            Instance::new(),
        )
    }

    #[test]
    fn warm_solve_matches_cold_verdicts() {
        let f = fix();
        let t = [f.atoms[0], f.atoms[1]];
        let pos = Formula::pred(f.allow, t.iter().map(|&a| Term::Const(a)));
        let neg = Formula::not(pos.clone());
        let g_pos = FormulaGroup::new("require", vec![pos]);
        let g_neg = FormulaGroup::new("forbid", vec![neg]);
        let mut q = pq(&f);
        let b = Budget::unlimited();
        let id_pos = q.ensure_group(&g_pos, &b).unwrap();
        let id_neg = q.ensure_group(&g_neg, &b).unwrap();
        // Both active: unsat, blaming exactly the two groups.
        match q.solve(&[id_pos, id_neg], Budget::unlimited()) {
            Outcome::Unsat { mut core, .. } => {
                core.sort();
                assert_eq!(core, vec!["forbid".to_string(), "require".to_string()]);
            }
            other => panic!("{other:?}"),
        }
        // Only one active: sat — the other group's clauses are inert.
        match q.solve(&[id_pos], Budget::unlimited()) {
            Outcome::Sat { solution, .. } => {
                assert!(solution.holds(f.allow, &t));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn identical_groups_are_encoded_once() {
        let f = fix();
        let g = FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[0])],
            )],
        );
        let mut q = pq(&f);
        let b = Budget::unlimited();
        let a = q.ensure_group(&g, &b).unwrap();
        let bb = q.ensure_group(&g, &b).unwrap();
        assert_eq!(a, bb);
        assert_eq!(q.encoded_groups(), 1);
        assert_eq!(q.reused_groups(), 1);
        assert_eq!(q.num_groups(), 1);
    }

    #[test]
    fn per_solve_stats_are_deltas() {
        let f = fix();
        let x_pos = Formula::pred(f.allow, [Term::Const(f.atoms[0]), Term::Const(f.atoms[0])]);
        let g1 = FormulaGroup::new("a", vec![x_pos.clone()]);
        let g2 = FormulaGroup::new("b", vec![Formula::not(x_pos)]);
        let mut q = pq(&f);
        let b = Budget::unlimited();
        let i1 = q.ensure_group(&g1, &b).unwrap();
        let i2 = q.ensure_group(&g2, &b).unwrap();
        let first = q.solve(&[i1, i2], Budget::unlimited());
        let second = q.solve(&[i1, i2], Budget::unlimited());
        // Delta accounting: the second run's counters must not include
        // the first run's work (non-decreasing totals would show up as
        // second >= first + first if they were absolute).
        assert!(second.stats().conflicts <= first.stats().conflicts + 2);
        assert!(!first.is_unknown() && !second.is_unknown());
    }

    #[test]
    fn exhausted_budget_reports_unknown() {
        let f = fix();
        let g = FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
            )],
        );
        let mut q = pq(&f);
        let id = q.ensure_group(&g, &Budget::unlimited()).unwrap();
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        assert!(q.solve(&[id], expired).is_unknown());
        // The same warm state still answers once the budget is lifted.
        assert!(q.solve(&[id], Budget::unlimited()).is_sat());
    }

    #[test]
    fn ensure_group_respects_expired_budget() {
        let f = fix();
        let g = FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
            )],
        );
        let mut q = pq(&f);
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        match q.ensure_group(&g, &expired) {
            Err(PrepareError::Exhausted(Phase::Ground)) => {}
            other => panic!("expected ground exhaustion, got {other:?}"),
        }
        // Already-encoded groups are still reusable under an expired
        // budget (the reuse path does no work).
        let id = q.ensure_group(&g, &Budget::unlimited()).unwrap();
        assert_eq!(q.ensure_group(&g, &expired).unwrap(), id);
    }

    #[test]
    fn store_caps_and_counts() {
        let f = fix();
        let mut store = PreparedStore::with_cap(2);
        for key in [1u128, 2, 3, 2] {
            store.get_or_build(key, || pq(&f));
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.builds(), 3, "key 1 evicted, keys 2/3 built once");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.evictions(), 1);
        assert!(!store.is_empty());
    }

    /// Eviction must not roll counters backwards, and an evicted key
    /// must rebuild transparently and keep answering.
    #[test]
    fn evicted_engines_retire_counters_and_rebuild() {
        let f = fix();
        let g = FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
            )],
        );
        let b = Budget::unlimited();
        let mut store = PreparedStore::with_cap(1);
        // Warm up key 1: one encode + one reuse.
        let id = {
            let q = store.get_or_build(1, || pq(&f));
            let id = q.ensure_group(&g, &b).unwrap();
            q.ensure_group(&g, &b).unwrap();
            assert!(q.solve(&[id], Budget::unlimited()).is_sat());
            id
        };
        let before = store.group_counters();
        assert_eq!(before, (1, 1));
        // Key 2 evicts key 1 (cap is 1); totals must not shrink.
        store.get_or_build(2, || pq(&f));
        assert_eq!(store.evictions(), 1);
        assert_eq!(
            store.group_counters(),
            before,
            "eviction retired key 1's counters instead of dropping them"
        );
        // Re-requesting key 1 mid-"negotiation" rebuilds transparently:
        // a fresh cold build whose groups re-encode, and the old
        // GroupId is meaningless for the new engine until re-ensured.
        let q = store.get_or_build(1, || pq(&f));
        let id2 = q.ensure_group(&g, &b).unwrap();
        assert_eq!(id, id2, "fresh engine hands out ids from zero again");
        assert!(q.solve(&[id2], Budget::unlimited()).is_sat());
        assert_eq!(store.builds(), 3);
        let after = store.group_counters();
        assert!(after.0 > before.0, "rebuild re-encodes monotonically");
    }
}
