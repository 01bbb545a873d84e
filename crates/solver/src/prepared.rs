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

use std::collections::{BTreeSet, HashMap};

use crate::incremental::IncrementalQuery;

/// A keyed store of warm [`IncrementalQuery`] engines. Keys are *base
/// fingerprints* — everything that shapes the variable layout: vocab,
/// universe, fixed instance, bounds and free relations. Distinct keys
/// get distinct warm states; hitting an existing key is the warm path.
///
/// Counter discipline: `builds`, `hits`, the group counters, the
/// reused-answer counter and the OLL-core counter are **monotone over
/// the store's lifetime** — evicting an engine retires its counters
/// into store-level accumulators instead of forgetting them, so
/// dashboards never see totals go backwards.
pub struct PreparedStore {
    map: HashMap<u128, IncrementalQuery>,
    order: Vec<u128>,
    cap: usize,
    builds: u64,
    hits: u64,
    evictions: u64,
    retired_encoded: u64,
    retired_reused: u64,
    retired_answers: u64,
    retired_oll_cores: u64,
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
            retired_answers: 0,
            retired_oll_cores: 0,
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
                self.evict(self.order[0]);
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

    /// Drop the engine under `key`, retiring its counters into the
    /// store-level totals so they stay monotone.
    fn evict(&mut self, key: u128) {
        self.order.retain(|&k| k != key);
        if let Some(old) = self.map.remove(&key) {
            self.evictions += 1;
            self.retired_encoded += old.encoded_groups();
            self.retired_reused += old.reused_groups();
            self.retired_answers += old.answers_reused();
            self.retired_oll_cores += old.oll_cores();
        }
    }

    /// Evict every engine, retiring its counters as the cap does.
    pub fn clear(&mut self) {
        for key in std::mem::take(&mut self.order) {
            self.evict(key);
        }
    }

    /// Evict every engine in which the groups whose encoding keys
    /// ([`crate::FormulaGroup::encoding_keys`]) are not in `live` own
    /// more solver variables than everything else in it (the live
    /// groups plus the free-tuple layout). A caller that
    /// will never submit those groups again hands over the keys it
    /// still submits; an evicted engine is rebuilt from the live groups
    /// on its next use, so no engine grows past about twice what a
    /// fresh one needs. Returns how many engines were evicted.
    pub fn compact(&mut self, live: &BTreeSet<u128>) -> usize {
        let bloated: Vec<u128> = self
            .order
            .iter()
            .copied()
            .filter(|key| {
                let q = &self.map[key];
                let dead = q.vars_outside(live);
                dead > q.num_vars() - dead
            })
            .collect();
        for &key in &bloated {
            self.evict(key);
        }
        bloated.len()
    }

    /// Solver variables held across every engine in the store.
    pub fn num_vars(&self) -> usize {
        self.map.values().map(IncrementalQuery::num_vars).sum()
    }

    /// Cold builds performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Warm hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Engines evicted to stay within the cap or by [`Self::compact`].
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

    /// Solves answered from an engine's memo without searching
    /// ([`IncrementalQuery::answers_reused`]), summed across the store's
    /// whole lifetime.
    pub fn answers_reused(&self) -> u64 {
        self.map
            .values()
            .fold(self.retired_answers, |n, q| n + q.answers_reused())
    }

    /// OLL cores consumed by core-guided target solves
    /// ([`IncrementalQuery::oll_cores`]), summed across the store's
    /// whole lifetime.
    pub fn oll_cores(&self) -> u64 {
        self.map
            .values()
            .fold(self.retired_oll_cores, |n, q| n + q.oll_cores())
    }

    /// Whether the engine under `key` holds an encoding under the group
    /// encoding key `group` ([`crate::FormulaGroup::encoding_keys`]):
    /// a solve on that engine submitting the group grounds and encodes
    /// it exactly when this is `false`.
    pub fn holds_group(&self, key: u128, group: u128) -> bool {
        self.map.get(&key).is_some_and(|q| q.holds_group(group))
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
        // Both active: unsat, blaming exactly the two groups.
        match q.solve(&[g_pos.clone(), g_neg], Budget::unlimited()).unwrap() {
            Outcome::Unsat { mut core, .. } => {
                core.sort();
                assert_eq!(core, vec!["forbid".to_string(), "require".to_string()]);
            }
            other => panic!("{other:?}"),
        }
        // Only one active: sat — the other group's clauses are inert.
        match q.solve(&[g_pos], Budget::unlimited()).unwrap() {
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
        assert!(q.solve(&[g.clone(), g], Budget::unlimited()).unwrap().is_sat());
        assert_eq!(q.encoded_groups(), 1);
        assert_eq!(q.reused_groups(), 1);
        assert_eq!(q.num_groups(), 1);
    }

    #[test]
    fn per_solve_stats_are_deltas() {
        let f = fix();
        let x_pos = Formula::pred(f.allow, [Term::Const(f.atoms[0]), Term::Const(f.atoms[0])]);
        let groups = [
            FormulaGroup::new("a", vec![x_pos.clone()]),
            FormulaGroup::new("b", vec![Formula::not(x_pos)]),
        ];
        let mut q = pq(&f);
        let first = q.solve(&groups, Budget::unlimited()).unwrap();
        let second = q.solve(&groups, Budget::unlimited()).unwrap();
        // Delta accounting: the second run's counters must not include
        // the first run's work (non-decreasing totals would show up as
        // second >= first + first if they were absolute).
        assert!(second.stats().conflicts <= first.stats().conflicts + 2);
        assert!(!first.is_unknown() && !second.is_unknown());
    }

    #[test]
    fn exhausted_budget_reports_unknown() {
        let f = fix();
        let g = [FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
            )],
        )];
        let mut q = pq(&f);
        assert!(q.solve(&g, Budget::unlimited()).unwrap().is_sat());
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        assert!(q.solve(&g, expired).unwrap().is_unknown());
        // The same warm state still answers once the budget is lifted.
        assert!(q.solve(&g, Budget::unlimited()).unwrap().is_sat());
    }

    #[test]
    fn expired_budget_stops_grounding_but_not_reuse() {
        let f = fix();
        let g = [FormulaGroup::new(
            "g",
            vec![Formula::pred(
                f.allow,
                [Term::Const(f.atoms[0]), Term::Const(f.atoms[1])],
            )],
        )];
        let mut q = pq(&f);
        let expired = Budget::unlimited().with_timeout(std::time::Duration::from_millis(0));
        match q.solve(&g, expired.clone()).unwrap() {
            Outcome::Unknown { phase: Phase::Ground, .. } => {}
            other => panic!("expected ground exhaustion, got {other:?}"),
        }
        assert_eq!(q.num_groups(), 0);
        // Already-encoded groups are still reusable under an expired
        // budget (the reuse path does no work): the budget next fires
        // in the search.
        assert!(q.solve(&g, Budget::unlimited()).unwrap().is_sat());
        match q.solve(&g, expired).unwrap() {
            Outcome::Unknown { phase: Phase::Search, .. } => {}
            other => panic!("expected search exhaustion, got {other:?}"),
        }
        assert_eq!((q.encoded_groups(), q.reused_groups()), (1, 1));
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
        {
            let q = store.get_or_build(1, || pq(&f));
            assert!(q.solve(&[g.clone(), g.clone()], b.clone()).unwrap().is_sat());
        }
        let before = store.group_counters();
        assert_eq!(before, (1, 1));
        store.get_or_build(1, || pq(&f)).solve(&[g.clone(), g.clone()], b.clone()).unwrap();
        assert_eq!(store.answers_reused(), 1, "the repeat was answered from the memo");
        // A minimal edit away from the empty instance consumes OLL cores.
        let target = Instance::new();
        let q = store.get_or_build(1, || pq(&f));
        q.solve_target(std::slice::from_ref(&g), &target, b.clone()).unwrap();
        let oll_cores = store.oll_cores();
        assert!(oll_cores > 0);
        let before = store.group_counters();
        // Key 2 evicts key 1 (cap is 1); totals must not shrink.
        store.get_or_build(2, || pq(&f));
        assert_eq!(store.evictions(), 1);
        assert_eq!(
            store.group_counters(),
            before,
            "eviction retired key 1's counters instead of dropping them"
        );
        assert_eq!(store.answers_reused(), 1);
        assert_eq!(store.oll_cores(), oll_cores);
        // Re-requesting key 1 mid-"negotiation" rebuilds transparently:
        // a fresh cold build whose groups re-encode.
        let q = store.get_or_build(1, || pq(&f));
        assert!(q.solve(&[g], b).unwrap().is_sat());
        assert_eq!(q.encoded_groups(), 1, "the rebuilt engine encodes from scratch");
        assert_eq!(store.builds(), 3);
        let after = store.group_counters();
        assert!(after.0 > before.0, "rebuild re-encodes monotonically");
    }

    /// `compact` evicts an engine once its retired groups own more
    /// variables than the rest of it, keeps it otherwise, and the
    /// rebuilt engine answers from the live groups alone.
    #[test]
    fn compact_evicts_engines_dominated_by_retired_groups() {
        let f = fix();
        let pred = |i: usize, j: usize| {
            Formula::pred(f.allow, [Term::Const(f.atoms[i]), Term::Const(f.atoms[j])])
        };
        let live = FormulaGroup::new("live", vec![pred(0, 1)]);
        // Pairwise disjunctions over all nine tuples: one Tseitin gate
        // each, far more variables than the nine-tuple layout.
        let tuples: Vec<(usize, usize)> = (0..3).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        let mut wide = Vec::new();
        for (n, &(a, b)) in tuples.iter().enumerate() {
            for &(c, d) in &tuples[n + 1..] {
                wide.push(Formula::or(vec![pred(a, b), pred(c, d)]));
            }
        }
        let retired = FormulaGroup::new("retired", wide);
        let b = Budget::unlimited();
        let mut store = PreparedStore::new();
        let q = store.get_or_build(1, || pq(&f));
        assert!(q.solve(&[live.clone(), retired.clone()], b.clone()).unwrap().is_sat());
        let both: BTreeSet<u128> =
            FormulaGroup::encoding_keys(&[live.clone(), retired.clone()]).into_iter().collect();
        let only_live: BTreeSet<u128> =
            FormulaGroup::encoding_keys(std::slice::from_ref(&live)).into_iter().collect();
        let (total, dead) = (q.num_vars(), q.vars_outside(&only_live));
        assert_eq!(q.vars_outside(&both), 0);
        assert!(dead > total - dead, "retired group owns {dead} of {total} vars");
        assert_eq!(store.num_vars(), total);

        assert_eq!(store.compact(&both), 0, "nothing retired, nothing evicted");
        let before = store.group_counters();
        assert_eq!(store.compact(&only_live), 1);
        assert!(store.is_empty());
        assert_eq!(store.num_vars(), 0);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.group_counters(), before, "eviction keeps counters monotone");

        let q = store.get_or_build(1, || pq(&f));
        assert!(q.solve(&[live], b).unwrap().is_sat());
        assert_eq!(q.num_vars(), total - dead, "the rebuild holds only the live groups");
        assert_eq!(store.builds(), 2);
    }
}
