//! Clause storage.
//!
//! Clauses live in a single arena ([`ClauseDb`]) and are referenced by
//! index. Deleted clauses are tombstoned and their slots recycled through a
//! free list; watch lists are purged lazily during propagation and rebuilt
//! on database reduction.

use crate::lit::Lit;

/// An index into the solver's clause arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

/// A single clause plus the metadata CDCL bookkeeping needs.
#[derive(Clone, Debug)]
pub(crate) struct Clause {
    /// The literals. Positions 0 and 1 are the watched literals.
    pub lits: Vec<Lit>,
    /// Learned (conflict-derived) clauses may be deleted; problem clauses
    /// never are.
    pub learnt: bool,
    /// Literal-block distance at learning time; lower is "glue-ier" and
    /// more valuable.
    pub lbd: u32,
    /// Bump-and-decay activity for the reduction heuristic.
    pub activity: f64,
    /// Tombstone flag; set by deletion, slot recycled later.
    pub deleted: bool,
}

/// Arena of clauses with slot recycling.
///
/// Deletion is two-phase: [`ClauseDb::delete`] tombstones the clause and
/// parks the slot on a *pending* list (stale watchers may still point at
/// it); [`ClauseDb::collect_garbage`] — called by the solver once watch
/// lists have been purged — moves pending slots to the free list for reuse.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    clauses: Vec<Clause>,
    free: Vec<u32>,
    pending: Vec<u32>,
    /// Number of live learnt clauses (for the reduction trigger).
    pub num_learnt: usize,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    pub fn alloc(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        if learnt {
            self.num_learnt += 1;
        }
        let clause = Clause {
            lits,
            learnt,
            lbd,
            activity: 0.0,
            deleted: false,
        };
        if let Some(slot) = self.free.pop() {
            self.clauses[slot as usize] = clause;
            ClauseRef(slot)
        } else {
            self.clauses.push(clause);
            ClauseRef((self.clauses.len() - 1) as u32)
        }
    }

    pub fn get(&self, cref: ClauseRef) -> &Clause {
        &self.clauses[cref.0 as usize]
    }

    pub fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        &mut self.clauses[cref.0 as usize]
    }

    /// Tombstone a clause. The slot is *not* reused until
    /// [`ClauseDb::collect_garbage`]; callers must treat `deleted` clauses
    /// as absent (stale watchers check the flag).
    pub fn delete(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        debug_assert!(!c.deleted);
        if c.learnt {
            self.num_learnt -= 1;
        }
        c.deleted = true;
        c.lits.clear();
        c.lits.shrink_to_fit();
        self.pending.push(cref.0);
    }

    /// `true` if tombstoned slots are waiting to be reclaimed.
    pub fn has_pending_garbage(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Reclaim tombstoned slots. The caller promises no watcher or reason
    /// still references them.
    pub fn collect_garbage(&mut self) {
        self.free.append(&mut self.pending);
    }

    /// Iterate over the refs of all live learnt clauses.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
            .collect()
    }

    /// Total live clauses (problem + learnt).
    #[cfg(test)]
    pub fn num_live(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(ixs: &[i32]) -> Vec<Lit> {
        ixs.iter()
            .map(|&i| {
                let v = Var::from_index(i.unsigned_abs() as usize);
                Lit::new(v, i >= 0)
            })
            .collect()
    }

    #[test]
    fn alloc_get_delete_recycles_slots() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(lits(&[0, 1]), false, 0);
        let c2 = db.alloc(lits(&[1, 2]), true, 2);
        assert_eq!(db.get(c1).lits.len(), 2);
        assert!(db.get(c2).learnt);
        assert_eq!(db.num_learnt, 1);
        db.delete(c2);
        assert_eq!(db.num_learnt, 0);
        assert_eq!(db.num_live(), 1);
        // Slot is not recycled until garbage collection...
        assert!(db.has_pending_garbage());
        let c3 = db.alloc(lits(&[2, 3]), false, 0);
        assert_ne!(c3, c2);
        // ...and is recycled after.
        db.collect_garbage();
        assert!(!db.has_pending_garbage());
        let c4 = db.alloc(lits(&[3, 4]), false, 0);
        assert_eq!(c4, c2);
        assert!(!db.get(c4).deleted);
    }

    #[test]
    fn learnt_refs_skips_deleted_and_problem_clauses() {
        let mut db = ClauseDb::new();
        let _p = db.alloc(lits(&[0, 1]), false, 0);
        let l1 = db.alloc(lits(&[1, 2]), true, 2);
        let l2 = db.alloc(lits(&[2, 3]), true, 3);
        db.delete(l1);
        assert_eq!(db.learnt_refs(), vec![l2]);
    }
}
