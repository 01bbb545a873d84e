//! Resource budgets for solver calls: wall-clock deadlines, conflict
//! and propagation caps, and cooperative cancellation.
//!
//! A [`Budget`] travels with a query from the session layer down into
//! the CDCL search loop, grounding, and MUS extraction, making every
//! phase of the pipeline interruptible. All limits are *absolute*: a
//! deadline is a point in time and caps are totals over the budget's
//! lifetime, so the same `Budget` value can be shared by the several
//! solver calls that make up one logical query (e.g. the core-guided ascent
//! of target-oriented solving, or the deletion loop of MUS extraction)
//! and exhausts exactly once across all of them.
//!
//! [`RetryPolicy`] complements the budget: it describes how a caller
//! should escalate conflict caps across repeated attempts (Luby-style
//! growth, bounded attempts) when a budgeted solve comes back unknown.

use crate::luby::luby;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cooperative-cancellation flag.
///
/// Clone the token and hand one copy to the solving thread (inside a
/// [`Budget`]) and keep the other; calling [`CancelToken::cancel`]
/// makes every budget check observe cancellation at the next
/// opportunity (the CDCL loop polls between propagations).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Safe to call from any thread, repeatedly.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budget check reported exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The conflict cap was reached.
    Conflicts,
    /// The propagation cap was reached.
    Propagations,
    /// The cancellation token was triggered.
    Cancelled,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Deadline => write!(f, "deadline"),
            Exhaustion::Conflicts => write!(f, "conflict cap"),
            Exhaustion::Propagations => write!(f, "propagation cap"),
            Exhaustion::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Resource limits for a solve. The default budget is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    conflicts: Option<u64>,
    propagations: Option<u64>,
    /// Cancellation token; firing it exhausts the budget.
    cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits at all (same as `Budget::default()`).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Cap wall-clock time, starting now. A timeout too large to
    /// represent as an `Instant` (e.g. `--timeout-ms u64::MAX` from
    /// the CLI) saturates to "no deadline" instead of panicking on
    /// `Instant` overflow.
    pub fn with_timeout(mut self, timeout: Duration) -> Budget {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Cap wall-clock time at an absolute instant.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Cap total conflicts spent under this budget.
    pub fn with_conflict_cap(mut self, conflicts: u64) -> Budget {
        self.conflicts = Some(conflicts);
        self
    }

    /// Cap total propagations spent under this budget.
    pub fn with_propagation_cap(mut self, propagations: u64) -> Budget {
        self.propagations = Some(propagations);
        self
    }

    /// Attach a cooperative-cancellation token, replacing any earlier
    /// one.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Replace the conflict cap (keeping deadline/cancellation), e.g.
    /// when a [`RetryPolicy`] escalates between attempts. `None` lifts
    /// the cap.
    pub fn set_conflict_cap(&mut self, conflicts: Option<u64>) {
        self.conflicts = conflicts;
    }

    /// The configured conflict cap, if any.
    pub fn conflict_cap(&self) -> Option<u64> {
        self.conflicts
    }

    /// `true` if no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.conflicts.is_none()
            && self.propagations.is_none()
            && self.cancel.is_none()
    }

    /// Cheap check of the non-counter limits: cancellation and (at the
    /// caller's discretion) the deadline. Counter caps are checked by
    /// [`Budget::check`] with the current totals.
    pub fn poll(&self) -> Option<Exhaustion> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(Exhaustion::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exhaustion::Deadline);
            }
        }
        None
    }

    /// Full check against the given work totals (counted since the
    /// budget was installed).
    pub fn check(&self, conflicts: u64, propagations: u64) -> Option<Exhaustion> {
        if let Some(cap) = self.conflicts {
            if conflicts >= cap {
                return Some(Exhaustion::Conflicts);
            }
        }
        if let Some(cap) = self.propagations {
            if propagations >= cap {
                return Some(Exhaustion::Propagations);
            }
        }
        self.poll()
    }

    /// Time remaining until the deadline (`None` when no deadline).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// How to escalate conflict budgets across repeated solve attempts.
///
/// Attempt `i` (1-based) is granted `initial_conflicts * luby(i)`
/// conflicts — the Luby sequence keeps the total work within a constant
/// factor of the unknown optimal cap, the same argument as for restart
/// scheduling. A wall-clock deadline in the accompanying [`Budget`] is
/// *shared* across attempts (it is an absolute point in time), so
/// retries never extend a caller's deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Conflict cap for the first attempt.
    pub initial_conflicts: u64,
    /// Total attempts allowed (including the first). At least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// A single attempt with no conflict cap: the behavior callers get
    /// when they never configure retries.
    fn default() -> Self {
        RetryPolicy {
            initial_conflicts: u64::MAX,
            max_attempts: 1,
        }
    }
}

impl RetryPolicy {
    /// `attempts` tries, starting at `initial_conflicts` conflicts and
    /// growing by the Luby sequence.
    pub fn new(initial_conflicts: u64, attempts: u32) -> RetryPolicy {
        RetryPolicy {
            initial_conflicts,
            max_attempts: attempts.max(1),
        }
    }

    /// `true` when no conflict cap is configured (a single uncapped
    /// attempt).
    pub fn is_uncapped(&self) -> bool {
        self.initial_conflicts == u64::MAX
    }

    /// Conflict cap for 1-based attempt `attempt`, or `None` when the
    /// policy is uncapped.
    pub fn conflict_cap(&self, attempt: u32) -> Option<u64> {
        if self.is_uncapped() {
            None
        } else {
            Some(
                self.initial_conflicts
                    .saturating_mul(luby(attempt.max(1) as u64)),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.check(u64::MAX, u64::MAX), None);
        assert_eq!(b.poll(), None);
    }

    #[test]
    fn conflict_cap_trips() {
        let b = Budget::unlimited().with_conflict_cap(10);
        assert_eq!(b.check(9, 0), None);
        assert_eq!(b.check(10, 0), Some(Exhaustion::Conflicts));
    }

    #[test]
    fn propagation_cap_trips() {
        let b = Budget::unlimited().with_propagation_cap(100);
        assert_eq!(b.check(0, 99), None);
        assert_eq!(b.check(0, 100), Some(Exhaustion::Propagations));
    }

    #[test]
    fn deadline_trips_once_passed() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.poll(), Some(Exhaustion::Deadline));
        let b = Budget::unlimited().with_timeout(Duration::from_secs(3600));
        assert_eq!(b.poll(), None);
        assert!(b.remaining_time().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn absurd_timeout_saturates_to_no_deadline() {
        // `Instant::now() + Duration::MAX` would panic; the budget must
        // degrade to "unlimited time" instead.
        let b = Budget::unlimited().with_timeout(Duration::MAX);
        assert_eq!(b.poll(), None);
        assert!(b.remaining_time().is_none(), "saturated = no deadline");
        // u64::MAX milliseconds may or may not overflow the platform's
        // Instant; either way the budget must not panic or trip early.
        let b = Budget::unlimited().with_timeout(Duration::from_millis(u64::MAX));
        assert_eq!(b.poll(), None);
        // Sane timeouts still install a deadline.
        let b = Budget::unlimited().with_timeout(Duration::from_secs(60));
        assert!(b.remaining_time().is_some());
    }

    #[test]
    fn cancellation_is_observed_via_clone() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert_eq!(b.poll(), None);
        token.cancel();
        assert_eq!(b.poll(), Some(Exhaustion::Cancelled));
        assert_eq!(b.check(0, 0), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn a_later_cancel_token_replaces_the_earlier_one() {
        let first = CancelToken::new();
        let second = CancelToken::new();
        let b = Budget::unlimited()
            .with_cancel(first.clone())
            .with_cancel(second.clone());
        assert!(!b.is_unlimited());
        first.cancel();
        assert_eq!(b.poll(), None, "a replaced token no longer limits the budget");
        second.cancel();
        assert_eq!(b.poll(), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn retry_policy_escalates_by_luby() {
        let p = RetryPolicy::new(100, 5);
        assert_eq!(p.conflict_cap(1), Some(100));
        assert_eq!(p.conflict_cap(2), Some(100));
        assert_eq!(p.conflict_cap(3), Some(200));
        assert_eq!(p.conflict_cap(7), Some(400));
        assert!(RetryPolicy::default().conflict_cap(1).is_none());
    }
}
