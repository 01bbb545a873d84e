//! Fault-injection failpoints for exercising degradation paths.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature. Tests
//! arm a phase with [`arm`]; the next `times` budget polls in that phase
//! report exhaustion as if a real budget had fired, letting deterministic
//! tests drive the Unknown/retry machinery without tuning real workloads
//! to straddle a deadline.
//!
//! State is thread-local, so parallel test threads do not interfere.
//!
//! For chaos testing there is additionally a **process-global**
//! probabilistic failpoint ([`arm_global`]): solver work happens on
//! daemon worker threads the test never touches
//! directly, so a thread-local trigger cannot reach it. The global
//! failpoint trips every N-th matching poll process-wide, either
//! reporting exhaustion ([`Mode::Exhaust`]) or panicking outright
//! ([`Mode::Panic`]) to exercise panic isolation in callers.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::query::Phase;

thread_local! {
    static ARMED: Cell<Option<(Phase, u32)>> = const { Cell::new(None) };
}

/// What a tripped global failpoint does at the poll site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Report exhaustion, as if a real budget had fired.
    Exhaust,
    /// Panic at the poll site, exercising `catch_unwind` isolation.
    Panic,
}

/// Global failpoint state: 0 = disarmed, else `phase tag + 1`.
static GLOBAL_PHASE: AtomicU8 = AtomicU8::new(0);
/// Trip every N-th matching poll (0 treated as disarmed).
static GLOBAL_EVERY: AtomicU64 = AtomicU64::new(0);
/// 1 when tripping should panic instead of exhausting.
static GLOBAL_PANIC: AtomicU8 = AtomicU8::new(0);
/// Matching polls observed since arming.
static GLOBAL_POLLS: AtomicU64 = AtomicU64::new(0);

fn phase_tag(phase: Phase) -> u8 {
    match phase {
        Phase::Ground => 1,
        Phase::Encode => 2,
        Phase::Search => 3,
        Phase::Minimize => 4,
    }
}

/// Arm the process-global failpoint: every `every`-th budget poll of
/// `phase`, on any thread, trips with the given [`Mode`] until
/// [`disarm_global`]. `every == 0` disarms.
pub fn arm_global(phase: Phase, every: u64, mode: Mode) {
    GLOBAL_POLLS.store(0, Ordering::SeqCst);
    GLOBAL_EVERY.store(every, Ordering::SeqCst);
    GLOBAL_PANIC.store(u8::from(mode == Mode::Panic), Ordering::SeqCst);
    // Phase last: it is the arming gate read first by pollers.
    GLOBAL_PHASE.store(if every == 0 { 0 } else { phase_tag(phase) }, Ordering::SeqCst);
}

/// Disarm the process-global failpoint.
pub fn disarm_global() {
    GLOBAL_PHASE.store(0, Ordering::SeqCst);
}

/// Guard that disarms the global failpoint when dropped.
pub struct ArmedGlobal;

impl ArmedGlobal {
    /// Arm the global failpoint and return a disarm-on-drop guard.
    pub fn new(phase: Phase, every: u64, mode: Mode) -> ArmedGlobal {
        arm_global(phase, every, mode);
        ArmedGlobal
    }
}

impl Drop for ArmedGlobal {
    fn drop(&mut self) {
        disarm_global();
    }
}

/// The global half of the poll check. Panics when armed in
/// [`Mode::Panic`] and this poll is the trip.
fn global_should_trip(phase: Phase) -> bool {
    let armed = GLOBAL_PHASE.load(Ordering::Relaxed);
    if armed == 0 || armed != phase_tag(phase) {
        return false;
    }
    let every = GLOBAL_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return false;
    }
    let n = GLOBAL_POLLS.fetch_add(1, Ordering::Relaxed) + 1;
    if !n.is_multiple_of(every) {
        return false;
    }
    if GLOBAL_PANIC.load(Ordering::Relaxed) != 0 {
        panic!("fault-inject: injected panic at phase {phase}");
    }
    true
}

/// Arm the failpoint: the next `times` polls of `phase` trip, after which
/// the failpoint disarms itself.
pub fn arm(phase: Phase, times: u32) {
    ARMED.with(|a| a.set(Some((phase, times))));
}

/// Disarm any armed failpoint on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// Called by the query pipeline at each budget poll site. Returns `true`
/// (and consumes one trip) when the armed failpoint matches `phase`.
pub(crate) fn should_trip(phase: Phase) -> bool {
    let local = ARMED.with(|a| match a.get() {
        Some((p, times)) if p == phase && times > 0 => {
            a.set(if times > 1 { Some((p, times - 1)) } else { None });
            true
        }
        _ => false,
    });
    local || global_should_trip(phase)
}

/// Guard that disarms the failpoint when dropped, keeping tests tidy even
/// on panic.
pub struct Armed;

impl Armed {
    /// Arm `phase` for `times` trips and return a disarm-on-drop guard.
    pub fn new(phase: Phase, times: u32) -> Armed {
        arm(phase, times);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_times_then_disarms() {
        let _g = Armed::new(Phase::Ground, 2);
        assert!(should_trip(Phase::Ground));
        assert!(!should_trip(Phase::Encode)); // wrong phase: no trip, no consume
        assert!(should_trip(Phase::Ground));
        assert!(!should_trip(Phase::Ground));
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = Armed::new(Phase::Search, 5);
        }
        assert!(!should_trip(Phase::Search));
    }

    /// Both global-failpoint tests arm the same process-wide state, so
    /// they serialize on this lock; they use `Phase::Minimize`, which
    /// has no production poll site, so concurrently running solver
    /// tests can neither trip nor skew the counter.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn global_failpoint_trips_every_nth_poll_on_any_thread() {
        let _l = global_lock();
        let _g = ArmedGlobal::new(Phase::Minimize, 3, Mode::Exhaust);
        let tripped: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| (0..3).filter(|_| should_trip(Phase::Minimize)).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(tripped, 3, "9 polls at every=3 must trip exactly 3 times");
        assert!(!should_trip(Phase::Search), "wrong phase never trips");
        drop(_g);
        assert!(!should_trip(Phase::Minimize), "disarmed after drop");
    }

    #[test]
    fn global_panic_mode_panics_at_the_poll_site() {
        let _l = global_lock();
        let _g = ArmedGlobal::new(Phase::Minimize, 1, Mode::Panic);
        let r = std::panic::catch_unwind(|| should_trip(Phase::Minimize));
        disarm_global();
        assert!(r.is_err(), "panic mode must panic, not return");
    }
}
