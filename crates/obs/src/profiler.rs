//! Phase-boundary profiling hooks.
//!
//! Callbacks registered with [`on_span_close`] fire synchronously at
//! every span close (only when tracing is enabled — a disabled
//! pipeline never reaches them). The harness lanes register a
//! [`PhaseAccumulator`] to build per-phase breakdowns; embedders can
//! hook anything else that wants phase timings without touching the
//! pipeline.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A borrowed view of one finished span, handed to profiler callbacks.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent<'a> {
    /// Span name (`ground`, `encode`, `search`, `minimize`, …).
    pub name: &'static str,
    /// Slash-joined path from the root span, e.g.
    /// `reconcile/solve/search`.
    pub path: &'a str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Start offset from the root span, µs.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub elapsed_us: u64,
    /// Counters recorded on the span.
    pub counters: &'a [(&'static str, u64)],
    /// Attributes recorded on the span.
    pub attrs: &'a [(&'static str, String)],
}

type Callback = Arc<dyn Fn(&SpanEvent<'_>) + Send + Sync>;

fn callbacks() -> &'static RwLock<Vec<Callback>> {
    static CALLBACKS: OnceLock<RwLock<Vec<Callback>>> = OnceLock::new();
    CALLBACKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Register a callback fired at every span close. Callbacks run on
/// the closing thread and must be fast and panic-free.
pub fn on_span_close(f: impl Fn(&SpanEvent<'_>) + Send + Sync + 'static) {
    let mut cbs = match callbacks().write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    cbs.push(Arc::new(f));
}

/// Remove every registered callback (harness lanes install theirs,
/// drain, then clear).
pub fn clear_profilers() {
    let mut cbs = match callbacks().write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    cbs.clear();
}

/// Fire all registered callbacks for one span close (called by the
/// span module).
pub(crate) fn fire_span_close(event: &SpanEvent<'_>) {
    let cbs = match callbacks().read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    for cb in cbs.iter() {
        cb(event);
    }
}

/// Aggregated timings for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed wall-clock, µs.
    pub total_us: u64,
    /// Slowest single span, µs.
    pub max_us: u64,
}

/// A shareable per-phase accumulator: register its
/// [`callback`](PhaseAccumulator::callback) with [`on_span_close`],
/// run a workload, then [`drain`](PhaseAccumulator::drain) the
/// per-name totals.
#[derive(Clone, Debug, Default)]
pub struct PhaseAccumulator {
    totals: Arc<Mutex<BTreeMap<&'static str, PhaseTotals>>>,
}

impl PhaseAccumulator {
    /// An empty accumulator.
    pub fn new() -> PhaseAccumulator {
        PhaseAccumulator::default()
    }

    /// The closure to hand to [`on_span_close`].
    pub fn callback(&self) -> impl Fn(&SpanEvent<'_>) + Send + Sync + 'static {
        let totals = Arc::clone(&self.totals);
        move |event| {
            let mut totals = match totals.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let t = totals.entry(event.name).or_default();
            t.count += 1;
            t.total_us += event.elapsed_us;
            t.max_us = t.max_us.max(event.elapsed_us);
        }
    }

    /// Take the accumulated totals, leaving the accumulator empty.
    pub fn drain(&self) -> BTreeMap<&'static str, PhaseTotals> {
        let mut totals = match self.totals.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::take(&mut *totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_sums_per_name() {
        let acc = PhaseAccumulator::new();
        let cb = acc.callback();
        for (name, us) in [("search", 10), ("search", 30), ("encode", 5)] {
            cb(&SpanEvent {
                name,
                path: name,
                depth: 0,
                start_us: 0,
                elapsed_us: us,
                counters: &[],
                attrs: &[],
            });
        }
        let totals = acc.drain();
        assert_eq!(totals["search"].count, 2);
        assert_eq!(totals["search"].total_us, 40);
        assert_eq!(totals["search"].max_us, 30);
        assert_eq!(totals["encode"].count, 1);
        assert!(acc.drain().is_empty(), "drain resets");
    }
}
