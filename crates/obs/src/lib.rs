//! # muppet-obs — structured tracing and profiling hooks
//!
//! The pipeline's observability layer (DESIGN.md §12). Two pieces,
//! both dependency-free (std only, no unsafe):
//!
//! * [`span`](mod@span) — a thread-local **span tree** recorder. Each solve
//!   phase (`ground` → `encode` → `search` → `minimize`) opens a span;
//!   closing it records wall-clock, solver counters and attributes
//!   (the operation fingerprint among them, so traces join against the
//!   daemon's result cache). Completed root trees land in a bounded
//!   global ring buffer (served by the daemon's `trace` op) and,
//!   optionally, one JSON-Lines event per span close streams to a file
//!   sink (`--trace-json`).
//! * [`profiler`] — phase-boundary callbacks; the harness's O1, S1
//!   and K1 lanes use them to record per-phase breakdowns.
//!
//! ## Overhead contract
//!
//! Tracing is **off** by default. With tracing disabled, [`span_named`]
//! performs exactly one relaxed atomic load and returns an inert guard
//! — no allocation, no clock read, no lock. The harness `o1` lane
//! micro-benches this path and gates the implied overhead at ≤ 2% of
//! an untraced paper reconcile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profiler;
pub mod span;

pub use profiler::{clear_profilers, on_span_close, PhaseAccumulator, PhaseTotals, SpanEvent};
pub use span::{
    clear_json_sink, recent_traces, ring_capacity, set_enabled, set_json_sink, span_named,
    tracing_enabled, SpanGuard, SpanNode,
};

/// Open a span over a phase or operation. Sugar for [`span_named`].
///
/// ```
/// let mut g = muppet_obs::span("search");
/// g.attr("result", "unsat");
/// g.record("conflicts", 42);
/// drop(g); // close: records elapsed, fires sinks
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    span_named(name)
}
