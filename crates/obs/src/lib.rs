//! # muppet-obs — structured tracing, metrics and profiling hooks
//!
//! The pipeline's observability layer (DESIGN.md §12). Three pieces,
//! all dependency-free (std only, no unsafe):
//!
//! * [`span`](mod@span) — a thread-local **span tree** recorder. Each solve
//!   phase (`ground` → `encode` → `search` → `minimize`) opens a span;
//!   closing it records wall-clock, solver counters and attributes
//!   (the operation fingerprint among them, so traces join against the
//!   daemon's result cache). Completed root trees land in a bounded
//!   global ring buffer (served by the daemon's `trace` op) and,
//!   optionally, one JSON-Lines event per span close streams to a file
//!   sink (`--trace-json`).
//! * [`metrics`] — a process-global [`MetricsRegistry`] of atomic
//!   counters, gauges and fixed-bucket latency histograms, aggregated
//!   into the daemon's `stats` response.
//! * [`profiler`] — phase-boundary callbacks; the bench crate uses
//!   them to accumulate per-phase breakdowns for `BENCH_obs.json`.
//!
//! ## Overhead contract
//!
//! Tracing is **off** by default. With tracing disabled, [`span_named`]
//! performs exactly one relaxed atomic load and returns an inert guard
//! — no allocation, no clock read, no lock. The harness `o1` lane
//! micro-benches this path and gates the implied overhead at ≤ 2% of
//! the P1 portfolio lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profiler;
pub mod span;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use profiler::{clear_profilers, on_span_close, PhaseAccumulator, PhaseTotals, SpanEvent};
pub use span::{
    clear_json_sink, recent_traces, ring_capacity, set_enabled, set_json_sink, span_named,
    tracing_enabled, SpanGuard, SpanNode,
};

/// Open a span over a phase or operation. Sugar for [`span_named`].
///
/// ```
/// let mut g = muppet_obs::span("search");
/// g.attr("mode", "portfolio");
/// g.record("conflicts", 42);
/// drop(g); // close: records elapsed, fires sinks
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    span_named(name)
}
