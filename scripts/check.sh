#!/usr/bin/env bash
# The full local gate: everything CI runs, in the same order.
#
# Offline-friendly by design: the workspace has no registry
# dependencies (rand/proptest/criterion are vendored under
# third_party/), so `--offline` always works and is forced here to
# catch accidental registry deps early.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline
# The repository benchmark (e2ebench/, its own workspace): build it
# against the current public APIs and run its self-test, which drives
# every workload at a tiny size through the release muppet-cli.
run cargo test --release --offline --manifest-path e2ebench/Cargo.toml
# Daemon end-to-end: real sockets, 64 concurrent clients, randomized
# cache-soundness properties.
run cargo test -q --offline --test daemon --test daemon_cache_props
# Daemon bench lane: asserts the >= 10x cached-vs-cold speedup and
# emits BENCH_daemon.json / BENCH_e2e.json.
run cargo run --release --offline -q --bin muppet-harness -- d1
# Portfolio lane: differential properties (4-thread verdicts == the
# sequential ones), the D1/E2E harness slice at --threads 4, and the
# P1 bench which asserts byte-identical reconcile verdicts across
# thread counts and always emits BENCH_portfolio.json.
run cargo test -q --offline --test portfolio_properties
run cargo run --release --offline -q --bin muppet-harness -- --threads 4 d1 e1 e4
run cargo run --release --offline -q --bin muppet-harness -- p1
test -s BENCH_portfolio.json || { echo "BENCH_portfolio.json missing"; exit 1; }
# Observability lane: traced paper scenarios with per-phase breakdowns,
# span-schema validation of the trace ring, and the <= 2% disabled-
# tracing overhead gate — all asserted inside O1, which also emits
# BENCH_obs.json. The --trace-json sink must stream well-formed
# span events (one JSON object per closed span).
run cargo run --release --offline -q --bin muppet-harness -- --trace-json BENCH_trace.jsonl o1
test -s BENCH_obs.json || { echo "BENCH_obs.json missing"; exit 1; }
lines=$(wc -l < BENCH_trace.jsonl)
valid=$(grep -c '"name":.*"path":.*"depth":.*"start_us":.*"elapsed_us":.*"counters":.*"attrs":' BENCH_trace.jsonl || true)
if [ "$lines" -lt 1 ] || [ "$lines" -ne "$valid" ]; then
    echo "BENCH_trace.jsonl: only $valid of $lines lines match the span-event schema"
    exit 1
fi
# Scale lane (DESIGN.md §15): the committed scenario corpus end to end
# — smoke + paper tiers plus the headline 1000-service large entries,
# every verdict gated against its committed label, same-seed
# regeneration gated byte-identical, per-phase (ground/encode/search)
# timings always written to BENCH_scale.json before the gates fire.
# Set MUPPET_SCALE=full to also run the 2500-service and hard-tier
# entries (adds ~1 min).
run cargo test -q --offline --test scenario_props --test scenario_corpus
run cargo run --release --offline -q --bin muppet-harness -- s1
test -s BENCH_scale.json || { echo "BENCH_scale.json missing"; exit 1; }
# Incremental-engine lane: negotiation episodes sharing one warm store
# vs a fresh Session per episode on the paper scenario — byte-identical
# verdicts/counter-offers, and the fresh sessions must re-encode >= 3x
# more CNF groups. Emits BENCH_incremental.json.
run cargo run --release --offline -q --bin muppet-harness -- n1
test -s BENCH_incremental.json || { echo "BENCH_incremental.json missing"; exit 1; }
# Differential properties: a session with warm engines answers exactly
# like the same call on a fresh Session (negotiation + conformance).
run cargo test -q --offline --test incremental_diff
# Streaming-reconfiguration lane (DESIGN.md §16): differential
# proptests (warm StreamSession replay == fresh-Session snapshot solves,
# 1 and 4 threads), then the W1 harness lane replaying a committed
# ≥200-delta edit stream against the fresh-Session oracle —
# byte-identical verdicts and a >= 5x amortized warm speedup, recorded
# in BENCH_stream.json (written before the gates fire, so trend lines
# survive a red run).
run cargo test -q --offline --test stream_props
run cargo run --release --offline -q --bin muppet-harness -- w1
test -s BENCH_stream.json || { echo "BENCH_stream.json missing"; exit 1; }
# Robustness lane (DESIGN.md §14): bounded admission, load shedding
# with retry hints, the slow-loris read timeout, graceful drain and the
# client retry path — first as deterministic integration tests, then as
# the R1 chaos harness with solver failpoints compiled in (injected
# exhaustion + worker panics). R1 gates on zero wrong verdicts vs the
# sequential oracle, full response accounting, at least one shed, and
# the drain deadline; it always emits BENCH_robustness.json.
run cargo test -q --offline --test daemon_overload
run cargo run --release --offline -q --features fault-inject --bin muppet-harness -- r1
test -s BENCH_robustness.json || { echo "BENCH_robustness.json missing"; exit 1; }
# SAT-kernel speed lane (DESIGN.md §17): differential kernel
# properties (core-guided == linear solve_target at 1 and 4 threads;
# inprocessing + the tiered clause DB invisible next to the flat
# baseline kernel), then the K1 harness lane — the hard-tier CNF
# corpus under the legacy pre-change kernel profile vs the tuned
# defaults (verdict parity on every entry, <= 0.8x wall on the gated
# refutation) and the committed minimal-edit scenario (core-guided
# solve_target >= 2x less solver work than linear, byte-identical
# canonical models). BENCH_kernel.json existence is checked before the
# perf numbers are trusted; the lane writes it before its gates fire.
run cargo test -q --offline -p muppet-solver --test kernel_props
run cargo run --release --offline -q --bin muppet-harness -- k1
test -s BENCH_kernel.json || { echo "BENCH_kernel.json missing"; exit 1; }
# ConfigDomain plugin lane (DESIGN.md §18): N-party differential gate
# (the generalized engine must stay byte-identical to the committed
# pre-refactor N=2 golden at 1 and 4 threads), N∈{2..5} round-robin
# order-invariance proptests, the Linkerd manifest round-trip /
# adversarial-input properties, then the M1 harness lane — the
# committed linkerd-shop scenario end to end through the daemon
# (registry dispatch, per-party consistency, blameable unsat verdict
# naming both admins, soft-row negotiation to convergence) and an N=3
# round-robin negotiation run to its fixpoint. M1 writes
# BENCH_domains.json before its gates fire.
run cargo test -q --offline --test nparty_differential --test nparty_props
run cargo test -q --offline -p muppet-domain
run cargo run --release --offline -q --bin muppet-harness -- m1
test -s BENCH_domains.json || { echo "BENCH_domains.json missing"; exit 1; }
# Rustdoc gate: broken, ambiguous or private intra-doc links fail the
# build, so docs cannot keep pointing at deleted items.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# fault-inject is a non-default feature; make sure it keeps compiling.
run cargo build -q --offline -p muppet-solver --features fault-inject
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "All checks passed."
