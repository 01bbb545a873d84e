#!/usr/bin/env bash
# The full gate: CI runs this file, so local and CI runs are the same.
#
# Offline-friendly by design: the workspace has no registry
# dependencies (rand and proptest are vendored under third_party/), so
# `--offline` always works and is forced here to catch accidental
# registry deps early.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline
# Every test target runs here once, the lanes' own property and
# integration tests included (named in each lane's comment below).
run cargo test -q --workspace --offline
# The repository benchmark (e2ebench/, its own workspace): build it
# against the current public APIs and run its self-test, which drives
# every workload at a tiny size through the release muppet-cli.
run cargo test --release --offline --manifest-path e2ebench/Cargo.toml
# Daemon bench lane (its tests: `daemon` — real sockets, 64 concurrent
# clients — and `daemon_cache_props`, randomized cache soundness):
# asserts the >= 10x cached-vs-cold speedup and
# emits BENCH_daemon.json. (Only an unfiltered harness run writes
# BENCH_e2e.json; lane-selected runs like this one leave it alone.)
run cargo run --release --offline -q --bin muppet-harness -- d1
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
# entries (adds ~1 min). Its tests: `scenario_props`, `scenario_corpus`.
run cargo run --release --offline -q --bin muppet-harness -- s1
test -s BENCH_scale.json || { echo "BENCH_scale.json missing"; exit 1; }
# Incremental-engine lane: negotiation episodes sharing one warm store
# vs a fresh Session per episode on the paper scenario — byte-identical
# verdicts/counter-offers, and the fresh sessions must re-encode >= 3x
# more CNF groups. Emits BENCH_incremental.json. Its differential
# properties (`incremental_diff`): a session with warm engines answers
# exactly like the same call on a fresh Session (negotiation +
# conformance).
run cargo run --release --offline -q --bin muppet-harness -- n1
test -s BENCH_incremental.json || { echo "BENCH_incremental.json missing"; exit 1; }
# Streaming-reconfiguration lane (DESIGN.md §16): differential
# proptests (`stream_props`: warm StreamSession replay ==
# fresh-Session snapshot solves), then the W1 harness lane replaying
# committed ≥200-delta edit streams against the fresh-Session oracle —
# byte-identical sat and unsat verdicts on the bounded and the
# unbounded replay, a warm engine at most 2x a fresh one's variables,
# no ban or goal-row delta dirtying the structural axioms, every delta
# that repeats the previous delta's group-key list answered from the
# engine's memo without search, and a >= 5x amortized warm speedup,
# recorded in BENCH_stream.json (written by W1 only, before the gates
# fire, so trend lines survive a red run).
run cargo run --release --offline -q --bin muppet-harness -- w1
test -s BENCH_stream.json || { echo "BENCH_stream.json missing"; exit 1; }
# Robustness lane (DESIGN.md §14): bounded admission, load shedding
# with retry hints, the slow-loris read timeout, graceful drain and the
# client retry path — first as deterministic integration tests
# (`daemon_overload`), then as the R1 chaos harness with solver
# failpoints compiled in (injected exhaustion + worker panics). R1
# gates on zero wrong verdicts vs the sequential oracle, full response
# accounting, at least one shed, and the drain deadline; it always
# emits BENCH_robustness.json.
run cargo run --release --offline -q --features fault-inject --bin muppet-harness -- r1
test -s BENCH_robustness.json || { echo "BENCH_robustness.json missing"; exit 1; }
# SAT-kernel speed lane (DESIGN.md §17): differential kernel
# properties (`kernel_props` in muppet-solver: core-guided
# solve_target == an exhaustive minimal-edit oracle; the tuned kernel
# under clause-DB reduction pressure gives the legacy kernel's
# verdicts and minimized cores), then the K1 harness
# lane — the hard-tier CNF corpus under the legacy pre-change kernel
# profile, the tuned defaults and two one-feature-off ablations
# (verdict parity on every entry under every profile, <= 0.8x
# tuned-vs-legacy wall on the gated refutation) and the committed
# minimal-edit scenario (solve_target reaches the constructed optimum;
# its canonical model's digest is recorded). BENCH_kernel.json
# existence is checked before the perf numbers are trusted; the lane
# writes it before its gates fire.
run cargo run --release --offline -q --bin muppet-harness -- k1
test -s BENCH_kernel.json || { echo "BENCH_kernel.json missing"; exit 1; }
# ConfigDomain plugin lane (DESIGN.md §18): N-party differential gate
# (`nparty_differential`: the generalized engine must stay
# byte-identical to the committed pre-refactor N=2 golden), N∈{2..5}
# round-robin order-invariance proptests (`nparty_props`), the Linkerd
# manifest round-trip / adversarial-input properties (muppet-domain's
# tests), then the M1 harness lane — the committed linkerd-shop
# scenario end to end through the daemon (registry dispatch,
# per-party consistency, blameable unsat verdict naming both admins,
# soft-row negotiation to convergence) and an N=3 round-robin
# negotiation run to its fixpoint. M1 writes
# BENCH_domains.json before its gates fire.
run cargo run --release --offline -q --bin muppet-harness -- m1
test -s BENCH_domains.json || { echo "BENCH_domains.json missing"; exit 1; }
# Every bench file the lanes above wrote is one bench record (one
# schema, one writer) and names the same commit.
lane_files="BENCH_daemon.json BENCH_obs.json BENCH_scale.json BENCH_incremental.json
  BENCH_stream.json BENCH_robustness.json BENCH_kernel.json BENCH_domains.json"
for f in $lane_files; do
    grep -q '^{"schema":"muppet-harness-record-v1",' "$f" || { echo "$f is not a bench record"; exit 1; }
done
commits=$(grep -ho '"commit":"[^"]*"' $lane_files | sort -u)
if [ "$(echo "$commits" | wc -l)" -ne 1 ]; then
    echo "bench records name different commits: $commits"
    exit 1
fi
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
