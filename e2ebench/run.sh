#!/usr/bin/env bash
# Build muppet-cli and the benchmark in release mode, then run one
# workload. Arguments are passed through, e.g.
#   bash e2ebench/run.sh --workload admin-daemon --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --bin muppet-cli >&2
cargo build --release --offline -q --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --cli "$CARGO_TARGET_DIR/release/muppet-cli" "$@"
