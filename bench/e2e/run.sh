#!/usr/bin/env bash
# Builds bench_e2e and runs it, from the root of the checkout.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result (BENCHMARK.json's command)
#   bash bench/e2e/run.sh
#       the whole set: every workload untraced, then every workload traced;
#       the metric table goes to bench/e2e/out/all.txt, the spans to
#       bench/e2e/out/trace-<workload>.json
#   bash bench/e2e/run.sh --aa 5
#       five untraced sets; per metric and workload the spread against its bound
#
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail
cd "$(dirname "$0")/../.."

# cargo reports on stderr, so stdout stays the benchmark's own.
cargo build --release --offline --manifest-path bench/e2e/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/e2e/target}/release/bench_e2e"

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi
mkdir -p bench/e2e/out
"$bin" --all | tee bench/e2e/out/all.txt
