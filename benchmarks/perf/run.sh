#!/usr/bin/env bash
# The benchmark's one command. Builds apan-perf offline (the registry
# crates are the stand-ins under stubs/) and runs it with the given
# arguments:
#
#   benchmarks/perf/run.sh [--seed N] [--seconds S] [--reverse]
#       every workload, untraced then traced, each in a fresh process;
#       prints every metric, the same-run ratios and the total wall time,
#       and writes out/results-<workload>.json
#   benchmarks/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object
#       (this is BENCHMARK.json's `command`)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the working
# directory, and so does this script: it never changes directory
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/apan-perf" "$@"
