#!/usr/bin/env bash
# Runs every apan-bench bench target once. Each is a plain timed main:
# the three guards (tensor_ops, trace_overhead, mailbox_tier) write their
# BENCH_*.json reports after their correctness gates, and ablation prints
# its ns/iter lines. Catches kernels that panic or mis-shape and any
# guard whose gate fails.
#
# The guards also have `test = true` in crates/bench/Cargo.toml, so
# `cargo test --workspace` runs them as well; this script adds ablation
# and the baseline diffs below.
#
# After the run, the freshly written BENCH_tensor.json is structurally
# diffed against the committed baseline (benchmarks/
# BENCH_tensor.baseline.json): the set of (kernel, shape, threads) rows
# must match — a kernel or shape silently dropping out of the report is
# a failure. Timings and speedups are printed for eyeballing but never
# compared (they are machine- and thermal-dependent); the SIMD flag is
# only warned about, since the baseline was recorded on an
# AVX-512 machine and the smoke run may not be.
#
# Usage: scripts/bench_smoke.sh [extra cargo-test args]
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep the one-shot pass cheap and deterministic.
export APAN_SCALE="${APAN_SCALE:-0.002}"
export APAN_SEEDS="${APAN_SEEDS:-1}"
export APAN_EPOCHS="${APAN_EPOCHS:-1}"

cargo test -p apan-bench --benches --release "$@"

fresh=crates/bench/bench-results/BENCH_tensor.json
baseline=benchmarks/BENCH_tensor.baseline.json
if ! command -v python3 >/dev/null 2>&1; then
    echo "bench_smoke: python3 not found, skipping baseline diff"
    exit 0
fi
if [[ ! -f "$fresh" ]]; then
    echo "bench_smoke: FAIL: $fresh was not written by the run" >&2
    exit 1
fi
python3 - "$baseline" "$fresh" <<'EOF'
import json, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
base = json.load(open(base_path))["timings"]
fresh = json.load(open(fresh_path))["timings"]

def key(row):
    return (row["kernel"], row["shape"], row["threads"])

# Repeated (kernel, shape, threads) rows are legitimate (serial vs
# parallel re-runs), so compare multisets via sorted lists.
bk, fk = sorted(map(key, base)), sorted(map(key, fresh))
if bk != fk:
    missing = [k for k in bk if k not in fk]
    extra = [k for k in fk if k not in bk]
    print("bench_smoke: FAIL: report rows drifted from baseline", file=sys.stderr)
    for k in missing:
        print(f"  missing: {k}", file=sys.stderr)
    for k in extra:
        print(f"  extra:   {k}", file=sys.stderr)
    sys.exit(1)

base_by = {}
for row in base:
    base_by.setdefault(key(row), row)
for row in fresh:
    b = base_by[key(row)]
    if row["simd_active"] != b["simd_active"]:
        print(f"bench_smoke: warn: {key(row)} simd_active = "
              f"{row['simd_active']} (baseline {b['simd_active']}; machine-dependent)")
    ratio = row["ns_per_iter"] / b["ns_per_iter"] if b["ns_per_iter"] else 0.0
    print(f"bench_smoke: {row['kernel']:>14} {row['shape']:>18} "
          f"{row['ns_per_iter']:>12.0f} ns/iter ({ratio:.2f}x baseline)")
print(f"bench_smoke: OK: {len(fresh)} rows match the baseline structure")
EOF

# Same structural discipline for the tiering report: the phase axis and
# its correctness-relevant fields must match the committed baseline.
# Throughput ratios are printed, not compared — but a budgeted phase
# that stopped evicting (or stopped staying within its capacity) is a
# failure even in smoke mode.
fresh_tier=crates/bench/bench-results/BENCH_tier.json
baseline_tier=benchmarks/BENCH_tier.baseline.json
if [[ ! -f "$fresh_tier" ]]; then
    echo "bench_smoke: FAIL: $fresh_tier was not written by the run" >&2
    exit 1
fi
python3 - "$baseline_tier" "$fresh_tier" <<'EOF'
import json, sys

base_path, fresh_path = sys.argv[1], sys.argv[2]
base = json.load(open(base_path))
fresh = json.load(open(fresh_path))

def shape(report):
    return [(p["phase"], sorted(p)) for p in report["phases"]]

if sorted(base) != sorted(fresh) or shape(base) != shape(fresh):
    print("bench_smoke: FAIL: BENCH_tier structure drifted from baseline",
          file=sys.stderr)
    print(f"  baseline: {shape(base)}", file=sys.stderr)
    print(f"  fresh:    {shape(fresh)}", file=sys.stderr)
    sys.exit(1)

for p in fresh["phases"]:
    budgeted = p["budget_bytes"] is not None
    if budgeted and p["evictions"] == 0:
        print(f"bench_smoke: FAIL: {p['phase']} never evicted", file=sys.stderr)
        sys.exit(1)
    if budgeted and p["resident_bytes"] > p["budget_bytes"]:
        print(f"bench_smoke: FAIL: {p['phase']} resident_bytes "
              f"{p['resident_bytes']} > budget {p['budget_bytes']}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_smoke: {p['phase']:>14} {p['ops_per_sec']:>14.0f} ops/s "
          f"({p['throughput_vs_resident']:.2f}x resident, "
          f"ev={p['evictions']} pr={p['promotions']})")
print(f"bench_smoke: OK: BENCH_tier matches the baseline structure")
EOF
