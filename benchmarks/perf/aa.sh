#!/usr/bin/env bash
# A/A check: the whole suite twice on one seed (the second time in
# reverse workload order) and once on a second seed. Fails if a gating
# end-to-end metric differs between the two same-seed sets by more than
# its BENCHMARK.json bound, or if an exact count differs at all. Prints
# the spread table README.md cites.
#
#   benchmarks/perf/aa.sh [SEED [OTHER_SEED]]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
other="${2:-$((seed + 1))}"
out="$here/out"
rm -rf "$out/aa"
mkdir -p "$out/aa/a" "$out/aa/b" "$out/aa/c"
"$here/run.sh" --seed "$seed"
cp "$out"/results-*.json "$out/aa/a/"
"$here/run.sh" --seed "$seed" --reverse
cp "$out"/results-*.json "$out/aa/b/"
"$here/run.sh" --seed "$other"
cp "$out"/results-*.json "$out/aa/c/"
python3 - "$here/../../BENCHMARK.json" "$out/aa" <<'PY'
import glob, json, os, sys

bench = json.load(open(sys.argv[1]))
root = sys.argv[2]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}


def load(which):
    sets = {}
    for path in sorted(glob.glob(os.path.join(root, which, "results-*.json"))):
        doc = json.load(open(path))
        sets[doc["workload"]] = doc
    return sets


a, b, c = load("a"), load("b"), load("c")
failures = []
print(f"\n== A/A: same seed twice (a, b), second seed (c) ==")
print(f"{'workload':<16}{'metric':<20}{'a':>14}{'b':>14}{'c':>14}{'|a-b|/mean':>12}{'bound':>8}")
for workload in a:
    for name, bound in bounds.items():
        va, vb, vc = (s[workload]["end_to_end"][name] for s in (a, b, c))
        diff = abs(va - vb) / ((va + vb) / 2) if va + vb else 0.0
        flag = ""
        if diff > bound:
            failures.append(f"{workload} {name}: same-seed sets differ by {diff:.1%} > {bound:.0%}")
            flag = "  FAIL"
        print(f"{workload:<16}{name:<20}{va:>14.4f}{vb:>14.4f}{vc:>14.4f}{diff:>11.1%}{bound:>8.0%}{flag}")
    for name in a[workload]["exact"]:
        va, vb = a[workload]["per_layer"][name], b[workload]["per_layer"][name]
        if va != vb:
            failures.append(f"{workload} {name}: exact count differs, {va!r} != {vb!r}")
print()
if failures:
    print("A/A FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("A/A passed: every gating metric within its bound, every exact count identical")
PY
