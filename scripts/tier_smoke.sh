#!/usr/bin/env bash
# Tiered-mailbox smoke: the memory-tiering tentpole, end to end.
#
# Boots `apand` with a deliberately tight `--mailbox-budget`, drives it
# with a Zipf-skewed `apan-loadgen` stream confined to a working set
# larger than the budget's hot capacity, and asserts from the final
# Prometheus exposition that the tier actually cycled: evictions and
# promotions both happened, and the resident gauge is nonzero. A daemon
# that silently ignored the budget (or a tier that never spilled) fails
# here even though every request succeeded. It also checks the cold
# tier's footprint: exactly one file in the spill directory while the
# daemon runs, none after a clean SIGTERM.
#
# Usage: scripts/tier_smoke.sh [duration_s]
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-2}"
# ~70 hot mailboxes at dim 16 / 10 slots — far below the 512-node
# working set, so the stream must evict and re-promote continuously.
BUDGET="${TIER_BUDGET:-65536}"
LOG="$(mktemp /tmp/apand_tier.XXXXXX.log)"
SPILL="$(mktemp -d)"
APID=""

cleanup() {
  [ -n "$APID" ] && kill -TERM "$APID" 2>/dev/null && wait "$APID" 2>/dev/null
  rm -rf "$LOG" "$SPILL"
}
trap cleanup EXIT

cargo build --release -p apan-serve --bins

./target/release/apand --port 0 --dim 16 --mailbox-budget "$BUDGET" \
  --mailbox-spill "$SPILL" >"$LOG" 2>&1 &
APID=$!
for _ in $(seq 50); do
  grep -q "listening on" "$LOG" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$LOG" | head -1)"
if [ -z "$PORT" ]; then
  echo "tier_smoke: apand did not come up" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "tier_smoke: apand on port $PORT (mailbox budget $BUDGET bytes)"

OUT="$(./target/release/apan-loadgen --addr "127.0.0.1:$PORT" \
  --conns 4 --duration-s "$DURATION" --batch 8 \
  --working-set 512 --zipf 1.2 --metrics-every-ms 500)"
echo "$OUT" | grep -v '^apan_\|^# '

METRICS="$(echo "$OUT" | sed -n '/final metrics begin/,/final metrics end/p')"
if [ -z "$METRICS" ]; then
  echo "tier_smoke: no final METRICS exposition in loadgen output" >&2
  exit 1
fi

series_value() {
  echo "$METRICS" | awk -v name="$1" '$1 == name {print $2; exit}'
}

for series in apan_tier_resident apan_tier_evictions_total \
              apan_tier_promotions_total apan_tier_cold_bytes; do
  if ! echo "$METRICS" | grep -q "^$series "; then
    echo "tier_smoke: METRICS is missing $series" >&2
    echo "tier_smoke: captured exposition follows" >&2
    echo "$METRICS" >&2
    exit 1
  fi
done

RESIDENT="$(series_value apan_tier_resident)"
EVICTIONS="$(series_value apan_tier_evictions_total)"
PROMOTIONS="$(series_value apan_tier_promotions_total)"
if [ -z "$RESIDENT" ] || [ "$RESIDENT" = "0" ]; then
  echo "tier_smoke: apan_tier_resident is ${RESIDENT:-absent} — tiering looks inactive" >&2
  exit 1
fi
if [ -z "$EVICTIONS" ] || [ "$EVICTIONS" = "0" ]; then
  echo "tier_smoke: apan_tier_evictions_total is ${EVICTIONS:-absent} — the budget never forced a spill" >&2
  exit 1
fi
if [ -z "$PROMOTIONS" ] || [ "$PROMOTIONS" = "0" ]; then
  echo "tier_smoke: apan_tier_promotions_total is ${PROMOTIONS:-absent} — nothing ever came back from cold" >&2
  exit 1
fi

if [ "$(find "$SPILL" -mindepth 1 -type f | wc -l)" != 1 ] ||
   [ "$(find "$SPILL" -mindepth 1 | wc -l)" != 1 ]; then
  echo "tier_smoke: a running tiered daemon must keep exactly one spill file:" >&2
  ls -la "$SPILL" >&2
  exit 1
fi
kill -TERM "$APID"
wait "$APID" 2>/dev/null || true
APID=""
if [ "$(find "$SPILL" -mindepth 1 | wc -l)" != 0 ]; then
  echo "tier_smoke: a clean shutdown must remove the spill file:" >&2
  ls -la "$SPILL" >&2
  exit 1
fi
echo "tier_smoke: OK (resident=$RESIDENT evictions=$EVICTIONS promotions=$PROMOTIONS, one spill file, removed on SIGTERM)"
