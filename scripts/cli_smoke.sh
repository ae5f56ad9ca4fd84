#!/usr/bin/env bash
# Smoke-tests the `apan` command line — README's first five commands —
# on a tiny synthetic dataset: every subcommand exits 0, `eval` is
# evaluation only (the checkpoint's bytes are unchanged by it) and
# repeatable (two evals of one checkpoint print the same line).
#
# Usage: scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

DIR="$(mktemp -d /tmp/apan_cli_smoke.XXXXXX)"
trap 'rm -rf "$DIR"' EXIT

cargo build --release --bin apan
APAN=./target/release/apan
DATA=(--dataset wikipedia --scale 0.01)
CKPT="$DIR/model.ckpt"

"$APAN" stats "${DATA[@]}"
"$APAN" generate "${DATA[@]}" --out "$DIR/wiki.csv"
test -s "$DIR/wiki.csv"
"$APAN" train "${DATA[@]}" --epochs 2 --checkpoint "$CKPT"
cp "$CKPT" "$DIR/before.ckpt"

FIRST="$("$APAN" eval "${DATA[@]}" --checkpoint "$CKPT")"
SECOND="$("$APAN" eval "${DATA[@]}" --checkpoint "$CKPT")"
echo "$FIRST"
if [ "$FIRST" != "$SECOND" ]; then
  echo "cli_smoke: two evals of one checkpoint disagree: '$FIRST' vs '$SECOND'" >&2
  exit 1
fi
if ! cmp -s "$CKPT" "$DIR/before.ckpt"; then
  echo "cli_smoke: eval changed the checkpoint" >&2
  exit 1
fi

"$APAN" serve "${DATA[@]}" --checkpoint "$CKPT"
echo "cli_smoke: ok"
