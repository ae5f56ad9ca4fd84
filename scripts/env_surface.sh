#!/usr/bin/env bash
# The environment surface, checked: prints the sorted set of APAN_* names
# the serving crates read (string literals outside #[cfg(test)]) and fails
# if it differs from the environment table in README.md — a new knob cannot
# appear without being documented, nor linger in the docs once deleted.
set -euo pipefail
cd "$(dirname "$0")/.."

read_by_code=$(
    find crates/{tensor,core,serve,cluster,metrics}/src -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip' |
        grep -o '"APAN_[A-Z0-9_]*"' | tr -d '"' | sort -u
)
documented=$(grep -o '^| `APAN_[A-Z0-9_]*`' README.md | tr -d '|` ' | sort -u)

echo "$read_by_code"
if [ "$read_by_code" != "$documented" ]; then
    echo "env_surface: code reads {$(echo $read_by_code)} but README's table lists {$(echo $documented)}" >&2
    exit 1
fi
