#!/usr/bin/env bash
# The configuration surface, checked in two halves:
# - environment: prints the sorted set of APAN_* names the serving crates
#   read (string literals outside #[cfg(test)]) and fails if it differs
#   from the environment table in README.md;
# - flags: prints the sorted set of "--flag" => arms apand's parser
#   matches and fails if it differs from the flags its USAGE string names.
# Either way a new knob cannot appear without being documented, nor linger
# in the docs (or in --help) once deleted.
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

apand=crates/serve/src/bin/apand.rs
parsed=$(grep -o '"--[a-z0-9-]*" =>' "$apand" | grep -o -- '--[a-z0-9-]*' | sort -u)
usage=$(
    awk '/^const USAGE/ { on = 1 } on { print } on && /";$/ { exit }' "$apand" |
        grep -o -- '--[a-z0-9-]*' | sort -u
)

echo "$parsed"
if [ "$parsed" != "$usage" ]; then
    echo "env_surface: apand parses {$(echo $parsed)} but its USAGE lists {$(echo $usage)}" >&2
    exit 1
fi
