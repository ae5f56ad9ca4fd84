#!/usr/bin/env bash
# The configuration surface, checked in three parts:
# - environment: prints the sorted set of APAN_* names the serving crates
#   read (string literals outside #[cfg(test)]) and fails if it differs
#   from the environment table in README.md;
# - flags: prints the sorted set of "--flag" => arms apand's parser
#   matches and fails if it differs from the flags its USAGE string names;
# - dependencies: prints the sorted set of registry crates the workspace
#   manifests name (every [*dependencies] table of the root and member
#   Cargo.toml files, apan-* path crates excluded) and fails unless the
#   registry-sourced packages in Cargo.lock and README's "External
#   dependencies" list are the same set.
# Either way a new knob or crate cannot appear without being documented,
# nor linger in the docs (or in --help) once deleted.
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

manifests=$(
    for f in Cargo.toml crates/*/Cargo.toml; do
        awk '/^\[/ { on = /dependencies\]$/ } on && /^[a-z][a-z0-9_-]*(\.workspace)? *=/ {
            sub(/[. =].*/, ""); print }' "$f"
    done | grep -v '^apan-' | sort -u
)
locked=$(
    awk '/^\[\[package\]\]/ { name = "" } /^name = / { name = $3 }
        /^source = "registry\+/ { print name }' Cargo.lock | tr -d '"' | sort -u
)
readme=$(
    sed -n 's/^External dependencies: \([^.]*\)\..*/\1/p' README.md |
        grep -o '`[a-z0-9_-]*`' | tr -d '`' | sort -u
)

echo "$manifests"
if [ "$manifests" != "$locked" ] || [ "$manifests" != "$readme" ]; then
    echo "env_surface: manifests name {$(echo $manifests)}, Cargo.lock resolves {$(echo $locked)} from a registry, README lists {$(echo $readme)}" >&2
    exit 1
fi
