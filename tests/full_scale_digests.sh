#!/bin/sh
# Print one line per registered experiment: its name and the SHA-256 of
# `lruleak run <name> --format=json` at default (paper-scale) params.
# tests/full_scale_digests.txt holds the committed list; CI regenerates
# it and diffs the two.  After an intentional output change:
#
#   tests/full_scale_digests.sh build/lruleak > tests/full_scale_digests.txt
#
# Usage: tests/full_scale_digests.sh [path/to/lruleak]
set -eu
lruleak=${1:-build/lruleak}
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for name in $("$lruleak" list | sed -n 's/^  \([a-z0-9_]\+\) .*/\1/p'); do
    "$lruleak" run "$name" --format=json > "$out"
    echo "$name $(sha256sum < "$out" | cut -d' ' -f1)"
done
