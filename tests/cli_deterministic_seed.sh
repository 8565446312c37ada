#!/bin/sh
# `lruleak run <experiment> --seed=N` on an experiment that declares no
# seed parameter (Table V's encoding latency is deterministic) exits 2
# with an error that says so, and prints no result.
#
# Usage: tests/cli_deterministic_seed.sh path/to/lruleak
set -eu
lruleak=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

status=0
"$lruleak" run tab5_encoding_latency --seed=3 \
    > "$dir/out.txt" 2> "$dir/err.txt" || status=$?
if [ "$status" -ne 2 ]; then
    echo "tab5_encoding_latency --seed=3 exited $status, expected 2" >&2
    exit 1
fi
grep -q "deterministic (no seed parameter)" "$dir/err.txt"
if [ -s "$dir/out.txt" ]; then
    echo "tab5_encoding_latency --seed=3 still printed a result" >&2
    exit 1
fi
