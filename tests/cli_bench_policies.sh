#!/bin/sh
# `lruleak bench --policies`: empty list tokens are skipped, and an
# unknown policy name exits 2 with an error that names the option.
#
# Usage: tests/cli_bench_policies.sh path/to/lruleak
set -eu
lruleak=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$lruleak" bench --smoke --policies=lru,,fifo, --out="$dir/bench.json" \
    > "$dir/out.txt"
grep -q '"LRU"' "$dir/bench.json"
grep -q '"FIFO"' "$dir/bench.json"

status=0
"$lruleak" bench --smoke --policies=lru,bogus --out="$dir/bad.json" \
    > /dev/null 2> "$dir/err.txt" || status=$?
if [ "$status" -ne 2 ]; then
    echo "--policies=lru,bogus exited $status, expected 2" >&2
    exit 1
fi
grep -q "policies" "$dir/err.txt"
grep -q "bogus" "$dir/err.txt"
if [ -e "$dir/bad.json" ]; then
    echo "--policies=lru,bogus still ran the bench" >&2
    exit 1
fi
