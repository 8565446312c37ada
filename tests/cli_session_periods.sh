#!/bin/sh
# A zero sampling or bit period is refused before the session runs:
# `lruleak run sharp_defense --smoke --ts=0` (or `--tr=0`) exits 1 with
# an error naming the SessionConfig field, instead of never returning.
#
# Usage: tests/cli_session_periods.sh path/to/lruleak
set -eu
lruleak=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

for field in ts tr; do
    status=0
    timeout 60 "$lruleak" run sharp_defense --smoke "--$field=0" \
        > "$dir/out.txt" 2> "$dir/err.txt" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "sharp_defense --$field=0 exited $status, expected 1" >&2
        exit 1
    fi
    if ! grep -q "SessionConfig::$field" "$dir/err.txt"; then
        echo "sharp_defense --$field=0 did not name SessionConfig::$field:" >&2
        cat "$dir/err.txt" >&2
        exit 1
    fi
done
