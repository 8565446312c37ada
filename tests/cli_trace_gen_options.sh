#!/bin/sh
# The numeric options of `lruleak trace-gen` and `lruleak bench` parse
# whole values only: trailing characters, a negative seed, a zero count
# or a write fraction outside [0, 1] exit 2 with an error that names
# the option, and trace-gen writes no trace.  A count with a leading
# zero is decimal.
#
# Usage: tests/cli_trace_gen_options.sh path/to/lruleak
set -eu
lruleak=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# expect_bad <option> <command...>: exit 2, <option> named on stderr.
expect_bad() {
    option=$1
    shift
    status=0
    "$@" > /dev/null 2> "$dir/err.txt" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "$* exited $status, expected 2" >&2
        exit 1
    fi
    if ! grep -q -- "--$option" "$dir/err.txt"; then
        echo "$* did not name --$option:" >&2
        cat "$dir/err.txt" >&2
        exit 1
    fi
}

for arg in --accesses=12abc --accesses=0 --accesses=-5 --accesses= \
           --seed=-3 --seed=7x --writes=0.5junk --writes=1.5 \
           --writes=-0.1 --writes=nan; do
    option=${arg%%=*}
    expect_bad "${option#--}" "$lruleak" trace-gen gccmix "$dir/t.txt" "$arg"
    if [ -e "$dir/t.txt" ]; then
        echo "trace-gen $arg still wrote a trace" >&2
        exit 1
    fi
done

for arg in --accesses=12abc --accesses=0 --repeats=0 --repeats=2x \
           --seed=-1; do
    option=${arg%%=*}
    expect_bad "${option#--}" "$lruleak" bench --smoke "$arg" \
        --out="$dir/bench.json"
    if [ -e "$dir/bench.json" ]; then
        echo "bench $arg still ran the bench" >&2
        exit 1
    fi
done

# Whole values still work.
"$lruleak" trace-gen gccmix "$dir/t.txt" --accesses=12 --seed=0 \
    --writes=0.5 2> /dev/null
lines=$(wc -l < "$dir/t.txt")
if [ "$lines" -ne 12 ]; then
    echo "trace-gen --accesses=12 wrote $lines records" >&2
    exit 1
fi

# A leading zero is decimal, not octal.
"$lruleak" trace-gen gccmix "$dir/t.txt" --accesses=010 2> /dev/null
lines=$(wc -l < "$dir/t.txt")
if [ "$lines" -ne 10 ]; then
    echo "trace-gen --accesses=010 wrote $lines records" >&2
    exit 1
fi
