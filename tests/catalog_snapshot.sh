#!/bin/sh
# Print the experiment catalog as the CLI shows it: `lruleak list`,
# then `lruleak describe <name>` for every registered experiment.
# tests/catalog_snapshot.txt holds the committed copy; CI regenerates it
# and diffs the two, so a refactor of the experiment registrations
# (a family folded into one class registered several times, say) keeps
# every name, description and parameter list byte-identical.  After an
# intentional catalog change:
#
#   tests/catalog_snapshot.sh build/lruleak > tests/catalog_snapshot.txt
#
# Usage: tests/catalog_snapshot.sh [path/to/lruleak]
set -eu
lruleak=${1:-build/lruleak}
"$lruleak" list
for name in $("$lruleak" list | sed -n 's/^  \([a-z0-9_]\+\) .*/\1/p'); do
    echo
    "$lruleak" describe "$name"
done
