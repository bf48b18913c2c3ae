#!/bin/sh
# Check that persim_cli and persim_sweep simulate the same cell.
#
#   check_cli_sweep.sh PERSIM_CLI PERSIM_SWEEP
#
# Runs hash/LB++ at --cores 4 --ops 20 through persim_cli --json and as
# the matching cell of persim_sweep --figure 11, and requires the two
# documents' "result" objects to be equal.
set -eu
cli_bin=$1
sweep_bin=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$cli_bin" --workload hash --barrier LB++ --cores 4 --ops 20 \
    --json "$tmp/cli.json" > "$tmp/log" 2>&1 || { cat "$tmp/log"; exit 1; }
"$sweep_bin" --figure 11 --only hash/LB++/ --cores 4 --ops 20 --quiet \
    --no-stats --out "$tmp/sweep.json" > "$tmp/log" 2>&1 ||
    { cat "$tmp/log"; exit 1; }

# Print the first "result" object of a pretty-printed document, one
# member per line, without indentation or trailing commas.
result() {
    awk '
        !on && /"result": \{/ {
            on = 1; match($0, /^ */); indent = RLENGTH; next
        }
        on && match($0, /^ *\}/) && RLENGTH == indent + 1 { exit }
        on { sub(/^ */, ""); sub(/,$/, ""); print }
    ' "$1"
}
result "$tmp/cli.json" > "$tmp/cli.result"
result "$tmp/sweep.json" > "$tmp/sweep.result"

if [ ! -s "$tmp/cli.result" ]; then
    echo "no result object in the persim_cli document"
    exit 1
fi
if ! cmp "$tmp/cli.result" "$tmp/sweep.result"; then
    diff "$tmp/cli.result" "$tmp/sweep.result"
    exit 1
fi
