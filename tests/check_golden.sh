#!/bin/sh
# Byte-compare one persim_sweep --figure document against its golden.
#
#   check_golden.sh PERSIM_SWEEP FIGURE GOLDEN_DIR
#
# Runs FIGURE at the golden size (--cores 4 --ops 20) and compares the
# --no-stats document with GOLDEN_DIR/<sweep>.json byte for byte, and
# the SHA-256 of the with-stats document with its line in
# GOLDEN_DIR/stats.sha256. scripts/regen_goldens.sh rewrites both; any
# golden diff is a behaviour change and must be explained.
set -eu
sweep_bin=$1
figure=$2
golden=$3
case $figure in
[0-9]*) name=fig$figure ;;
*) name=$figure ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$sweep_bin" --figure "$figure" --cores 4 --ops 20 --jobs 2 --quiet \
    --no-stats --out "$tmp/$name.json" > /dev/null 2> "$tmp/log" ||
    { cat "$tmp/log"; exit 1; }
"$sweep_bin" --figure "$figure" --cores 4 --ops 20 --jobs 2 --quiet \
    --out "$tmp/$name.stats.json" > /dev/null 2> "$tmp/log" ||
    { cat "$tmp/log"; exit 1; }

status=0
if ! cmp "$tmp/$name.json" "$golden/$name.json"; then
    diff "$golden/$name.json" "$tmp/$name.json" | head -20
    status=1
fi
want=$(awk -v f="$name.stats.json" '$2 == f { print $1 }' \
    "$golden/stats.sha256")
got=$(sha256sum "$tmp/$name.stats.json" | cut -d' ' -f1)
if [ "$want" != "$got" ]; then
    echo "$name.stats.json: sha256 $got, golden ${want:-missing}"
    status=1
fi
exit $status
