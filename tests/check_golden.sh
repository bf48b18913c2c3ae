#!/bin/sh
# Check one persim_sweep --figure document against its golden.
#
#   check_golden.sh PERSIM_SWEEP FIGURE GOLDEN_DIR [CORES OPS]
#
# At the default size (--cores 4 --ops 20) it compares the --no-stats
# document with GOLDEN_DIR/<sweep>.json byte for byte, and the SHA-256
# of the with-stats document with its line in GOLDEN_DIR/stats.sha256.
# At any other CORES/OPS only digests are kept: the SHA-256 of both
# documents must match their lines in GOLDEN_DIR/stats<CORES>.sha256.
# scripts/regen_goldens.sh rewrites every file; any golden diff is a
# behaviour change and must be explained.
set -eu
sweep_bin=$1
figure=$2
golden=$3
cores=${4:-4}
ops=${5:-20}
case $figure in
[0-9]*) name=fig$figure ;;
*) name=$figure ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$sweep_bin" --figure "$figure" --cores "$cores" --ops "$ops" --jobs 2 \
    --quiet --no-stats --out "$tmp/$name.json" > /dev/null 2> "$tmp/log" ||
    { cat "$tmp/log"; exit 1; }
"$sweep_bin" --figure "$figure" --cores "$cores" --ops "$ops" --jobs 2 \
    --quiet --out "$tmp/$name.stats.json" > /dev/null 2> "$tmp/log" ||
    { cat "$tmp/log"; exit 1; }

status=0
# check_digest FILE SUMS: FILE's SHA-256 against its line in SUMS.
check_digest() {
    want=$(awk -v f="$1" '$2 == f { print $1 }' "$2")
    got=$(sha256sum "$tmp/$1" | cut -d' ' -f1)
    if [ "$want" != "$got" ]; then
        echo "$1: sha256 $got, golden ${want:-missing}"
        status=1
    fi
}
if [ "$cores" = 4 ] && [ "$ops" = 20 ]; then
    if ! cmp "$tmp/$name.json" "$golden/$name.json"; then
        diff "$golden/$name.json" "$tmp/$name.json" | head -20
        status=1
    fi
    check_digest "$name.stats.json" "$golden/stats.sha256"
else
    check_digest "$name.json" "$golden/stats$cores.sha256"
    check_digest "$name.stats.json" "$golden/stats$cores.sha256"
fi
exit $status
