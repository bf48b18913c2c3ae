#!/bin/sh
# Regenerate the sweep goldens in tests/data/golden/ from a build.
#
#   scripts/regen_goldens.sh [BUILD_DIR]     (default: build)
#
# For every persim_sweep --figure name, writes the --no-stats document
# at --cores 4 --ops 20 as <sweep>.json and records the SHA-256 of the
# with-stats document in stats.sha256 (those documents are 0.4-0.8 MB
# each, so only their digests are kept). At the perfbench machine size
# (--cores 32: fig11 at --ops 50, fig14 at --ops 3000) it records the
# SHA-256 of both documents in stats32.sha256. The golden ctests
# (tests/check_golden.sh) compare against these files; explain every
# golden diff in the change that causes it.
set -eu
cd "$(dirname "$0")/.."
build=${1:-build}
sweep_bin=$build/tools/persim_sweep
golden=tests/data/golden
figures=$("$sweep_bin" --list)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$golden" "$tmp/32"
for figure in $figures; do
    case $figure in
    [0-9]*) name=fig$figure ;;
    *) name=$figure ;;
    esac
    "$sweep_bin" --figure "$figure" --cores 4 --ops 20 --jobs 2 --quiet \
        --no-stats --out "$golden/$name.json" > /dev/null 2> "$tmp/log" ||
        { cat "$tmp/log"; exit 1; }
    "$sweep_bin" --figure "$figure" --cores 4 --ops 20 --jobs 2 --quiet \
        --out "$tmp/$name.stats.json" > /dev/null 2> "$tmp/log" ||
        { cat "$tmp/log"; exit 1; }
    echo "regenerated $name"
done
(cd "$tmp" && sha256sum -- *.stats.json) > "$golden/stats.sha256"

# 32-core digests; keep in sync with the golden32.* ctests.
for spec in 11:50 14:3000; do
    figure=${spec%%:*}
    ops=${spec#*:}
    "$sweep_bin" --figure "$figure" --cores 32 --ops "$ops" --jobs 2 \
        --quiet --no-stats --out "$tmp/32/fig$figure.json" > /dev/null \
        2> "$tmp/log" || { cat "$tmp/log"; exit 1; }
    "$sweep_bin" --figure "$figure" --cores 32 --ops "$ops" --jobs 2 \
        --quiet --out "$tmp/32/fig$figure.stats.json" > /dev/null \
        2> "$tmp/log" || { cat "$tmp/log"; exit 1; }
    echo "regenerated fig$figure at 32 cores"
done
(cd "$tmp/32" && sha256sum -- *.json) > "$golden/stats32.sha256"
