#!/bin/sh
# Regenerate the sweep goldens in tests/data/golden/ from a build.
#
#   scripts/regen_goldens.sh [BUILD_DIR]     (default: build)
#
# For every persim_sweep --figure name, writes the --no-stats document
# at --cores 4 --ops 20 as <sweep>.json and records the SHA-256 of the
# with-stats document in stats.sha256 (those documents are 0.4-0.8 MB
# each, so only their digests are kept). The golden ctests
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
mkdir -p "$golden"
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
