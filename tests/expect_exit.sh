#!/bin/sh
# Run a command and require an exact exit status and a stderr match.
#
#   expect_exit.sh STATUS PATTERN COMMAND [ARGS...]
#
# Passes when COMMAND exits with STATUS and its stderr contains the
# fixed string PATTERN.
set -u
want=$1
pattern=$2
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT
"$@" > /dev/null 2> "$err"
got=$?
cat "$err"
if [ "$got" -ne "$want" ]; then
    echo "expected exit status $want, got $got"
    exit 1
fi
if ! grep -qF -- "$pattern" "$err"; then
    echo "stderr does not mention '$pattern'"
    exit 1
fi
