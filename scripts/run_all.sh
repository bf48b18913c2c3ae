#!/bin/sh
# Build, test, and regenerate every paper figure/ablation, recording the
# outputs the repository documents (test_output.txt, sweep_output.txt).
# Each sweep's --out document lands in results/<name>.json.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
mkdir -p results
: > sweep_output.txt
for figure in $(build/tools/persim_sweep --list); do
    echo "==== --figure $figure ====" | tee -a sweep_output.txt
    build/tools/persim_sweep --figure "$figure" --jobs "$(nproc)" --quiet \
        --out "results/$figure.json" 2>&1 | tee -a sweep_output.txt
done
