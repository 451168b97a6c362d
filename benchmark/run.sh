#!/usr/bin/env bash
# The benchmark in one command: build it (release), run every workload in
# a fresh process — timed with tracing off, then traced — print every
# metric by name with its unit, and check the results. Each run ends in
# its workload's correctness check; a failed check fails the script.
#
#   benchmark/run.sh                 the full set, as the driver runs it
#   benchmark/run.sh --selfcheck     two sets back to back must agree
#   benchmark/run.sh --workload ck_thrash --seed 7 --reps 9 [--trace]
#
# Raw per-rep rows and traces land in benchmark/out/ (not committed).
set -euo pipefail
cd "$(dirname "$0")/.."

ckbench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

# BENCHMARK.json is generated from the tables the binary measures by.
if ! diff -u BENCHMARK.json <(ckbench --contract); then
    echo "run.sh: BENCHMARK.json is stale; regenerate it with: ckbench --contract > BENCHMARK.json" >&2
    exit 1
fi

if [ "$#" -eq 0 ]; then
    set -- --all
fi
ckbench "$@"
