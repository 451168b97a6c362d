#!/usr/bin/env bash
# Pre-merge gate: formatting, lints and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run

echo "== shootdown batched/eager equivalence =="
cargo test -q -p cache-kernel --test prop_shootdown

echo "== chaos pinned seeds (deterministic crash containment) =="
cargo test -q -p vpp --test prop_chaos pinned_seed

echo "== overload pinned seeds (reservations, backpressure, thrash) =="
cargo test -q -p vpp --test prop_overload pinned_seed
cargo test -q -p vpp --test prop_chaos pinned_seed_overload

echo "== crash recovery example builds =="
cargo build -q -p vpp --example crash_recovery

echo "== partition pinned seeds (membership, fencing, replay) =="
cargo test -q -p vpp --test prop_partition pinned_partition
cargo test -q -p vpp --test prop_partition fault_free_run_is_inert

echo "== partition report smoke =="
cargo run -q --release -p bench --bin report -- partition > /dev/null

echo "== partition example end-to-end (cut, heal, node-down, quiesced directories) =="
cargo run -q --release -p vpp --example partition > /dev/null

echo "== threaded/lockstep pinned seeds (sharded executives) =="
cargo test -q -p vpp --test prop_threaded pinned_threaded_seed
cargo test -q -p vpp --test prop_threaded pinned_lockstep_replay

echo "== throughput report smoke =="
cargo run -q --release -p bench --bin report -- throughput > /dev/null

echo "== signal batched/eager equivalence pinned seeds =="
cargo test -q -p vpp --test prop_signal_batch pinned_signal_batch

echo "== fan-out ring drain (lockstep + threaded + panic, while running and while draining) =="
cargo test -q -p workloads fanout::
cargo test -q -p cache-kernel shard::tests::panicked_shard_drains_fanout_ring
cargo test -q -p cache-kernel shard::tests::panic_while_draining_does_not_wait_for_the_watchdog

echo "== adversarial pinned seeds (capability containment) =="
cargo test -q -p vpp --test prop_chaos pinned_seed_adversarial
cargo test -q -p vpp --test prop_chaos adversarial_caps_off_is_inert
cargo test -q -p vpp --test integration_recovery restart_under_reduced_grant

echo "== caps report smoke =="
cargo run -q --release -p bench --bin report -- caps --json > /dev/null

echo "== messaging report smoke =="
cargo run -q --release -p bench --bin report -- msg > /dev/null

echo "== serving-under-chaos pinned gates (cut smoke, replay, inertness, budget drain) =="
cargo test -q -p vpp --test integration_serve serve_smoke_cut_midrun
cargo test -q -p vpp --test integration_serve serve_replay_is_byte_identical
cargo test -q -p vpp --test integration_serve serve_knobs_off_is_inert
cargo test -q -p vpp --test prop_overload pinned_budget_drain_replays

echo "== serve sweep report smoke =="
cargo run -q --release -p bench --bin report -- serve > /dev/null

echo "== gray-failure pinned gates (no false epochs, dead detection, inertness, hedge ledger, replay) =="
cargo test -q -p vpp --test prop_gray pure_delay_schedule_never_mints_an_epoch
cargo test -q -p vpp --test prop_gray dead_node_is_still_detected_within_the_legacy_budget
cargo test -q -p vpp --test prop_gray all_knobs_off_leaves_gray_counters_inert
cargo test -q -p vpp --test prop_gray hedges_fire_win_and_balance_the_budget_ledger
cargo test -q -p vpp --test prop_gray delayed_hedged_run_replays_byte_identically

echo "== gray composition gates (delay × partition, delay × chaos) =="
cargo test -q -p vpp --test prop_partition pinned_partition_composes_with_delay_schedule
cargo test -q -p vpp --test prop_chaos adversarial_chaos_composes_with_delay_schedules

echo "== gray sweep report smoke (asserts the p99 cut and per-node ledgers) =="
cargo run -q --release -p bench --bin report -- gray > /dev/null

ckbench() {
  cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

echo "== messaging wall-clock gate (same-run ratios: batched vs eager, remap vs copy) =="
# Host nanoseconds differ from machine to machine; the ratio of two spans
# timed inside one process does not. The batched 16-raise storm may cost
# at most 1.25x sixteen eager raises, and a 3 900-byte zero-copy trip at
# most 2x the copying one (scripts/README.md).
out="$(ckbench --workload msg_mix --seed 7 --reps 3 --trace 1 2>&1)"
if ! grep -q '^{"correct": true' <<<"$out"; then
  echo "ckbench msg_mix (traced): the run was not correct" >&2
  exit 1
fi
awk '
  $1 == "cache-kernel.raise_signal_ns"   { raise = $2 }
  $1 == "cache-kernel.signal_batch16_ns" { batch = $2 }
  $1 == "libkern.chan.classic_3900_ns"   { classic = $2 }
  $1 == "libkern.chan.page_3900_ns"      { page = $2 }
  END {
    if (!(raise > 0 && batch > 0 && classic > 0 && page > 0)) {
      print "messaging gate: a span is missing from the traced run" > "/dev/stderr"
      exit 1
    }
    printf "  signal_batch16_ns %.0f = %.2f x 16 raise_signal_ns (limit 1.25)\n", batch, batch / (16 * raise)
    printf "  page_3900_ns %.0f = %.2f x classic_3900_ns (limit 2)\n", page, page / classic
    if (batch > 1.25 * 16 * raise || page > 2 * classic) {
      print "messaging gate: a fast path is slower than its limit" > "/dev/stderr"
      exit 1
    }
  }' <<<"$out"

echo "== shard scaling gate (same-run ratio: two free-running shards vs one) =="
# The same mill, the same jobs, one process after the other on the same
# host: two free-running shards on two cores must deliver at least 1.25x
# the single lockstep shard (scripts/README.md).
if (( $(nproc) >= 2 )); then
  mill_ops() {
    local out
    out="$(ckbench --workload "$1" --seed 7 --reps 5 --trace 0 2>&1)"
    if ! grep -q '^{"correct": true' <<<"$out"; then
      echo "ckbench $1: the run was not correct" >&2
      return 1
    fi
    awk '$1 == "host_ops_per_s" { print $2 }' <<<"$out"
  }
  one="$(mill_ops mill_1s)"
  two="$(mill_ops mill_2t)"
  awk -v one="$one" -v two="$two" 'BEGIN {
    if (!(one > 0 && two > 0)) {
      print "scaling gate: host_ops_per_s is missing from a run" > "/dev/stderr"
      exit 1
    }
    printf "  mill_2t %.0f = %.2f x mill_1s %.0f jobs/s (floor 1.25)\n", two, two / one, one
    if (two < 1.25 * one) {
      print "scaling gate: the free-running shards lost their scaling" > "/dev/stderr"
      exit 1
    }
  }'
else
  echo "  skipped: nproc = $(nproc), and two shard threads on one core measure the scheduler, not the rings"
fi

echo "== replacement O(1) gate (same-run ratio: an LRU touch at 8192 resident pages vs 512) =="
# One process times both pools, so the host's speed cancels: a touch in
# the 16x larger pool may cost at most 3x (scripts/README.md).
cargo test -q --release -p libkern --test replacement_scaling -- --ignored --nocapture

echo "== ckbench gate (benchmark unit tests, BENCHMARK.json contract, exact sim fingerprints) =="
cargo test -q --release --manifest-path benchmark/Cargo.toml
diff -u BENCHMARK.json <(ckbench --contract)
# The simulation is deterministic, so any sim-cycle or counter change
# shows as a different fingerprint: every workload must pass its own
# correctness check and print exactly the pinned hash.
grep -v '^#' scripts/ckbench.fingerprints | while read -r workload want; do
  out="$(ckbench --workload "$workload" --seed 7 --reps 3 --trace 0 2>&1)"
  got="$(sed -n 's/^bench\.sim_fingerprint  *\([0-9a-f]*\) .*/\1/p' <<<"$out")"
  if ! grep -q '^{"correct": true' <<<"$out" || [[ "$got" != "$want" ]]; then
    echo "ckbench $workload: fingerprint '$got', pinned '$want' (or the run was not correct)" >&2
    exit 1
  fi
  echo "  $workload $got"
done

if [[ "${TSAN:-0}" == "1" ]]; then
  # Opt-in ThreadSanitizer pass over the cross-thread paths (the SPSC
  # rings and the free-running shard workers). Needs a nightly
  # toolchain with the rust-src component:
  #   rustup toolchain install nightly --component rust-src
  #   TSAN=1 scripts/check.sh
  echo "== ThreadSanitizer (nightly) =="
  host="$(rustc -vV | sed -n 's/^host: //p')"
  tsan() {
    RUSTFLAGS="-Z sanitizer=thread" \
      cargo +nightly test -Z build-std --target "$host" -q "$@"
  }
  tsan -p hw ring::
  tsan -p cache-kernel --lib shard::
  tsan -p workloads throughput::
  tsan -p vpp --test prop_threaded pinned_threaded_seed
fi

echo "All checks passed."
