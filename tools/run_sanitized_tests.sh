#!/usr/bin/env bash
# Build and run the tier-1 test suite under ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer (see ARIESIM_SANITIZE in
# the top-level CMakeLists).
#
#   tools/run_sanitized_tests.sh              # all three sanitizers
#   tools/run_sanitized_tests.sh thread       # TSan only
#   tools/run_sanitized_tests.sh address      # ASan only
#   tools/run_sanitized_tests.sh undefined    # UBSan only
#
# Extra arguments after the sanitizer name are forwarded to ctest, e.g.
#   tools/run_sanitized_tests.sh thread -R fault_injection
#   tools/run_sanitized_tests.sh thread -L stress   # stress suites only
#   tools/run_sanitized_tests.sh thread -L observability  # tracer/histograms
# The observability label covers the enable/disable-vs-recorder races in the
# tracer, concurrent histogram recording, the concurrency-forensics
# surface (lock-free contention sketches, Snapshot() sampled under an
# 8-thread storm, watchdog firing concurrent with waiters), and — since
# PR 9 — commit critical-path attribution (TLS breakdown binding vs the
# group-commit flusher's batch-phase timestamps, multithreaded commit
# harvest) plus the background metrics sampler (start/stop lifecycle,
# sampling concurrent with recording threads) and — since PR 10 — the
# flight recorder (cadence thread vs forced captures, trip/flush-failure
# observers firing from engine threads, trace dumps racing recorders
# across enable flips) — the TSan leg is what certifies them
# data-race-free (see docs/OBSERVABILITY.md). It also certifies the sharded
# tables that keep a point read off every global mutex: the buffer pool's
# page table (atomic slots, lock-free pins racing CLOCK unmaps) and its
# sharded miss and write-back path (loading marks, victim claims and
# write-backs, each in the page's own shard with no pool-wide mutex;
# pool_hammer_test, including DirtyPageTable() snapshots racing evictions
# and failed write-backs), the lock table (256 name
# shards guarded by RwLatch words, not mutexes: TSan checks the data races
# across them through the words' acquire/release edges, but not their lock
# order; deadlock detection and Snapshot() across shards, waiter wake-ups;
# lock_forensics_test, lock_manager_test) and the transaction table
# (checkpoint snapshots against concurrent appends; checkpoint_test) — see
# docs/CONCURRENCY.md, "Lock order and sharding".
# Stress-test seed lists can be narrowed for quicker sanitized runs:
#   ARIESIM_STRESS_SEEDS=1-4 tools/run_sanitized_tests.sh thread
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=(thread address undefined)
if [[ $# -gt 0 && ( "$1" == "thread" || "$1" == "address" || "$1" == "undefined" ) ]]; then
  sanitizers=("$1")
  shift
fi

jobs=$(nproc 2>/dev/null || echo 4)

for san in "${sanitizers[@]}"; do
  build_dir="build-${san}san"
  echo "=== ${san} sanitizer: configuring ${build_dir} ==="
  cmake -B "${build_dir}" -S . -DARIESIM_SANITIZE="${san}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== ${san} sanitizer: building ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ${san} sanitizer: running tests ==="
  # halt_on_error makes a sanitizer report fail the test process (and thus
  # ctest) instead of scrolling past.
  TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}" \
  ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1${UBSAN_OPTIONS:+ $UBSAN_OPTIONS}" \
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" "$@"
  echo "=== ${san} sanitizer: PASS ==="
done
