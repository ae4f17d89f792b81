#!/usr/bin/env sh
# Builds the ThreadSanitizer configuration and runs the concurrency test
# suite (thread pool, parallel joins, serving layer — including the
# memtable head's reader/writer oracle test — and network loopback)
# under it. The serve_test_mapped / serve_shard_test_mapped ctest legs
# (ENVIRONMENT SSJOIN_RESIDENT_BUDGET=1) repeat the serving suites with
# the base tier served from mmap'd segment files, putting the mapped
# read path under concurrent readers and a compacting writer.
#
#   tools/run_tsan_tests.sh [build-dir]
#
# The TSan build lives in its own directory (default build-tsan) so the
# regular build stays untouched.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" -DSSJOIN_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc)}" --target \
      thread_pool_test parallel_join_test serve_test serve_shard_test \
      serve_memtable_test net_loopback_test
# The differential harness — including its scripted Delete schedules
# (tombstones filtered at probe time under concurrent readers) — is
# CPU-heavy under TSan; keep the sweep small here (override by exporting
# SSJOIN_DIFF_SEEDS). The concurrency stress tests, whose writers
# interleave inserts, deletes and compactions, run in full regardless.
SSJOIN_DIFF_SEEDS=${SSJOIN_DIFF_SEEDS:-2}
export SSJOIN_DIFF_SEEDS
ctest --test-dir "$build_dir" \
      -R '(thread_pool|parallel_join|serve_test|serve_shard_test|serve_memtable|net_loopback)' \
      --output-on-failure
