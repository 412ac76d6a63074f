#!/usr/bin/env bash
# A/B perf gate: benchmark the gated hot paths at a baseline ref (default
# HEAD~1) in a throwaway git worktree AND at the current working tree, then
# compare the two runs with scripts/bench_compare.py.
#
# Unlike the recorded BENCH_1.json baseline — numbers from the machine of
# record, useless as a gate anywhere else — both sides here run back to
# back on the SAME machine, so the 15% ns/op threshold and the allocs/op
# gate hold on laptops and CI runners alike. Benchmarks the baseline commit
# doesn't have yet (e.g. a just-added sweep) are warned about and skipped
# by the comparator; the --zero-alloc prefix still gates them on the fresh
# side.
#
#   BENCH_AB_BASE   baseline git ref            (default HEAD~1)
#   BENCH_AB_TIME   -benchtime for both sides   (default 1s)
#   BENCH_AB_COUNT  -count repetitions per side (default 3; the comparator
#                   takes best-of-N ns/op, worst-of-N allocs/op)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${BENCH_AB_BASE:-HEAD~1}"
BENCHTIME="${BENCH_AB_TIME:-1s}"
COUNT="${BENCH_AB_COUNT:-3}"
# The gated hot paths only — figure drivers are too noisy to A/B. PACKAGES
# holds the end-to-end benchmarks (root) and the per-layer ones.
PACKAGES='. ./internal/ztier'
PATTERN='BenchmarkSimulatorThroughput|BenchmarkPredictorFaultPath|BenchmarkMemoryGetHit|BenchmarkMemoryConcurrentGet|BenchmarkMemoryGetZtierHit|BenchmarkMemoryEnsembleGetHit|BenchmarkCompress|BenchmarkDecompress'
HEADLINE='BenchmarkSimulatorThroughput,BenchmarkPredictorFaultPath,BenchmarkMemoryGetHit,BenchmarkMemoryConcurrentGet,BenchmarkMemoryGetHitParallel/procs=8,BenchmarkMemoryGetZtierHit,BenchmarkMemoryEnsembleGetHit,BenchmarkCompress/semi,BenchmarkCompress/kv,BenchmarkCompress/stored,BenchmarkDecompress/semi,BenchmarkDecompress/kv,BenchmarkDecompress/stored'

run_bench() { # $1 = source dir, $2 = output json
  # shellcheck disable=SC2086 # PACKAGES is a word list
  (cd "$1" && go test -run '^$' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    -bench "$PATTERN" $PACKAGES) | python3 scripts/bench2json.py > "$2"
}

TMP="$(mktemp -d)"
cleanup() {
  git worktree remove --force "$TMP/base" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== A side: $BASE_REF =="
git worktree add --quiet --detach "$TMP/base" "$BASE_REF"
run_bench "$TMP/base" "$TMP/base.json"

echo "== B side: working tree =="
run_bench . "$TMP/head.json"

python3 scripts/bench_compare.py "$TMP/base.json" "$TMP/head.json" \
  --headline "$HEADLINE" \
  --zero-alloc BenchmarkMemoryGetHit \
  --zero-alloc BenchmarkMemoryConcurrentGet \
  --zero-alloc BenchmarkMemoryGetZtierHit \
  --zero-alloc BenchmarkMemoryEnsembleGetHit \
  --zero-alloc BenchmarkCompress \
  --zero-alloc BenchmarkDecompress
