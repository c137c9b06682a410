#!/usr/bin/env bash
# One-shot verification: everything a change must survive before merge.
#
#   1. tier-1: default configure, full build, complete ctest run
#      (unit + property tests, tsan_smoke sub-build);
#   2. an SEGROUTE_OBS=OFF configure + build + test run, proving the
#      tree compiles and passes with all instrumentation compiled out;
#   3. an SEGROUTE_SANITIZE=address (ASan + UBSan) configure + build +
#      ctest run, catching memory errors such as a dangling borrowed
#      channel behind a ChannelIndex;
#   4. the tier-1 build reconfigured with SEGROUTE_BENCH_JSON=ON, which
#      registers the perf_* gates, then a serial run of those gates plus
#      tsan_smoke and svc_smoke. The step fails if ctest lists fewer
#      gates than it names, so a gate cannot silently drop out.
#
# Usage: scripts/verify.sh [build-dir]     (default: build)
# Exits nonzero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/4] tier-1: configure + build + ctest ($BUILD) =="
# BENCH_JSON off: the perf gates run serially in step 4, not under -j.
cmake -B "$BUILD" -S . -DSEGROUTE_BENCH_JSON=OFF
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== [2/4] SEGROUTE_OBS=OFF build + ctest ($BUILD-obs-off) =="
cmake -B "$BUILD-obs-off" -S . -DSEGROUTE_OBS=OFF
cmake --build "$BUILD-obs-off" -j "$JOBS"
ctest --test-dir "$BUILD-obs-off" --output-on-failure -j "$JOBS" \
  -E 'tsan_smoke'  # the tsan sub-build is identical to tier-1's; skip the repeat

echo "== [3/4] SEGROUTE_SANITIZE=address build + ctest ($BUILD-asan) =="
cmake -B "$BUILD-asan" -S . -DSEGROUTE_SANITIZE=address
cmake --build "$BUILD-asan" -j "$JOBS"
# Excluded here, and only these: tsan_smoke (its own ThreadSanitizer
# sub-build, which cannot be combined with ASan) and the perf_* timing
# gates (sanitizer overhead would trip their wall-clock bounds).
ctest --test-dir "$BUILD-asan" --output-on-failure -j "$JOBS" \
  -E '^(tsan_smoke|perf_.*)$'

echo "== [4/4] sanitizer + perf gates (tier-1 build, SEGROUTE_BENCH_JSON=ON) =="
GATES=(tsan_smoke perf_smoke perf_engine perf_fabric perf_obs perf_svc
       perf_incremental svc_smoke)
GATE_RE="^($(IFS='|'; echo "${GATES[*]}"))\$"
cmake -B "$BUILD" -S . -DSEGROUTE_BENCH_JSON=ON
cmake --build "$BUILD" -j "$JOBS"
LISTED="$(ctest --test-dir "$BUILD" -N -R "$GATE_RE" |
          sed -n 's/^Total Tests: //p')"
if [ "${LISTED:-0}" -ne "${#GATES[@]}" ]; then
  echo "verify.sh: step 4 names ${#GATES[@]} gates but ctest lists" \
       "${LISTED:-0}; a gate is not registered" >&2
  exit 1
fi
ctest --test-dir "$BUILD" --output-on-failure -R "$GATE_RE"

echo "verify.sh: all gates passed"
