#!/usr/bin/env bash
# One-stop pre-merge check and the single CI entry point.
#
# Local usage (runs every stage, collects failures, reports them all):
#   tools/check.sh [address|thread|undefined] [--service]
#
# CI usage (one stage per job, exit code propagates that stage's result):
#   tools/check.sh --ci build-test    # configure + build + tier-1 ctest
#   tools/check.sh --ci sanitize      # nested sanitizer builds (ctest -L)
#   tools/check.sh --ci format        # clang-format over the source tree
#   tools/check.sh --ci bench-smoke   # cheap bench runs, JSON to bench-json/
#   tools/check.sh --ci chaos-smoke   # reduced chaos sweep (FEVES_CHAOS_ITERS)
#
# Environment: BUILD_TYPE sets CMAKE_BUILD_TYPE; CC/CXX select the
# toolchain; BENCH_JSON_DIR overrides the bench artifact directory.
set -uo pipefail

SAN="thread"
SERVICE=0
CI_STAGE=""
while [ $# -gt 0 ]; do
  case "$1" in
    address|thread|undefined) SAN="$1" ;;
    --service) SERVICE=1 ;;
    --ci)
      [ $# -ge 2 ] || { echo "--ci needs a stage" >&2; exit 2; }
      CI_STAGE="$2"; shift ;;
    *)
      echo "usage: $0 [address|thread|undefined] [--service] [--ci <stage>]" >&2
      exit 2 ;;
  esac
  shift
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
BENCH_JSON_DIR="${BENCH_JSON_DIR:-$BUILD/bench-json}"

# Every stage runs even after an earlier one fails; each failure is
# recorded and the script exits nonzero listing all of them — a red stage
# can never be masked by a later green one.
FAILED=()
run_stage() {
  local name="$1"; shift
  echo
  echo "==> $name"
  if "$@"; then
    echo "==> $name: OK"
  else
    echo "==> $name: FAILED" >&2
    FAILED+=("$name")
  fi
}

configure() {
  local args=(-B "$BUILD" -S "$ROOT")
  [ -n "${BUILD_TYPE:-}" ] && args+=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
  [ -n "${FEVES_CMAKE_ARGS:-}" ] && args+=($FEVES_CMAKE_ARGS)
  cmake "${args[@]}"
}

stage_build() {
  configure && cmake --build "$BUILD" -j "$(nproc)"
}

stage_test() {
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -LE sanitize
}

stage_service_tests() {
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" -L service
}

stage_service() {
  # Local-only extra: the throughput sweep's shape thresholds ride on real
  # thread interleaving, too jittery to gate CI on.
  stage_service_tests && "$BUILD/bench/ext_service_throughput"
}

stage_sanitize() {
  # `all` fans out to every flavour (CI); a single name runs one (local).
  local which="$1"
  if [ "$which" = all ]; then
    ctest --test-dir "$BUILD" --output-on-failure -L sanitize
  else
    ctest --test-dir "$BUILD" --output-on-failure -L sanitize \
      -R "sanitize.$which"
  fi
}

stage_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "clang-format not found" >&2
    return 1
  fi
  local files
  files=$(find "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" \
            -name '*.cpp' -o -name '*.hpp')
  # shellcheck disable=SC2086
  clang-format --dry-run --Werror $files
}

stage_chaos_smoke() {
  # Reduced chaos sweep: the CI-sized slice of tools/chaos.sh (which drives
  # the full 500-schedule soak). Seed-deterministic, so a red run here names
  # the seeds to replay locally. timeout(1) bounds the one failure mode the
  # sweep can't report on its own: a wedged harness.
  local ok=0
  FEVES_CHAOS_ITERS="${FEVES_CHAOS_ITERS:-100}" \
    timeout --signal=ABRT 900 "$BUILD/tests/test_chaos" || ok=1
  # Node-level slice: whole-node crash/hang/partition/heartbeat-loss storms
  # against the cluster tier's fencing and reassignment invariants.
  FEVES_NODE_CHAOS_ITERS="${FEVES_NODE_CHAOS_ITERS:-40}" \
    timeout --signal=ABRT 900 "$BUILD/tests/test_cluster_chaos" || ok=1
  return $ok
}

stage_bench_smoke() {
  mkdir -p "$BENCH_JSON_DIR"
  local ok=0
  "$BUILD/bench/tab_overhead" --smoke \
      --json "$BENCH_JSON_DIR/tab_overhead.json" || ok=1
  "$BUILD/bench/ext_trace_overhead" --smoke \
      --json "$BENCH_JSON_DIR/ext_trace_overhead.json" || ok=1
  "$BUILD/bench/ext_pipeline_overhead" --smoke \
      --json "$BENCH_JSON_DIR/ext_pipeline_overhead.json" || ok=1
  "$BUILD/bench/micro_kernels" --smoke \
      --json "$BENCH_JSON_DIR/micro_kernels.json" || ok=1
  # Cluster axis only: the single-pool sweep's shape thresholds are too
  # interleaving-jittery for CI (see stage_service), but the per-node
  # counter consistency and all-sessions-complete checks are not.
  "$BUILD/bench/ext_service_throughput" --smoke --workers 4 \
      --json "$BENCH_JSON_DIR/ext_service_throughput.json" \
      >/dev/null || ok=1
  return $ok
}

case "$CI_STAGE" in
  "")
    # Local pre-merge sweep. Format is advisory here when the binary is
    # missing (developer boxes vary); CI always has it.
    run_stage "configure+build" stage_build
    run_stage "tier-1 tests" stage_test
    [ "$SERVICE" -eq 1 ] && run_stage "service battery" stage_service
    run_stage "sanitize ($SAN)" stage_sanitize "$SAN"
    if command -v clang-format >/dev/null 2>&1; then
      run_stage "format" stage_format
    else
      echo "(format check skipped: clang-format not installed)"
    fi
    ;;
  build-test)
    # The tier-1 stage already runs the service- and chaos-labelled tests.
    run_stage "configure+build" stage_build
    run_stage "tier-1 tests" stage_test
    ;;
  sanitize)
    # FEVES_SAN narrows to one flavour (CI matrix); default runs all three.
    run_stage "configure" configure
    run_stage "sanitize (${FEVES_SAN:-all})" stage_sanitize "${FEVES_SAN:-all}"
    ;;
  format)
    run_stage "format" stage_format
    ;;
  bench-smoke)
    run_stage "configure+build" stage_build
    run_stage "bench smoke" stage_bench_smoke
    ;;
  chaos-smoke)
    run_stage "configure+build" stage_build
    run_stage "chaos smoke" stage_chaos_smoke
    ;;
  *)
    echo "unknown --ci stage: $CI_STAGE" >&2
    echo "stages: build-test sanitize format bench-smoke chaos-smoke" >&2
    exit 2 ;;
esac

echo
if [ ${#FAILED[@]} -gt 0 ]; then
  echo "check.sh: FAILED stages: ${FAILED[*]}" >&2
  exit 1
fi
echo "check.sh: all green"
