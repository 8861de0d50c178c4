#!/usr/bin/env bash
# Builds the suite under a sanitizer and runs the concurrency-critical tests:
# the op-graph executors, the thread pool, and the fault-injection/recovery
# paths (whose retry loop exercises executor teardown under failure).
#
# Usage: tests/run_sanitized.sh [address|thread|undefined]   (default: thread)
set -euo pipefail

SAN="${1:-thread}"
case "$SAN" in
  address|thread|undefined) ;;
  *) echo "usage: $0 [address|thread|undefined]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SAN"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEVES_SANITIZE="$SAN" \
  -DFEVES_BUILD_BENCH=OFF \
  -DFEVES_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j "$(nproc)" \
  --target test_platform test_common test_core test_service test_obs \
           test_chaos test_codec test_cluster test_cluster_chaos

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

# Every binary runs under a hard wall-clock bound: the failure modes these
# sweeps hunt (lost condvar wakes, leaked leases, deadlocked session loops)
# present as hangs, and timeout(1) turns a hang into a bounded nonzero exit
# instead of a CI job pinned until the runner's global kill.
run_bounded() {
  timeout --signal=ABRT "${FEVES_TEST_TIMEOUT:-900}" "$@"
}

# Executors + fault machinery, the thread pool (including concurrent
# callers on one pool), and the end-to-end recovery loops (real mode runs
# every lane of every attempt on the process-wide lane runtime's parked
# threads, woken per op by the lane whose op unblocked them). The
# *Executor* filter includes the lane-runtime tests: back-to-back calls
# that must start no thread, and four concurrent callers.
run_bounded "$BUILD/tests/test_platform" --gtest_filter='*Executor*:*Fault*:*Schedule*:OpGraph.*:DevicePool.*:DeviceLease.*:*Arbiter*'
run_bounded "$BUILD/tests/test_common" --gtest_filter='ThreadPool*:LogRace*'
run_bounded "$BUILD/tests/test_core" --gtest_filter='FaultRecovery*:DeviceHealthMonitor.*'

# Device-count selection: devices outside the chosen set sit frames out, so
# the shadow prestages only the devices that run. When the running CPU is
# lost, an accelerator whose mirror went stale is restaged whole and runs
# beside a shadow that now prestages it.
run_bounded "$BUILD/tests/test_core" --gtest_filter='DeviceSelectionReal.*'

# Recycled mirror slots: a lane-runtime thread re-poisons the stage's
# slot while the executor's lanes write the mirrors (TSan); recycled and
# restaged slots keep their geometry and extents (ASan).
run_bounded "$BUILD/tests/test_core" --gtest_filter='MirrorTripwire.*'

# The shared Algorithm-1 loop's shadow: frame n+1's speculative schedule and
# (real mode) mirror prestaging run on a lane-runtime thread while
# execute_real's lanes run frame n, on and off, with and without faults.
run_bounded "$BUILD/tests/test_core" --gtest_filter='FramePipeline.*'

# Multi-core real-mode devices: every lane fans its rows over the one
# process-wide device pool. TSan covers lanes sharing that pool and the R*
# row split; ASan covers the deblocking wavefront's reads and writes. The
# wavefront's park path runs by construction (a stalled row makes the row
# below park, then wakes it), and a failing row releases its waiters.
# Canonical SF rows take their horizontal borders from whoever writes them
# (host INT rows, SF_out gathers, a solo accelerator's publish) while other
# lanes read the rows next to them.
run_bounded "$BUILD/tests/test_codec" --gtest_filter='RStar.*:Deblock.Wavefront*'
run_bounded "$BUILD/tests/test_core" --gtest_filter='Collaborative.SysNffMultiRowDevicesBitExact:*CanonicalSf.*'

# Entropy coding per MB row inside R*: rows coded into writers of their own
# on the pool's threads, spliced after the frame. The FaultRecovery* slice
# above includes FaultRecoveryReal.RstarFailureAfterRowCodingStaysBitExact,
# which fails an R* attempt after every row was coded: the stream must
# still match the reference byte for byte.
run_bounded "$BUILD/tests/test_codec" --gtest_filter='Bitstream.*:FrameCodec.SplicedRowBitstreamMatchesSerialWriter'

# Kernel-registry oracle battery: the explicit SSE2/AVX2 tiers' loads and
# stores under ASan/UBSan, then again with the CPU capped at SSE2 so the
# degraded dispatch ladder (AVX2 request resolving down) is the path taken.
# It includes the fused-ME and fixed-shape SME-probe cases, whose footprint
# tests run the kernels on buffers of exactly the bytes the oracle reads.
run_bounded "$BUILD/tests/test_codec" --gtest_filter='SimdTiers*'
FEVES_CPU_CAP=sse2 \
  run_bounded "$BUILD/tests/test_codec" --gtest_filter='SimdTiers*'

# Untrusted bitstreams: the decoder fed random bit flips and truncations
# must fail with an attributed error, never read out of bounds.
run_bounded "$BUILD/tests/test_codec" --gtest_filter='BitstreamFuzz*:*/BitstreamFuzzFlip.*'

# Multi-session encode service: session churn / abort races under the
# arbiter and the resilience ladder (restart/backoff/shed races).
run_bounded "$BUILD/tests/test_service" --gtest_filter='ServiceStress*:ArbiterGrantRaii.*:ServiceResilience.*'

# Op trace events: both executors build them from the finished result on
# the calling thread after their lanes joined, including a real-mode
# encode with a faulted attempt.
run_bounded "$BUILD/tests/test_obs" --gtest_filter='TraceRoundTrip.*:ExecutorTrace.*'

# Reduced chaos sweep: randomized fault-storm/abort/overload schedules are
# exactly the interleavings the sanitizers are here to probe. tools/chaos.sh
# drives the full 500-schedule sweep; a handful suffices per sanitizer.
FEVES_CHAOS_ITERS="${FEVES_CHAOS_ITERS:-8}" \
  run_bounded "$BUILD/tests/test_chaos"

# Cluster tier: manager driver thread vs worker executor threads vs the
# completion sink is the racy triangle; the functional battery plus a
# reduced node-chaos sweep cover dispatch, fencing, and teardown orders.
run_bounded "$BUILD/tests/test_cluster"
FEVES_NODE_CHAOS_ITERS="${FEVES_NODE_CHAOS_ITERS:-4}" \
  run_bounded "$BUILD/tests/test_cluster_chaos"

echo "run_sanitized.sh: all $SAN-sanitized tests passed"
