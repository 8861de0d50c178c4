// Codec-wide kernel registry: one SimdTier ladder shared by every
// vectorized kernel (SAD, interpolation, transform, deblocking, MC), with
// the tier picked at runtime from CPUID rather than compile-time macros —
// the paper's per-microarchitecture Parallel Modules library (Sec. III-B1)
// shipped as one binary. `resolve_tier` is the single authority on what a
// tier request actually gets: it consults the CPU features, each kernel's
// own ceiling (AVX2 only where it pays), and logs a degrade once, so a
// silent fallback can never masquerade as the requested tier.
#pragma once

#include <vector>

namespace feves {

/// Kernel tiers, in increasing order of expected throughput.
enum class SimdTier {
  kScalar,   ///< straightforward reference implementation (the oracle)
  kBlocked,  ///< auto-vectorizable variant (interpolation; scalar elsewhere)
  kSse2,     ///< explicit x86-64 SSE2 intrinsics
  kAvx2,     ///< explicit AVX2 intrinsics (runtime-gated)
  kAuto,     ///< best tier available on this machine
};

/// The vectorized kernel families the registry dispatches.
enum class KernelId {
  kSadGrid,    ///< 16x16 -> 16 4x4 SADs (FSBM inner loop)
  kSadBlock,   ///< rectangular SAD (SME partition probes)
  kInterp,     ///< 6-tap half-pel + bilinear quarter-pel (INT)
  kTransform,  ///< 4x4 forward/inverse core transform (TQ / TQ^-1)
  kDeblock,    ///< in-loop deblocking inner loops (DBL)
  kMc,         ///< motion-compensated prediction + residual (MC)
  kCount,
};

const char* kernel_name(KernelId id);
const char* tier_name(SimdTier tier);

/// Resolves what `requested` actually runs as for kernel `id` on this
/// machine: kAuto picks the best available tier; an explicit tier degrades
/// down the ladder (kAvx2 -> kSse2 -> kBlocked) when the CPU lacks the ISA
/// or the kernel has no profitable implementation at that width. A degrade
/// of an explicit request is logged once per (kernel, tier) pair.
SimdTier resolve_tier(KernelId id, SimdTier requested);

/// Best tier kernel `id` can run on this machine (== resolve of kAuto).
SimdTier max_tier(KernelId id);

/// One row of the per-kernel tier report surfaced into SchedTelemetry and
/// the trace: what the caller asked for and what the registry resolved.
struct KernelTierChoice {
  KernelId id;
  SimdTier requested;
  SimdTier resolved;
};

/// Resolves `requested` for every kernel family (what an encoder configured
/// with this tier actually executes on this machine).
std::vector<KernelTierChoice> kernel_tier_report(SimdTier requested);

}  // namespace feves
