#include "codec/kernels.hpp"

#include "common/cpu_features.hpp"
#include "common/log.hpp"

#include <atomic>

namespace feves {

namespace {

/// Per-kernel ceiling on the explicit-intrinsics ladder. AVX2 pays on the
/// wide streaming kernels (SAD over 16-byte rows, interpolation row taps);
/// the 4x4 transform, the masked deblocking filters and the <=16-wide MC
/// rows are 128-bit shaped, so their best tier is SSE2.
SimdTier kernel_ceiling(KernelId id) {
  switch (id) {
    case KernelId::kSadGrid:
    case KernelId::kSadBlock:
    case KernelId::kInterp:
      return SimdTier::kAvx2;
    case KernelId::kTransform:
    case KernelId::kDeblock:
    case KernelId::kMc:
      return SimdTier::kSse2;
    case KernelId::kCount:
      break;
  }
  return SimdTier::kScalar;
}

/// Best tier the CPU itself supports.
SimdTier cpu_ceiling() {
  const CpuFeatures& f = cpu_features();
  if (f.avx2) return SimdTier::kAvx2;
  if (f.sse2) return SimdTier::kSse2;
  return SimdTier::kBlocked;
}

SimdTier min_tier(SimdTier a, SimdTier b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// Logs an explicit-request degrade once per (kernel, requested) pair — a
/// caller that pinned kAvx2 and silently ran kBlocked is exactly the bug
/// this registry exists to make visible.
void note_degrade(KernelId id, SimdTier requested, SimdTier resolved) {
  static std::atomic<bool> logged[static_cast<int>(KernelId::kCount)]
                                 [static_cast<int>(SimdTier::kAuto)];
  std::atomic<bool>& flag =
      logged[static_cast<int>(id)][static_cast<int>(requested)];
  if (!flag.exchange(true, std::memory_order_relaxed)) {
    FEVES_WARN("kernels", kernel_name(id) << ": requested tier "
                                          << tier_name(requested)
                                          << " unavailable, running "
                                          << tier_name(resolved));
  }
}

}  // namespace

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kSadGrid:
      return "sad_grid";
    case KernelId::kSadBlock:
      return "sad_block";
    case KernelId::kInterp:
      return "interp";
    case KernelId::kTransform:
      return "transform";
    case KernelId::kDeblock:
      return "deblock";
    case KernelId::kMc:
      return "mc";
    case KernelId::kCount:
      break;
  }
  return "?";
}

const char* tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kBlocked:
      return "blocked";
    case SimdTier::kSse2:
      return "sse2";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAuto:
      return "auto";
  }
  return "?";
}

SimdTier max_tier(KernelId id) {
  return min_tier(kernel_ceiling(id), cpu_ceiling());
}

SimdTier resolve_tier(KernelId id, SimdTier requested) {
  if (requested == SimdTier::kAuto) return max_tier(id);
  if (requested == SimdTier::kScalar || requested == SimdTier::kBlocked) {
    return requested;
  }
  const SimdTier resolved = min_tier(requested, max_tier(id));
  if (resolved != requested) note_degrade(id, requested, resolved);
  return resolved;
}

std::vector<KernelTierChoice> kernel_tier_report(SimdTier requested) {
  std::vector<KernelTierChoice> report;
  report.reserve(static_cast<std::size_t>(KernelId::kCount));
  for (int k = 0; k < static_cast<int>(KernelId::kCount); ++k) {
    const KernelId id = static_cast<KernelId>(k);
    report.push_back({id, requested, resolve_tier(id, requested)});
  }
  return report;
}

}  // namespace feves
