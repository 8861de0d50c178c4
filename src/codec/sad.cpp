#include "codec/sad.hpp"

#include "common/check.hpp"

#include <array>

namespace feves {

namespace {

inline int abs_diff(u8 a, u8 b) {
  return a > b ? a - b : b - a;
}

/// Reference tier: literal triple loop per 4x4 sub-block.
void sad_grid_scalar(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                     std::ptrdiff_t ref_stride, u16 out[16]) {
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      u32 acc = 0;
      for (int y = 0; y < 4; ++y) {
        const u8* c = cur + (by * 4 + y) * cur_stride + bx * 4;
        const u8* r = ref + (by * 4 + y) * ref_stride + bx * 4;
        for (int x = 0; x < 4; ++x) acc += static_cast<u32>(abs_diff(c[x], r[x]));
      }
      out[by * 4 + bx] = static_cast<u16>(acc);
    }
  }
}

/// Scalar probe batch: the generic oracle once per candidate.
template <int W, int H>
void probe_scalar(const u8* cur, std::ptrdiff_t cur_stride,
                  const u8* const* cands, std::ptrdiff_t ref_stride,
                  int count, u32* sads) {
  for (int i = 0; i < count; ++i) {
    sads[i] = sad_block_scalar(cur, cur_stride, cands[i], ref_stride, W, H);
  }
}

/// Probe batches per partition shape, in kPartitionGeometry order.
using ProbeTable = std::array<SadProbeFn, kNumPartitionModes>;

constexpr ProbeTable kScalarProbes = {
    &probe_scalar<16, 16>, &probe_scalar<16, 8>, &probe_scalar<8, 16>,
    &probe_scalar<8, 8>,   &probe_scalar<8, 4>,  &probe_scalar<4, 8>,
    &probe_scalar<4, 4>};

}  // namespace

// Implemented in sad_simd.cpp (SSE2) and kernels_avx2.cpp (AVX2); both TUs
// provide forwarding stubs on targets where the ISA cannot be compiled, so
// these symbols always link — the registry's runtime resolution guarantees
// a stub is never the selected tier.
void sad_grid_simd(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]);
u32 sad_block_simd(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height);
void sad_grid_avx2(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]);
u32 sad_block_avx2(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height);
const std::array<SadProbeFn, kNumPartitionModes>& sad_probes_sse2();

SadGrid16Fn sad_grid_16x16_kernel(SimdTier tier, SimdTier* resolved) {
  const SimdTier got = resolve_tier(KernelId::kSadGrid, tier);
  if (resolved != nullptr) *resolved = got;
  switch (got) {
    case SimdTier::kScalar:
    case SimdTier::kBlocked:  // no blocked grid: it ran slower than scalar
      return &sad_grid_scalar;
    case SimdTier::kSse2:
      return &sad_grid_simd;
    case SimdTier::kAvx2:
      return &sad_grid_avx2;
    case SimdTier::kAuto:
      break;  // resolve_tier never returns kAuto
  }
  return &sad_grid_scalar;
}

u32 sad_block_scalar(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                     std::ptrdiff_t stride_b, int width, int height) {
  u32 acc = 0;
  for (int y = 0; y < height; ++y) {
    const u8* ra = a + y * stride_a;
    const u8* rb = b + y * stride_b;
    u32 row_acc = 0;
    for (int x = 0; x < width; ++x) {
      row_acc += static_cast<u32>(abs_diff(ra[x], rb[x]));
    }
    acc += row_acc;
  }
  return acc;
}

SadBlockFn sad_block_kernel(SimdTier tier, SimdTier* resolved) {
  const SimdTier got = resolve_tier(KernelId::kSadBlock, tier);
  if (resolved != nullptr) *resolved = got;
  switch (got) {
    case SimdTier::kScalar:
    case SimdTier::kBlocked:  // no distinct blocked shape for arbitrary rects
      return &sad_block_scalar;
    case SimdTier::kSse2:
      return &sad_block_simd;
    case SimdTier::kAvx2:
      return &sad_block_avx2;
    case SimdTier::kAuto:
      break;
  }
  return &sad_block_scalar;
}

SadProbeFn sad_probe_kernel(SimdTier tier, int width, int height,
                            SimdTier* resolved) {
  const SimdTier got = resolve_tier(KernelId::kSadBlock, tier);
  if (resolved != nullptr) *resolved = got;
  const bool vec = got == SimdTier::kSse2 || got == SimdTier::kAvx2;
  const ProbeTable& table = vec ? sad_probes_sse2() : kScalarProbes;
  int m = 0;
  while (m < kNumPartitionModes && (kPartitionGeometry[m].block_w != width ||
                                    kPartitionGeometry[m].block_h != height)) {
    ++m;
  }
  FEVES_CHECK_MSG(m < kNumPartitionModes,
                  "no probe kernel for a " << width << "x" << height
                                           << " block");
  return table[m];
}

void aggregate_sad_grid(const u16 grid[16], u32 out[kEntriesPerMb]) {
  // 4x4 blocks (mode 6): the grid verbatim, raster order.
  constexpr int off4x4 = kModeOffset[static_cast<int>(PartitionMode::k4x4)];
  for (int i = 0; i < 16; ++i) out[off4x4 + i] = grid[i];

  // 8x4 blocks (mode 4): two horizontally adjacent 4x4s; 2 cols x 4 rows.
  constexpr int off8x4 = kModeOffset[static_cast<int>(PartitionMode::k8x4)];
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      out[off8x4 + by * 2 + bx] =
          static_cast<u32>(grid[by * 4 + bx * 2]) + grid[by * 4 + bx * 2 + 1];
    }
  }

  // 4x8 blocks (mode 5): two vertically adjacent 4x4s; 4 cols x 2 rows.
  constexpr int off4x8 = kModeOffset[static_cast<int>(PartitionMode::k4x8)];
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      out[off4x8 + by * 4 + bx] =
          static_cast<u32>(grid[(by * 2) * 4 + bx]) + grid[(by * 2 + 1) * 4 + bx];
    }
  }

  // 8x8 blocks (mode 3): sum of a 2x2 patch of 4x4s; 2 cols x 2 rows.
  constexpr int off8x8 = kModeOffset[static_cast<int>(PartitionMode::k8x8)];
  u32 q[4];
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      q[by * 2 + bx] = out[off8x4 + (by * 2) * 2 + bx] +
                       out[off8x4 + (by * 2 + 1) * 2 + bx];
      out[off8x8 + by * 2 + bx] = q[by * 2 + bx];
    }
  }

  // 16x8 (mode 1): left+right 8x8 of each half; 1 col x 2 rows.
  constexpr int off16x8 = kModeOffset[static_cast<int>(PartitionMode::k16x8)];
  out[off16x8 + 0] = q[0] + q[1];
  out[off16x8 + 1] = q[2] + q[3];

  // 8x16 (mode 2): top+bottom 8x8 of each column; 2 cols x 1 row.
  constexpr int off8x16 = kModeOffset[static_cast<int>(PartitionMode::k8x16)];
  out[off8x16 + 0] = q[0] + q[2];
  out[off8x16 + 1] = q[1] + q[3];

  // 16x16 (mode 0): everything.
  out[kModeOffset[static_cast<int>(PartitionMode::k16x16)]] =
      out[off16x8 + 0] + out[off16x8 + 1];
}


void fsbm_mb(SadGrid16Fn kernel, const u8* cur, std::ptrdiff_t cur_stride,
             const u8* ref, std::ptrdiff_t ref_stride, int range,
             MbMotion* out) {
  const int r = range;
  u32 best_cost[kEntriesPerMb];
  Mv best_mv[kEntriesPerMb];
  for (int k = 0; k < kEntriesPerMb; ++k) best_cost[k] = kInvalidCost;

  u16 grid[16];
  u32 agg[kEntriesPerMb];
  // Deterministic raster candidate order: ties keep the first (lowest dy,
  // then dx) candidate, so the result is independent of how rows were
  // distributed across devices. The range is inclusive on both ends —
  // (2R+1)^2 candidates — so the search area is symmetric and matches the
  // microbench's items accounting.
  for (int dy = -r; dy <= r; ++dy) {
    const u8* ref_row = ref + dy * ref_stride;
    for (int dx = -r; dx <= r; ++dx) {
      kernel(cur, cur_stride, ref_row + dx, ref_stride, grid);
      aggregate_sad_grid(grid, agg);
      const Mv mv{static_cast<i16>(dx * kSubPel),
                  static_cast<i16>(dy * kSubPel)};
      for (int k = 0; k < kEntriesPerMb; ++k) {
        if (agg[k] < best_cost[k]) {
          best_cost[k] = agg[k];
          best_mv[k] = mv;
        }
      }
    }
  }

  for (int k = 0; k < kEntriesPerMb; ++k) {
    out->entries[k].cost = best_cost[k];
    out->entries[k].mv = best_mv[k];
  }
}

}  // namespace feves
