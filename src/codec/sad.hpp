// Sum-of-absolute-differences kernels — the inner loop of full-search
// block-matching ME. Mirrors the paper's multi-tier Parallel Modules library
// (Sec. III-B1: per-microarchitecture SSE4.2/AVX/AVX2 variants) with a
// runtime-dispatched kernel table: a scalar reference tier (the oracle) and
// explicit SSE2/AVX2 tiers selected through the kernel registry's CPUID
// resolution (codec/kernels.hpp). kBlocked requests run the scalar oracle.
// Tests pin the tiers against each other.
#pragma once

#include "common/types.hpp"
#include "codec/kernels.hpp"
#include "codec/partition.hpp"

#include <cstddef>

namespace feves {

/// Computes the 16 SADs of the 4x4 sub-blocks of one 16x16 macroblock
/// against a candidate at the same geometry. `out[by*4+bx]` is the SAD of
/// sub-block (bx,by). Strides are in elements.
using SadGrid16Fn = void (*)(const u8* cur, std::ptrdiff_t cur_stride,
                             const u8* ref, std::ptrdiff_t ref_stride,
                             u16 out[16]);

/// Returns the grid kernel for `tier` (kAuto picks the fastest available).
/// When `resolved` is non-null it receives what the request resolved to —
/// the tier a caller actually got, never silently degraded (satellite of
/// the registry: `resolve_tier` also logs explicit-request degrades once).
SadGrid16Fn sad_grid_16x16_kernel(SimdTier tier,
                                  SimdTier* resolved = nullptr);

/// Generic rectangular SAD, tier-dispatched like the grid kernel. Handles
/// every width (16/8-wide vector chunks plus a scalar tail).
using SadBlockFn = u32 (*)(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                           std::ptrdiff_t stride_b, int width, int height);
SadBlockFn sad_block_kernel(SimdTier tier, SimdTier* resolved = nullptr);

/// Reference scalar rectangular SAD (the oracle the tests pin against).
u32 sad_block_scalar(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                     std::ptrdiff_t stride_b, int width, int height);

/// SME probe batch: the SADs of one current block against `count`
/// candidate blocks `cands[i]` (all with stride `ref_stride`) into
/// `sads[i]`. The block shape is fixed per kernel.
using SadProbeFn = void (*)(const u8* cur, std::ptrdiff_t cur_stride,
                            const u8* const* cands, std::ptrdiff_t ref_stride,
                            int count, u32* sads);

/// Probe kernel for one partition block shape (`width` x `height` from
/// kPartitionGeometry), resolved as KernelId::kSadBlock. The scalar tier
/// runs sad_block_scalar per candidate; the vector tiers are compiled per
/// shape and hold the current block in registers across the batch. Every
/// tier reads exactly the width x height bytes of each candidate.
SadProbeFn sad_probe_kernel(SimdTier tier, int width, int height,
                            SimdTier* resolved = nullptr);

/// Aggregates the 16 4x4 SADs of a macroblock into the SAD of every
/// partition block of every mode — 41 values laid out per kModeOffset.
/// This is the classic FSBM trick: one pass over the pixels serves all 7
/// partition modes (paper Sec. II).
void aggregate_sad_grid(const u16 grid[16], u32 out[kEntriesPerMb]);

/// Per-candidate full search of one macroblock over [-range, range]^2:
/// `kernel` prices each candidate, aggregate_sad_grid spreads it over the 41
/// partitions, and each partition keeps its first minimum in raster
/// (dy, dx) order. `ref` points at candidate (0, 0). This is the scalar and
/// SSE2 path of run_me_rows and the oracle of the fused kernel below.
void fsbm_mb(SadGrid16Fn kernel, const u8* cur, std::ptrdiff_t cur_stride,
             const u8* ref, std::ptrdiff_t ref_stride, int range,
             MbMotion* out);

/// Search ranges the fused kernel covers. Below the minimum a chunk of 8
/// candidate lanes would overhang the (2*range+1)-wide row; above the
/// maximum the raster candidate index no longer fits a u16 lane.
inline constexpr int kFusedFsbmMinRange = 4;
inline constexpr int kFusedFsbmMaxRange = 127;

/// Fused full search of one macroblock, the kAvx2 tier of kSadGrid: SAD
/// grid, 41-partition aggregation and argmin in vector registers, 16 (or 8)
/// horizontally adjacent candidates per step (DESIGN.md §6h). Bit-identical
/// to fsbm_mb, and reads only the columns [-range, 15 + range] and rows
/// [-range, 15 + range] around `ref` that fsbm_mb reads. Requires AVX2 and
/// kFusedFsbmMinRange <= range <= kFusedFsbmMaxRange.
void fsbm_mb_avx2(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                  std::ptrdiff_t ref_stride, int range, MbMotion* out);

}  // namespace feves
