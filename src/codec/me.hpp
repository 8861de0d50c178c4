// Full-Search Block-Matching motion estimation (the paper's FSBM ME module).
// For every macroblock in the assigned MB-row range, every integer-pel
// candidate in the search area of ONE reference frame is evaluated; the 16
// 4x4 SADs per candidate are aggregated into all 41 partition blocks so one
// pixel pass prices all 7 partition modes simultaneously.
//
// The row-range API is the unit of cross-device distribution: the FEVES
// load balancer hands each device a contiguous range of MB rows (the m_i
// distribution vector of Algorithm 2).
#pragma once

#include "codec/partition.hpp"
#include "codec/sad.hpp"
#include "video/plane.hpp"

#include <vector>

namespace feves {

/// Frame-wide motion field against one reference frame; one MbMotion per
/// macroblock in raster order.
using MotionField = std::vector<MbMotion>;

struct MeParams {
  /// Candidates in [-R, +R] both axes, inclusive: (2R+1) x (2R+1) per MB.
  int search_range = 16;
  /// KernelId::kSadGrid tier. kAvx2 runs the fused kernel (fsbm_mb_avx2);
  /// the other tiers run the per-candidate loop with their grid kernel.
  SimdTier tier = SimdTier::kAuto;
};

/// Runs FSBM over MB rows [row_begin, row_end) of `cur` against `ref`.
/// `ref` must carry a border of at least search_range + 16 pixels.
/// Results are written into `field[mb_y * mb_width + mb_x]` with costs in
/// pure SAD (the paper's distortion metric) and MVs in quarter-pel units
/// (multiples of 4 at this stage).
void run_me_rows(const PlaneU8& cur, const PlaneU8& ref, int mb_width,
                 int row_begin, int row_end, const MeParams& params,
                 MbMotion* field);

}  // namespace feves
