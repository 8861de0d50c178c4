// In-loop deblocking filter (the paper's DBL module, the tail of R*).
// Standard H.264 luma edge filtering: boundary strength from intra/coded/
// motion discontinuity, alpha/beta thresholds indexed by QP, tc0-clipped
// normal filter for bS in {1,2,3} and the strong filter for bS 4.
//
// The paper points out DBL's cross-MB data dependencies are why the whole
// R* block is mapped to a single device (Sec. III-B); accordingly this API
// is whole-frame, executed wherever the Dijkstra selector placed R*. Within
// that device, run_deblock_picture spreads the frame over the device's
// cores as an MB wavefront that reproduces raster order exactly.
#pragma once

#include "codec/kernels.hpp"
#include "codec/mv.hpp"
#include "video/frame.hpp"
#include "video/plane.hpp"

#include <functional>

namespace feves {

class ThreadPool;

/// Per-4x4-block side information the boundary-strength rule needs.
struct Block4x4Info {
  Mv mv;
  u8 ref_idx = 0;
  bool nonzero = false;  ///< block has quantized coefficients
  bool intra = false;    ///< block belongs to an intra-coded MB
};

struct DeblockParams {
  int qp = 28;
  int alpha_offset = 0;  ///< slice_alpha_c0_offset (VCEG default 0)
  int beta_offset = 0;   ///< slice_beta_offset
  /// Kernel tier (registry id kDeblock, ceiling kSse2). Horizontal MB edges
  /// vectorize 16 columns wide; vertical edges are scalar in every tier.
  SimdTier tier = SimdTier::kAuto;
};

/// Boundary strength of the edge between 4x4 blocks `a` (left/above) and
/// `b` (right/below). Exposed for unit testing.
int boundary_strength(const Block4x4Info& a, const Block4x4Info& b);

/// Filters the full luma plane in MB raster order (vertical edges of each
/// MB first, then horizontal — H.264 8.7). `blocks` holds one Block4x4Info
/// per 4x4 block, raster order over the (4*mb_width) x (4*mb_height) grid.
void run_deblock_frame(PlaneU8& luma, int mb_width, int mb_height,
                       const Block4x4Info* blocks, const DeblockParams& p);

/// Chroma variant (H.264 8.7.2.4): only p1/p0/q0/q1 participate, tc is
/// tc0 + 1, and the strong (bS 4) filter is the 2-tap blend. `p.qp` must be
/// the CHROMA quantization parameter. Boundary strengths come from the
/// co-located luma 4x4 blocks; edges are filtered every 4 chroma samples.
void run_deblock_chroma(PlaneU8& chroma, int mb_width, int mb_height,
                        const Block4x4Info* blocks, const DeblockParams& p);

/// Filters luma (`luma` params) and both chroma planes (`chroma` params,
/// whose qp is the chroma QP) of `pic`: the same pixels as run_deblock_frame
/// plus run_deblock_chroma on U and V. With a pool, MB rows run
/// concurrently as a lag-2 wavefront — MB (x, y) starts once MB (x+1, y-1)
/// is done — which leaves exactly raster order's pixel state; without one,
/// MBs run in raster order on the caller. A wavefront waiter spins briefly,
/// then parks until the row above wakes it; it never yields its core.
void run_deblock_picture(Frame420& pic, int mb_width, int mb_height,
                         const Block4x4Info* blocks, const DeblockParams& luma,
                         const DeblockParams& chroma,
                         ThreadPool* pool = nullptr);

namespace detail {

/// Test seam of run_deblock_picture's wavefront (the pool path): lets a
/// test stall a row or fail it, and observe a waiter giving up its spin.
struct WavefrontSeam {
  /// Runs on the row's thread before MB (mb_x, mb_y) is filtered.
  std::function<void(int mb_x, int mb_y)> before_mb;
  /// Runs on row mb_y's thread when it stops spinning and parks.
  std::function<void(int mb_y)> on_park;
};

/// Installs `seam` for every later wavefront (nullptr removes it) and
/// returns the one it replaces. The seam must outlive its installation.
const WavefrontSeam* set_wavefront_seam(const WavefrontSeam* seam);

}  // namespace detail

}  // namespace feves
