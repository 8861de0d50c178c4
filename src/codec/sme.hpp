// Sub-pixel motion estimation (the paper's SME module). Refines the
// integer-pel MV of every partition block (all 41 per MB) to quarter-pel
// precision by probing the SF phase planes around the ME result, using the
// MVs from ME as the initial search point (the inter-module data dependency
// the paper's τ1 synchronization protects).
#pragma once

#include "codec/me.hpp"
#include "video/frame.hpp"

namespace feves {

struct SmeParams {
  /// Quarter-pel probe radius around the ME vector (candidates are all
  /// (dqx,dqy) in [-r, r]^2, so r=2 covers the half-pel ring plus the
  /// nearest quarter-pel ring).
  int refine_range = 2;
  /// KernelId::kSadBlock tier of the probes (sad_probe_kernel).
  SimdTier tier = SimdTier::kAuto;
};

/// Refines MB rows [row_begin, row_end) of `field` in place. `sf` must be
/// fully assembled with extended borders (collaborative mode gathers the
/// interpolated pieces first — the SF(RF)→SME transfers of Fig 4).
void run_sme_rows(const PlaneU8& cur, const SubPelFrame& sf, int mb_width,
                  int row_begin, int row_end, const SmeParams& params,
                  MbMotion* field);

}  // namespace feves
