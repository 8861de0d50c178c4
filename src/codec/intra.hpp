// Intra_16x16 luma prediction (H.264 8.3.3): Vertical, Horizontal, DC and
// Plane modes predicted from the *reconstructed* neighbours, plus the DC
// chroma predictor. The I frame bootstraps the first reference of the
// inter loop (paper Fig 1's intra path); mode selection is minimum-SAD
// against the source macroblock.
#pragma once

#include "codec/kernels.hpp"
#include "common/types.hpp"
#include "video/plane.hpp"

namespace feves {

enum class IntraMode : u8 {
  kVertical = 0,   ///< copy the row above
  kHorizontal = 1, ///< copy the column to the left
  kDc = 2,         ///< mean of available neighbours (128 when none)
  kPlane = 3,      ///< first-order plane fit through the edge samples
};

inline constexpr int kNumIntraModes = 4;

/// Neighbour availability of a macroblock in decoding order.
struct IntraNeighbours {
  bool above = false;
  bool left = false;
};

inline IntraNeighbours intra_neighbours(int mb_x, int mb_y) {
  return {mb_y > 0, mb_x > 0};
}

/// True if `mode` is legal given the available neighbours (DC always is).
bool intra_mode_available(IntraMode mode, IntraNeighbours n);

/// Fills `pred` (16x16 row-major) from the reconstructed plane. `mode`
/// must be available. Reads only rows/columns already reconstructed.
void intra_predict_16x16(const PlaneU8& recon, int mb_x, int mb_y,
                         IntraMode mode, u8 pred[256]);

/// Picks the available mode with minimum SAD against the source MB, priced
/// by the `tier` kSadBlock kernel.
IntraMode select_intra_mode(const PlaneU8& source, const PlaneU8& recon,
                            int mb_x, int mb_y,
                            SimdTier tier = SimdTier::kAuto);

/// 8x8 chroma DC prediction from reconstructed neighbours (mean of the
/// available edges; 128 with none) — the one chroma intra mode used here.
void intra_predict_chroma_dc(const PlaneU8& recon_c, int mb_x, int mb_y,
                             u8 pred[64]);

}  // namespace feves
