#include "codec/intra.hpp"

#include "codec/sad.hpp"
#include "common/check.hpp"

#include <algorithm>
#include <limits>

namespace feves {

namespace {

inline u8 clip255(int v) { return static_cast<u8>(std::clamp(v, 0, 255)); }

}  // namespace

bool intra_mode_available(IntraMode mode, IntraNeighbours n) {
  switch (mode) {
    case IntraMode::kVertical:
      return n.above;
    case IntraMode::kHorizontal:
      return n.left;
    case IntraMode::kDc:
      return true;
    case IntraMode::kPlane:
      return n.above && n.left;
  }
  return false;
}

void intra_predict_16x16(const PlaneU8& recon, int mb_x, int mb_y,
                         IntraMode mode, u8 pred[256]) {
  const int x0 = mb_x * kMbSize;
  const int y0 = mb_y * kMbSize;
  const IntraNeighbours n = intra_neighbours(mb_x, mb_y);
  FEVES_CHECK_MSG(intra_mode_available(mode, n),
                  "intra mode " << static_cast<int>(mode)
                                << " without its neighbours");

  switch (mode) {
    case IntraMode::kVertical: {
      const u8* above = recon.row(y0 - 1) + x0;
      for (int y = 0; y < kMbSize; ++y) {
        for (int x = 0; x < kMbSize; ++x) pred[y * kMbSize + x] = above[x];
      }
      break;
    }
    case IntraMode::kHorizontal: {
      for (int y = 0; y < kMbSize; ++y) {
        const u8 leftpix = recon.row(y0 + y)[x0 - 1];
        for (int x = 0; x < kMbSize; ++x) pred[y * kMbSize + x] = leftpix;
      }
      break;
    }
    case IntraMode::kDc: {
      int sum = 0, count = 0;
      if (n.above) {
        const u8* above = recon.row(y0 - 1) + x0;
        for (int x = 0; x < kMbSize; ++x) sum += above[x];
        count += kMbSize;
      }
      if (n.left) {
        for (int y = 0; y < kMbSize; ++y) sum += recon.row(y0 + y)[x0 - 1];
        count += kMbSize;
      }
      const u8 dc = count > 0
                        ? static_cast<u8>((sum + count / 2) / count)
                        : u8{128};
      for (int i = 0; i < kMbSize * kMbSize; ++i) pred[i] = dc;
      break;
    }
    case IntraMode::kPlane: {
      // H.264 8.3.3.4 with the above-right samples clamped into the frame
      // (the standard requires them available; edge MBs fall back to the
      // rightmost reconstructed sample via the plane border extension —
      // interior reconstruction rows always extend to x0+15).
      const u8* above = recon.row(y0 - 1);
      int h = 0, v = 0;
      for (int i = 1; i <= 8; ++i) {
        h += i * (above[x0 + 7 + i] - above[x0 + 7 - i]);
        v += i * (recon.row(y0 + 7 + i)[x0 - 1] - recon.row(y0 + 7 - i)[x0 - 1]);
      }
      const int a = 16 * (above[x0 + 15] + recon.row(y0 + 15)[x0 - 1]);
      const int b = (5 * h + 32) >> 6;
      const int c = (5 * v + 32) >> 6;
      for (int y = 0; y < kMbSize; ++y) {
        for (int x = 0; x < kMbSize; ++x) {
          pred[y * kMbSize + x] =
              clip255((a + b * (x - 7) + c * (y - 7) + 16) >> 5);
        }
      }
      break;
    }
  }
}

IntraMode select_intra_mode(const PlaneU8& source, const PlaneU8& recon,
                            int mb_x, int mb_y, SimdTier tier) {
  const SadBlockFn sad = sad_block_kernel(tier);
  const IntraNeighbours n = intra_neighbours(mb_x, mb_y);
  const u8* src = source.row(mb_y * kMbSize) + mb_x * kMbSize;
  IntraMode best = IntraMode::kDc;
  u32 best_cost = std::numeric_limits<u32>::max();
  u8 pred[256];
  for (int m = 0; m < kNumIntraModes; ++m) {
    const auto mode = static_cast<IntraMode>(m);
    if (!intra_mode_available(mode, n)) continue;
    intra_predict_16x16(recon, mb_x, mb_y, mode, pred);
    const u32 cost =
        sad(src, source.stride(), pred, kMbSize, kMbSize, kMbSize);
    if (cost < best_cost) {
      best_cost = cost;
      best = mode;
    }
  }
  return best;
}

void intra_predict_chroma_dc(const PlaneU8& recon_c, int mb_x, int mb_y,
                             u8 pred[64]) {
  constexpr int kC = kMbSize / 2;
  const int x0 = mb_x * kC;
  const int y0 = mb_y * kC;
  const IntraNeighbours n = intra_neighbours(mb_x, mb_y);
  int sum = 0, count = 0;
  if (n.above) {
    const u8* above = recon_c.row(y0 - 1) + x0;
    for (int x = 0; x < kC; ++x) sum += above[x];
    count += kC;
  }
  if (n.left) {
    for (int y = 0; y < kC; ++y) sum += recon_c.row(y0 + y)[x0 - 1];
    count += kC;
  }
  const u8 dc =
      count > 0 ? static_cast<u8>((sum + count / 2) / count) : u8{128};
  for (int i = 0; i < kC * kC; ++i) pred[i] = dc;
}

}  // namespace feves
