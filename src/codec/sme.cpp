#include "codec/sme.hpp"

#include "common/check.hpp"
#include "codec/sad.hpp"

namespace feves {

void run_sme_rows(const PlaneU8& cur, const SubPelFrame& sf, int mb_width,
                  int row_begin, int row_end, const SmeParams& params,
                  MbMotion* field) {
  FEVES_CHECK(cur.width() == sf.width() && cur.height() == sf.height());
  FEVES_CHECK(mb_width * kMbSize == cur.width());
  FEVES_CHECK(row_begin >= 0 && row_begin <= row_end);
  FEVES_CHECK(row_end * kMbSize <= cur.height());
  const int r = params.refine_range;
  FEVES_CHECK(r >= 0 && r <= 3);

  // Phase-plane origins: quarter-pel position (qy, qx) from integer pixel
  // (y0, x0) is sample (y0 + (qy >> 2), x0 + (qx >> 2)) of phase
  // (qy & 3, qx & 3) — arithmetic shifts floor negative offsets. All phases
  // share one geometry.
  const std::ptrdiff_t stride = sf.phases[0].stride();
  const u8* origin[kSubPel * kSubPel];
  for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
    FEVES_CHECK(sf.phases[ph].stride() == stride);
    origin[ph] = sf.phases[ph].row(0);
  }

  const SimdTier tier = resolve_tier(KernelId::kSadBlock, params.tier);
  SadProbeFn probe[kNumPartitionModes];
  for (int m = 0; m < kNumPartitionModes; ++m) {
    probe[m] = sad_probe_kernel(tier, kPartitionGeometry[m].block_w,
                                kPartitionGeometry[m].block_h);
  }

  constexpr int kMaxProbes = 7 * 7;  // refine_range <= 3
  const int side = 2 * r + 1;
  const int count = side * side;
  const u8* cands[kMaxProbes];
  u32 sads[kMaxProbes];
  for (int mb_y = row_begin; mb_y < row_end; ++mb_y) {
    for (int mb_x = 0; mb_x < mb_width; ++mb_x) {
      MbMotion& mb = field[mb_y * mb_width + mb_x];
      for (int mode_i = 0; mode_i < kNumPartitionModes; ++mode_i) {
        const auto mode = static_cast<PartitionMode>(mode_i);
        const PartitionGeometry& g = geometry(mode);
        for (int b = 0; b < g.num_blocks(); ++b) {
          int bx0, by0;
          block_origin(mode, b, &bx0, &by0);
          const int px0 = mb_x * kMbSize + bx0;
          const int py0 = mb_y * kMbSize + by0;

          // Probes in raster (dqy, dqx) order over [-r, r]^2.
          MotionEntry& entry = mb.entry(mode, b);
          const Mv base = entry.mv;
          int n = 0;
          for (int dqy = -r; dqy <= r; ++dqy) {
            const int qy = base.y + dqy;
            const std::ptrdiff_t row = (py0 + (qy >> 2)) * stride + px0;
            const u8* const* phase_row = origin + (qy & 3) * kSubPel;
            for (int dqx = -r; dqx <= r; ++dqx) {
              const int qx = base.x + dqx;
              cands[n++] = phase_row[qx & 3] + row + (qx >> 2);
            }
          }
          probe[mode_i](cur.row(py0) + px0, cur.stride(), cands, stride,
                        count, sads);

          // First minimum wins ties, as in the per-probe loop.
          int best = 0;
          for (int i = 1; i < count; ++i) {
            if (sads[i] < sads[best]) best = i;
          }
          entry.mv = Mv{static_cast<i16>(base.x + best % side - r),
                        static_cast<i16>(base.y + best / side - r)};
          entry.cost = sads[best];
        }
      }
    }
  }
}

}  // namespace feves
