#include "codec/me.hpp"

#include "common/check.hpp"

namespace feves {

void run_me_rows(const PlaneU8& cur, const PlaneU8& ref, int mb_width,
                 int row_begin, int row_end, const MeParams& params,
                 MbMotion* field) {
  FEVES_CHECK(cur.width() == ref.width() && cur.height() == ref.height());
  FEVES_CHECK(mb_width * kMbSize == cur.width());
  FEVES_CHECK(row_begin >= 0 && row_begin <= row_end);
  FEVES_CHECK(row_end * kMbSize <= cur.height());
  const int r = params.search_range;
  FEVES_CHECK_MSG(ref.border() >= r + kMbSize,
                  "reference border " << ref.border()
                                      << " too small for search range " << r);

  SimdTier tier;
  const SadGrid16Fn kernel = sad_grid_16x16_kernel(params.tier, &tier);
  // The AVX2 tier is the fused kernel wherever its range domain allows.
  const bool fused = tier == SimdTier::kAvx2 && r >= kFusedFsbmMinRange &&
                     r <= kFusedFsbmMaxRange;
  const std::ptrdiff_t cs = cur.stride();
  const std::ptrdiff_t rs = ref.stride();

  for (int mb_y = row_begin; mb_y < row_end; ++mb_y) {
    for (int mb_x = 0; mb_x < mb_width; ++mb_x) {
      const u8* cur_mb = cur.row(mb_y * kMbSize) + mb_x * kMbSize;
      const u8* ref_mb = ref.row(mb_y * kMbSize) + mb_x * kMbSize;
      MbMotion* out = &field[mb_y * mb_width + mb_x];
      if (fused) {
        fsbm_mb_avx2(cur_mb, cs, ref_mb, rs, r, out);
      } else {
        fsbm_mb(kernel, cur_mb, cs, ref_mb, rs, r, out);
      }
    }
  }
}

}  // namespace feves
