// Kernel-registry oracle battery: every vector tier of every kernel family
// is pinned bit-for-bit against its scalar oracle on randomized inputs, and
// the registry's resolution rules (per-kernel ceilings, CPUID gating, kAuto
// selection) are checked explicitly. Every tier enum value — including
// requests the machine can't honour, which must degrade, not diverge — goes
// through each kernel, so a wrong dispatch entry can't hide behind a
// "supported tiers only" filter.
//
// run_sanitized.sh runs this suite under ASan/UBSan, once as-is and once
// with FEVES_CPU_CAP=sse2, so the AVX2 paths' loads and the degraded
// dispatch ladder both get sanitizer coverage. The fused-ME and SME-probe
// footprint cases run their kernels on heap buffers of exactly the bytes
// the scalar oracle reads, so ASan flags any load past them.

#include "codec/deblock.hpp"
#include "codec/interpolate.hpp"
#include "codec/kernels.hpp"
#include "codec/mc.hpp"
#include "codec/me.hpp"
#include "codec/sad.hpp"
#include "codec/sme.hpp"
#include "codec/transform.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace feves {
namespace {

/// All tier enum values. Every one must produce bit-exact results for every
/// kernel — unavailable tiers resolve down the ladder, never to different
/// arithmetic.
const SimdTier kAllTiers[] = {SimdTier::kScalar, SimdTier::kBlocked,
                              SimdTier::kSse2, SimdTier::kAvx2,
                              SimdTier::kAuto};

PlaneU8 random_plane(int w, int h, int border, u64 seed) {
  PlaneU8 p(w, h, border);
  Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      p.at(y, x) = static_cast<u8>(rng.uniform_int(0, 255));
    }
  }
  p.extend_borders();
  return p;
}

SimdTier lower(SimdTier a, SimdTier b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

int rand_in(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

TEST(SimdTiers, SadGridMatchesScalarEveryTier) {
  const auto cur = random_plane(48, 48, 8, 101);
  const auto ref = random_plane(48, 48, 8, 202);
  SimdTier scalar_resolved;
  const SadGrid16Fn oracle =
      sad_grid_16x16_kernel(SimdTier::kScalar, &scalar_resolved);
  ASSERT_EQ(scalar_resolved, SimdTier::kScalar);
  Rng rng(7);
  for (SimdTier t : kAllTiers) {
    const SadGrid16Fn fn = sad_grid_16x16_kernel(t);
    for (int trial = 0; trial < 32; ++trial) {
      // Misaligned, border-reaching candidate positions included.
      const int cx = rand_in(rng, 0, 32), cy = rand_in(rng, 0, 32);
      const int rx = rand_in(rng, -8, 40), ry = rand_in(rng, -8, 40);
      u16 want[16], got[16];
      oracle(&cur.at(cy, cx), cur.stride(), &ref.at(ry, rx), ref.stride(),
             want);
      fn(&cur.at(cy, cx), cur.stride(), &ref.at(ry, rx), ref.stride(), got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof want))
          << "tier " << tier_name(t) << " trial " << trial;
    }
  }
}

TEST(SimdTiers, SadBlockEveryWidthEveryTier) {
  const auto a = random_plane(64, 32, 4, 303);
  const auto b = random_plane(64, 32, 4, 404);
  Rng rng(9);
  for (SimdTier t : kAllTiers) {
    const SadBlockFn fn = sad_block_kernel(t);
    // Every width 1..16 — the SSE2/AVX2 paths chunk by 16 and 8 with a
    // scalar tail, so odd widths (3, 5, 7, ...) probe the tail handling.
    for (int w = 1; w <= 16; ++w) {
      for (int h : {1, 4, 7, 8, 16}) {
        const int ax = rand_in(rng, 0, 40), ay = rand_in(rng, 0, 12);
        const int bx = rand_in(rng, 0, 40), by = rand_in(rng, 0, 12);
        const u32 want = sad_block_scalar(&a.at(ay, ax), a.stride(),
                                          &b.at(by, bx), b.stride(), w, h);
        const u32 got = fn(&a.at(ay, ax), a.stride(), &b.at(by, bx),
                           b.stride(), w, h);
        ASSERT_EQ(want, got)
            << "tier " << tier_name(t) << " " << w << "x" << h;
      }
    }
  }
}

TEST(SimdTiers, InterpolationAllPhasesBitExact) {
  // Width a multiple of 16 (MB-aligned frames only, per EncoderConfig), tall
  // enough for two MB rows so the row-pass ring buffer wraps.
  const int w = 48, h = 32, border = 16;
  const auto ref = random_plane(w, h, border, 505);
  SubPelFrame want(w, h, border);
  run_interpolation_rows(ref, 0, h / 16, want, SimdTier::kScalar);
  for (SimdTier t : kAllTiers) {
    if (t == SimdTier::kScalar) continue;
    SubPelFrame got(w, h, border);
    run_interpolation_rows(ref, 0, h / 16, got, t);
    for (int dy = 0; dy < kSubPel; ++dy) {
      for (int dx = 0; dx < kSubPel; ++dx) {
        const PlaneU8& pw = want.phase(dy, dx);
        const PlaneU8& pg = got.phase(dy, dx);
        for (int y = 0; y < h; ++y) {
          ASSERT_EQ(0, std::memcmp(pw.row(y), pg.row(y), w))
              << "tier " << tier_name(t) << " phase (" << dy << "," << dx
              << ") row " << y;
        }
      }
    }
  }
}

TEST(SimdTiers, ForwardTransformMatchesScalar) {
  Rng rng(606);
  for (SimdTier t : kAllTiers) {
    const Fwd4x4Fn fn = forward_transform_4x4_kernel(t);
    for (int trial = 0; trial < 200; ++trial) {
      i16 res[16], want[16], got[16];
      for (auto& v : res) v = static_cast<i16>(rng.uniform_int(-255, 255));
      forward_transform_4x4(res, want);
      fn(res, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof want))
          << "tier " << tier_name(t) << " trial " << trial;
    }
  }
}

TEST(SimdTiers, InverseTransformMatchesScalarOnDequantizedInputs) {
  // Inputs come through dequantize_4x4 like in the codec — the i32 range the
  // SSE2 pack truncation is proven exact for is the dequantizer's range, not
  // arbitrary i32.
  Rng rng(707);
  for (SimdTier t : kAllTiers) {
    const Inv4x4Fn fn = inverse_transform_4x4_kernel(t);
    for (int qp : {0, 12, 28, 40, 51}) {
      for (int trial = 0; trial < 50; ++trial) {
        i16 res[16], coeffs[16], levels[16];
        i32 deq[16];
        for (auto& v : res) v = static_cast<i16>(rng.uniform_int(-255, 255));
        forward_transform_4x4(res, coeffs);
        quantize_4x4(coeffs, qp, trial % 2 == 0, levels);
        dequantize_4x4(levels, qp, deq);
        i16 want[16], got[16];
        inverse_transform_4x4(deq, want);
        fn(deq, got);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof want))
            << "tier " << tier_name(t) << " qp " << qp << " trial " << trial;
      }
    }
  }
}

std::vector<Block4x4Info> random_block_info(int mb_width, int mb_height,
                                            u64 seed) {
  std::vector<Block4x4Info> blocks(
      static_cast<std::size_t>(mb_width * 4 * mb_height * 4));
  Rng rng(seed);
  for (auto& b : blocks) {
    b.mv = Mv{static_cast<i16>(rng.uniform_int(-32, 32)),
              static_cast<i16>(rng.uniform_int(-32, 32))};
    b.ref_idx = static_cast<u8>(rng.uniform_int(0, 1));
    b.nonzero = rng.uniform01() < 0.4;
    b.intra = rng.uniform01() < 0.15;  // mixes bS 4 strong-filter edges in
  }
  return blocks;
}

TEST(SimdTiers, DeblockLumaMatchesScalar) {
  const int mbw = 6, mbh = 4;
  const auto pristine = random_plane(mbw * 16, mbh * 16, 8, 808);
  const auto blocks = random_block_info(mbw, mbh, 809);
  for (int qp : {10, 28, 45}) {
    DeblockParams p;
    p.qp = qp;
    p.tier = SimdTier::kScalar;
    PlaneU8 want = pristine;
    run_deblock_frame(want, mbw, mbh, blocks.data(), p);
    for (SimdTier t : kAllTiers) {
      if (t == SimdTier::kScalar) continue;
      p.tier = t;
      PlaneU8 got = pristine;
      run_deblock_frame(got, mbw, mbh, blocks.data(), p);
      for (int y = 0; y < got.height(); ++y) {
        ASSERT_EQ(0, std::memcmp(want.row(y), got.row(y), got.width()))
            << "tier " << tier_name(t) << " qp " << qp << " row " << y;
      }
    }
  }
}

TEST(SimdTiers, DeblockChromaMatchesScalar) {
  const int mbw = 6, mbh = 4;
  const auto pristine = random_plane(mbw * 8, mbh * 8, 8, 810);
  const auto blocks = random_block_info(mbw, mbh, 811);
  DeblockParams p;
  p.qp = 30;
  p.tier = SimdTier::kScalar;
  PlaneU8 want = pristine;
  run_deblock_chroma(want, mbw, mbh, blocks.data(), p);
  for (SimdTier t : kAllTiers) {
    if (t == SimdTier::kScalar) continue;
    p.tier = t;
    PlaneU8 got = pristine;
    run_deblock_chroma(got, mbw, mbh, blocks.data(), p);
    for (int y = 0; y < got.height(); ++y) {
      ASSERT_EQ(0, std::memcmp(want.row(y), got.row(y), got.width()))
          << "tier " << tier_name(t) << " row " << y;
    }
  }
}

TEST(SimdTiers, MotionCompensationMatchesScalar) {
  const int w = 64, h = 64;
  const auto ref = random_plane(w, h, 24, 909);
  const auto cur = random_plane(w, h, 24, 910);
  SubPelFrame sf(w, h, 24);
  run_interpolation_rows(ref, 0, h / 16, sf, SimdTier::kScalar);
  extend_subpel_borders(sf);
  const std::vector<const SubPelFrame*> sfs{&sf};

  Rng rng(11);
  // Every partition mode, random quarter-pel MVs (off-grid phases included).
  for (int m = 0; m < kNumPartitionModes; ++m) {
    MbModeChoice choice;
    choice.mode = static_cast<PartitionMode>(m);
    for (int b = 0; b < geometry(choice.mode).num_blocks(); ++b) {
      choice.blocks[b].mv = Mv{static_cast<i16>(rng.uniform_int(-20, 20)),
                               static_cast<i16>(rng.uniform_int(-20, 20))};
      choice.blocks[b].ref_idx = 0;
    }
    u8 want_pred[kMbSize * kMbSize], got_pred[kMbSize * kMbSize];
    i16 want_res[kMbSize * kMbSize], got_res[kMbSize * kMbSize];
    motion_compensate_luma_mb(cur, sfs, choice, 1, 2, want_pred, want_res,
                              SimdTier::kScalar);
    for (SimdTier t : kAllTiers) {
      if (t == SimdTier::kScalar) continue;
      motion_compensate_luma_mb(cur, sfs, choice, 1, 2, got_pred, got_res, t);
      ASSERT_EQ(0, std::memcmp(want_pred, got_pred, sizeof want_pred))
          << "tier " << tier_name(t) << " mode " << m;
      ASSERT_EQ(0, std::memcmp(want_res, got_res, sizeof want_res))
          << "tier " << tier_name(t) << " mode " << m;
    }
  }
}

TEST(SimdTiers, ChromaMotionCompensationMatchesScalar) {
  const int w = 32, h = 32;  // chroma planes of a 64x64 frame
  const auto cur_c = random_plane(w, h, 24, 912);
  const auto ref_c = random_plane(w, h, 24, 913);
  const std::vector<const PlaneU8*> refs_c{&ref_c};
  Rng rng(13);
  for (int m = 0; m < kNumPartitionModes; ++m) {
    MbModeChoice choice;
    choice.mode = static_cast<PartitionMode>(m);
    for (int b = 0; b < geometry(choice.mode).num_blocks(); ++b) {
      choice.blocks[b].mv = Mv{static_cast<i16>(rng.uniform_int(-20, 20)),
                               static_cast<i16>(rng.uniform_int(-20, 20))};
      choice.blocks[b].ref_idx = 0;
    }
    u8 want_pred[64], got_pred[64];
    i16 want_res[64], got_res[64];
    motion_compensate_chroma_mb(cur_c, refs_c, choice, 1, 1, want_pred,
                                want_res, SimdTier::kScalar);
    for (SimdTier t : kAllTiers) {
      if (t == SimdTier::kScalar) continue;
      motion_compensate_chroma_mb(cur_c, refs_c, choice, 1, 1, got_pred,
                                  got_res, t);
      ASSERT_EQ(0, std::memcmp(want_pred, got_pred, sizeof want_pred))
          << "tier " << tier_name(t) << " mode " << m;
      ASSERT_EQ(0, std::memcmp(want_res, got_res, sizeof want_res))
          << "tier " << tier_name(t) << " mode " << m;
    }
  }
}

TEST(SimdTiers, MeSearchRangeIsInclusive) {
  // Plant the current MB's pixels in the reference at exactly (+R, +R): the
  // SAD-0 match sits on the last candidate of the inclusive [-R, +R] range.
  // The historical exclusive loop (dx < R) misses it and settles for a
  // nonzero-cost neighbour.
  const int r = 5;
  const int w = 32, h = 32, border = r + kMbSize;
  auto cur = random_plane(w, h, border, 914);
  auto ref = random_plane(w, h, border, 915);
  for (int y = 0; y < kMbSize; ++y) {
    for (int x = 0; x < kMbSize; ++x) {
      ref.at(y + r, x + r) = cur.at(y, x);
    }
  }
  ref.extend_borders();

  MeParams params;
  params.search_range = r;
  for (SimdTier t : kAllTiers) {
    params.tier = t;
    MotionField field(static_cast<std::size_t>((w / 16) * (h / 16)));
    run_me_rows(cur, ref, w / 16, 0, h / 16, params, field.data());
    const MotionEntry& e = field[0].entry(PartitionMode::k16x16, 0);
    EXPECT_EQ(e.mv.x, 4 * r) << "tier " << tier_name(t);
    EXPECT_EQ(e.mv.y, 4 * r) << "tier " << tier_name(t);
    EXPECT_EQ(e.cost, 0u) << "tier " << tier_name(t);
  }
}

/// Fills the interior with values in [0, levels) and extends the border.
/// Few levels make equal-cost candidates (ties) common; one level makes
/// every candidate tie.
void fill_levels(PlaneU8& p, int levels, u64 seed) {
  Rng rng(seed);
  for (int y = 0; y < p.height(); ++y) {
    for (int x = 0; x < p.width(); ++x) {
      p.at(y, x) = static_cast<u8>(rng.uniform_int(0, levels - 1) *
                                   (255 / std::max(1, levels - 1)));
    }
  }
  p.extend_borders();
}

void expect_same_field(const MotionField& want, const MotionField& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t mb = 0; mb < want.size(); ++mb) {
    for (int k = 0; k < kEntriesPerMb; ++k) {
      const MotionEntry& a = want[mb].entries[k];
      const MotionEntry& b = got[mb].entries[k];
      ASSERT_TRUE(a.cost == b.cost && a.mv == b.mv)
          << what << " mb " << mb << " entry " << k << ": want cost "
          << a.cost << " mv (" << a.mv.x << "," << a.mv.y << "), got cost "
          << b.cost << " mv (" << b.mv.x << "," << b.mv.y << ")";
    }
  }
}

TEST(SimdTiers, FusedMeMatchesScalarEveryRange) {
  // Every range 0..20: below the fused minimum (per-candidate loop), 8-lane
  // chunks (2r+1 < 16), 16-lane chunks with a pulled-back last chunk
  // (2r+1 = 17 and non-multiples of 16). A 3x3-MB frame puts macroblocks on
  // all four frame edges, and the reference border is exactly r + 16, the
  // documented minimum. Level counts 256 (random), 4 and 2 (frequent ties)
  // and 1 (flat: every candidate ties) over several seeds.
  const int w = 48, h = 48;
  for (int r = 0; r <= 20; ++r) {
    for (int levels : {256, 4, 2, 1}) {
      for (u64 seed = 1; seed <= 3; ++seed) {
        PlaneU8 cur(w, h, r + kMbSize), ref(w, h, r + kMbSize);
        fill_levels(cur, levels, seed * 1000 + static_cast<u64>(r));
        fill_levels(ref, levels, seed * 2000 + static_cast<u64>(r));
        MeParams params;
        params.search_range = r;
        params.tier = SimdTier::kScalar;
        MotionField want(static_cast<std::size_t>((w / 16) * (h / 16)));
        run_me_rows(cur, ref, w / 16, 0, h / 16, params, want.data());
        for (SimdTier t : kAllTiers) {
          if (t == SimdTier::kScalar) continue;
          params.tier = t;
          MotionField got(want.size());
          run_me_rows(cur, ref, w / 16, 0, h / 16, params, got.data());
          expect_same_field(want, got,
                            std::string("tier ") + tier_name(t) + " r " +
                                std::to_string(r) + " levels " +
                                std::to_string(levels) + " seed " +
                                std::to_string(seed));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(SimdTiers, FusedMeReadsOnlyTheOracleFootprint) {
  if (!cpu_features().avx2) GTEST_SKIP() << "fused kernel needs AVX2";
  // The reference is a heap buffer of exactly the (2r+16)^2 bytes the
  // per-candidate loop reads, so an over-read shows under ASan.
  Rng rng(77);
  for (int r = kFusedFsbmMinRange; r <= 20; ++r) {
    const int side = 2 * r + kMbSize;
    std::vector<u8> cur(kMbSize * kMbSize), ref(side * side);
    for (auto& v : cur) v = static_cast<u8>(rng.uniform_int(0, 255));
    for (auto& v : ref) v = static_cast<u8>(rng.uniform_int(0, 255));
    const u8* center = ref.data() + r * side + r;
    MbMotion want, got;
    fsbm_mb(sad_grid_16x16_kernel(SimdTier::kScalar), cur.data(), kMbSize,
            center, side, r, &want);
    fsbm_mb_avx2(cur.data(), kMbSize, center, side, r, &got);
    expect_same_field({want}, {got}, "r " + std::to_string(r));
    if (HasFatalFailure()) return;
  }
}

TEST(SimdTiers, SmeProbesMatchScalarEveryShapeAndRange) {
  // All 7 partition shapes x refine ranges 0..3. Base vectors are random
  // quarter-pel offsets, negative ones included, reaching up to 20 pixels
  // into the 24-pixel border (a probe adds at most 3 quarter-pels).
  const int w = 64, h = 48, border = 24;
  const auto cur = random_plane(w, h, border, 920);
  const auto ref = random_plane(w, h, border, 921);
  SubPelFrame sf(w, h, border);
  run_interpolation_rows(ref, 0, h / 16, sf, SimdTier::kScalar);
  extend_subpel_borders(sf);
  const int mbw = w / 16, mbh = h / 16;
  for (u64 seed = 1; seed <= 3; ++seed) {
    MotionField base(static_cast<std::size_t>(mbw * mbh));
    Rng rng(seed);
    for (MbMotion& mb : base) {
      for (MotionEntry& e : mb.entries) {
        e.mv = Mv{static_cast<i16>(rng.uniform_int(-80, 80)),
                  static_cast<i16>(rng.uniform_int(-80, 80))};
      }
    }
    for (int range = 0; range <= 3; ++range) {
      SmeParams params;
      params.refine_range = range;
      params.tier = SimdTier::kScalar;
      MotionField want = base;
      run_sme_rows(cur, sf, mbw, 0, mbh, params, want.data());
      for (SimdTier t : kAllTiers) {
        if (t == SimdTier::kScalar) continue;
        params.tier = t;
        MotionField got = base;
        run_sme_rows(cur, sf, mbw, 0, mbh, params, got.data());
        expect_same_field(want, got,
                          std::string("tier ") + tier_name(t) + " range " +
                              std::to_string(range) + " seed " +
                              std::to_string(seed));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SimdTiers, SmeProbesReadOnlyTheirBlocks) {
  // Each candidate sits in its own heap buffer of exactly width x height
  // bytes (stride = width), so a probe reading past its block shows under
  // ASan; the values must match the scalar oracle.
  Rng rng(78);
  for (SimdTier t : kAllTiers) {
    for (const PartitionGeometry& g : kPartitionGeometry) {
      const std::size_t bytes = static_cast<std::size_t>(g.block_w) *
                                static_cast<std::size_t>(g.block_h);
      std::vector<u8> cur(bytes);
      for (auto& v : cur) v = static_cast<u8>(rng.uniform_int(0, 255));
      std::vector<std::vector<u8>> blocks(9, std::vector<u8>(bytes));
      std::vector<const u8*> cands;
      for (auto& b : blocks) {
        for (auto& v : b) v = static_cast<u8>(rng.uniform_int(0, 255));
        cands.push_back(b.data());
      }
      u32 got[9];
      sad_probe_kernel(t, g.block_w, g.block_h)(cur.data(), g.block_w,
                                                cands.data(), g.block_w, 9,
                                                got);
      for (int i = 0; i < 9; ++i) {
        ASSERT_EQ(got[i],
                  sad_block_scalar(cur.data(), g.block_w, cands[i], g.block_w,
                                   g.block_w, g.block_h))
            << "tier " << tier_name(t) << " " << g.block_w << "x"
            << g.block_h << " probe " << i;
      }
    }
  }
}

TEST(SimdTiers, ResolveRespectsCpuAndKernelCeilings) {
  // Phrased relative to cpu_features() so the suite passes unchanged under
  // FEVES_CPU_CAP (run_sanitized.sh reruns it with the cap at sse2).
  const CpuFeatures& cpu = cpu_features();
  const SimdTier cpu_ceiling = cpu.avx2    ? SimdTier::kAvx2
                               : cpu.sse2 ? SimdTier::kSse2
                                          : SimdTier::kBlocked;
  // AVX2 pays on the wide pixel kernels; the 4x4 transform, deblock and MC
  // inner loops are 128-bit shaped, so their ladder tops out at SSE2.
  EXPECT_EQ(max_tier(KernelId::kSadGrid), lower(SimdTier::kAvx2, cpu_ceiling));
  EXPECT_EQ(max_tier(KernelId::kSadBlock), lower(SimdTier::kAvx2, cpu_ceiling));
  EXPECT_EQ(max_tier(KernelId::kInterp), lower(SimdTier::kAvx2, cpu_ceiling));
  EXPECT_EQ(max_tier(KernelId::kTransform),
            lower(SimdTier::kSse2, cpu_ceiling));
  EXPECT_EQ(max_tier(KernelId::kDeblock), lower(SimdTier::kSse2, cpu_ceiling));
  EXPECT_EQ(max_tier(KernelId::kMc), lower(SimdTier::kSse2, cpu_ceiling));

  for (int k = 0; k < static_cast<int>(KernelId::kCount); ++k) {
    const KernelId id = static_cast<KernelId>(k);
    // Software tiers always pass through untouched; kAuto is the max.
    EXPECT_EQ(resolve_tier(id, SimdTier::kScalar), SimdTier::kScalar);
    EXPECT_EQ(resolve_tier(id, SimdTier::kBlocked), SimdTier::kBlocked);
    EXPECT_EQ(resolve_tier(id, SimdTier::kAuto), max_tier(id));
    // Explicit vector requests degrade to the ceiling, never above it.
    EXPECT_EQ(resolve_tier(id, SimdTier::kAvx2), max_tier(id));
    EXPECT_EQ(resolve_tier(id, SimdTier::kSse2),
              lower(SimdTier::kSse2, max_tier(id)));
  }
}

TEST(SimdTiers, KernelGettersReportResolvedTier) {
  SimdTier resolved = SimdTier::kScalar;
  sad_grid_16x16_kernel(SimdTier::kAuto, &resolved);
  EXPECT_EQ(resolved, max_tier(KernelId::kSadGrid));
  sad_block_kernel(SimdTier::kAvx2, &resolved);
  EXPECT_EQ(resolved, max_tier(KernelId::kSadBlock));
  forward_transform_4x4_kernel(SimdTier::kAvx2, &resolved);
  EXPECT_EQ(resolved, max_tier(KernelId::kTransform));
  inverse_transform_4x4_kernel(SimdTier::kBlocked, &resolved);
  EXPECT_EQ(resolved, SimdTier::kBlocked);
}

TEST(SimdTiers, TierReportCoversEveryKernelWithDistinctNames) {
  const auto report = kernel_tier_report(SimdTier::kAuto);
  ASSERT_EQ(report.size(),
            static_cast<std::size_t>(KernelId::kCount));
  std::vector<std::string> names;
  for (const auto& row : report) {
    EXPECT_EQ(row.requested, SimdTier::kAuto);
    EXPECT_EQ(row.resolved, max_tier(row.id));
    names.emplace_back(kernel_name(row.id));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.end(), std::adjacent_find(names.begin(), names.end()));
}

}  // namespace
}  // namespace feves
