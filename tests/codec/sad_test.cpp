#include "codec/sad.hpp"

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace feves {
namespace {

/// Oracle: literal per-pixel SAD of one rectangle.
u32 naive_sad(const u8* a, std::ptrdiff_t sa, const u8* b, std::ptrdiff_t sb,
              int w, int h) {
  u32 acc = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int d = static_cast<int>(a[y * sa + x]) - b[y * sb + x];
      acc += static_cast<u32>(d < 0 ? -d : d);
    }
  }
  return acc;
}

struct Buffers {
  std::vector<u8> cur, ref;
  static constexpr int kStride = 48;
  explicit Buffers(u64 seed) : cur(kStride * 32), ref(kStride * 32) {
    Rng rng(seed);
    for (auto& v : cur) v = static_cast<u8>(rng.uniform_int(0, 255));
    for (auto& v : ref) v = static_cast<u8>(rng.uniform_int(0, 255));
  }
};

TEST(SadGrid, ZeroForIdenticalBlocks) {
  Buffers b(1);
  u16 grid[16];
  sad_grid_16x16_kernel(SimdTier::kScalar)(b.cur.data(), Buffers::kStride,
                                           b.cur.data(), Buffers::kStride,
                                           grid);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(grid[i], 0);
}

TEST(SadGrid, MatchesNaivePerSubBlock) {
  Buffers b(2);
  u16 grid[16];
  sad_grid_16x16_kernel(SimdTier::kScalar)(b.cur.data(), Buffers::kStride,
                                           b.ref.data(), Buffers::kStride,
                                           grid);
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      const u32 expect =
          naive_sad(b.cur.data() + by * 4 * Buffers::kStride + bx * 4,
                    Buffers::kStride,
                    b.ref.data() + by * 4 * Buffers::kStride + bx * 4,
                    Buffers::kStride, 4, 4);
      EXPECT_EQ(grid[by * 4 + bx], expect);
    }
  }
}

TEST(SadGrid, MaxSaturationFits16Bits) {
  std::vector<u8> zeros(48 * 16, 0), ones(48 * 16, 255);
  u16 grid[16];
  sad_grid_16x16_kernel(SimdTier::kBlocked)(zeros.data(), 48, ones.data(), 48,
                                            grid);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(grid[i], 4080u);  // 16 * 255
}

/// Every optimized tier must agree exactly with the scalar reference.
class SadTierParity : public ::testing::TestWithParam<int> {};

TEST_P(SadTierParity, AllTiersMatchScalar) {
  Buffers b(static_cast<u64>(GetParam()) + 100);
  u16 g_scalar[16], g_other[16];
  sad_grid_16x16_kernel(SimdTier::kScalar)(b.cur.data(), Buffers::kStride,
                                           b.ref.data() + GetParam() % 7,
                                           Buffers::kStride, g_scalar);
  for (SimdTier tier :
       {SimdTier::kBlocked, SimdTier::kSse2, SimdTier::kAuto}) {
    sad_grid_16x16_kernel(tier)(b.cur.data(), Buffers::kStride,
                                b.ref.data() + GetParam() % 7,
                                Buffers::kStride, g_other);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(g_scalar[i], g_other[i]) << "tier " << static_cast<int>(tier);
    }
  }
}

TEST_P(SadTierParity, SimdBlockSadMatchesScalarAllShapes) {
  Buffers b(static_cast<u64>(GetParam()) + 500);
  for (int mode_i = 0; mode_i < kNumPartitionModes; ++mode_i) {
    const auto& g = kPartitionGeometry[mode_i];
    // Unaligned base pointers exercise the loadu paths.
    const u8* pa = b.cur.data() + GetParam() % 5;
    const u8* pb = b.ref.data() + GetParam() % 3;
    EXPECT_EQ(sad_block_kernel(SimdTier::kAuto)(pa, Buffers::kStride, pb,
                                                Buffers::kStride, g.block_w,
                                                g.block_h),
              sad_block_scalar(pa, Buffers::kStride, pb, Buffers::kStride,
                               g.block_w, g.block_h))
        << "mode " << mode_i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomContent, SadTierParity, ::testing::Range(0, 30));

TEST(SadBlock, MatchesNaiveOnAllPartitionShapes) {
  Buffers b(5);
  for (int mode_i = 0; mode_i < kNumPartitionModes; ++mode_i) {
    const auto& g = kPartitionGeometry[mode_i];
    const u32 got = sad_block_kernel(SimdTier::kAuto)(
        b.cur.data(), Buffers::kStride, b.ref.data(), Buffers::kStride,
        g.block_w, g.block_h);
    const u32 expect = naive_sad(b.cur.data(), Buffers::kStride, b.ref.data(),
                                 Buffers::kStride, g.block_w, g.block_h);
    EXPECT_EQ(got, expect) << "mode " << mode_i;
  }
}

/// Aggregation property: for every partition mode and block, the aggregated
/// SAD must equal a directly computed SAD of that rectangle.
class AggregateProperty : public ::testing::TestWithParam<int> {};

TEST_P(AggregateProperty, AggregatedEqualsDirect) {
  Buffers b(static_cast<u64>(GetParam()) * 31 + 7);
  u16 grid[16];
  sad_grid_16x16_kernel(SimdTier::kScalar)(b.cur.data(), Buffers::kStride,
                                           b.ref.data(), Buffers::kStride,
                                           grid);
  u32 agg[kEntriesPerMb];
  aggregate_sad_grid(grid, agg);

  for (int mode_i = 0; mode_i < kNumPartitionModes; ++mode_i) {
    const auto mode = static_cast<PartitionMode>(mode_i);
    const PartitionGeometry& g = geometry(mode);
    for (int blk = 0; blk < g.num_blocks(); ++blk) {
      int x0, y0;
      block_origin(mode, blk, &x0, &y0);
      const u32 direct =
          naive_sad(b.cur.data() + y0 * Buffers::kStride + x0,
                    Buffers::kStride, b.ref.data() + y0 * Buffers::kStride + x0,
                    Buffers::kStride, g.block_w, g.block_h);
      EXPECT_EQ(agg[kModeOffset[mode_i] + blk], direct)
          << "mode " << mode_i << " block " << blk;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomContent, AggregateProperty,
                         ::testing::Range(0, 20));

TEST(Partition, ModeOffsetsCover41Entries) {
  EXPECT_EQ(kEntriesPerMb, 41);
  int total = 0;
  for (int m = 0; m < kNumPartitionModes; ++m) {
    const auto& g = kPartitionGeometry[m];
    EXPECT_EQ(kModeOffset[m + 1] - kModeOffset[m], g.num_blocks());
    total += g.num_blocks();
    EXPECT_EQ(g.block_w * g.blocks_x, 16);
    EXPECT_EQ(g.block_h * g.blocks_y, 16);
  }
  EXPECT_EQ(total, 41);
}

}  // namespace
}  // namespace feves
