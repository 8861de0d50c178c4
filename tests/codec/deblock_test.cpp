#include "codec/deblock.hpp"

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "video/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace feves {
namespace {

TEST(BoundaryStrength, IntraWinsEverything) {
  Block4x4Info a, b;
  a.intra = true;
  EXPECT_EQ(boundary_strength(a, b), 4);
  a.intra = false;
  b.intra = true;
  EXPECT_EQ(boundary_strength(a, b), 4);
}

TEST(BoundaryStrength, CodedCoefficientsGiveTwo) {
  Block4x4Info a, b;
  a.nonzero = true;
  EXPECT_EQ(boundary_strength(a, b), 2);
}

TEST(BoundaryStrength, MotionDiscontinuityGivesOne) {
  Block4x4Info a, b;
  a.mv = Mv{0, 0};
  b.mv = Mv{4, 0};  // one full pel apart
  EXPECT_EQ(boundary_strength(a, b), 1);
  b.mv = Mv{3, 0};  // under a full pel: smooth
  EXPECT_EQ(boundary_strength(a, b), 0);
  b.mv = Mv{0, 0};
  b.ref_idx = 1;
  EXPECT_EQ(boundary_strength(a, b), 1);
}

TEST(BoundaryStrength, IdenticalMotionGivesZero) {
  Block4x4Info a, b;
  a.mv = b.mv = Mv{7, -9};
  EXPECT_EQ(boundary_strength(a, b), 0);
}

struct DeblockFixture {
  static constexpr int kMbW = 2, kMbH = 2;
  PlaneU8 luma{kMbW * 16, kMbH * 16, 8};
  std::vector<Block4x4Info> blocks{
      static_cast<std::size_t>(kMbW * 4 * kMbH * 4)};

  /// Hard step edge across the x=16 MB boundary.
  void make_vertical_step(u8 left, u8 right) {
    for (int y = 0; y < kMbH * 16; ++y) {
      for (int x = 0; x < kMbW * 16; ++x) {
        luma.at(y, x) = x < 16 ? left : right;
      }
    }
  }
};

TEST(Deblock, SmoothsBlockingArtifactAtCodedEdge) {
  DeblockFixture fx;
  fx.make_vertical_step(100, 116);
  for (auto& b : fx.blocks) b.nonzero = true;  // bS = 2 everywhere

  DeblockParams p;
  p.qp = 32;
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  // The step must shrink: p0/q0 moved toward each other.
  const int p0 = fx.luma.at(8, 15);
  const int q0 = fx.luma.at(8, 16);
  EXPECT_GT(p0, 100);
  EXPECT_LT(q0, 116);
}

TEST(Deblock, LeavesLargeRealEdgesAlone) {
  // |p0 - q0| >= alpha: this is real content, not a coding artifact.
  DeblockFixture fx;
  fx.make_vertical_step(30, 220);
  for (auto& b : fx.blocks) b.nonzero = true;

  DeblockParams p;
  p.qp = 32;
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  EXPECT_EQ(fx.luma.at(8, 15), 30);
  EXPECT_EQ(fx.luma.at(8, 16), 220);
}

TEST(Deblock, NoFilteringWhenBsZero) {
  DeblockFixture fx;
  fx.make_vertical_step(100, 112);
  // Default blocks: no coeffs, same MV/ref -> bS 0 everywhere.
  DeblockParams p;
  p.qp = 32;
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  EXPECT_EQ(fx.luma.at(8, 15), 100);
  EXPECT_EQ(fx.luma.at(8, 16), 112);
}

TEST(Deblock, LowQpDisablesFilterEntirely) {
  DeblockFixture fx;
  fx.make_vertical_step(100, 110);
  for (auto& b : fx.blocks) b.intra = true;
  DeblockParams p;
  p.qp = 10;  // alpha table is zero below 16
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  EXPECT_EQ(fx.luma.at(8, 15), 100);
  EXPECT_EQ(fx.luma.at(8, 16), 110);
}

TEST(Deblock, StrongFilterTouchesThreeSamples) {
  DeblockFixture fx;
  // Gentle ramp either side of the boundary so ap/aq < beta holds, then a
  // modest step: the bS=4 strong filter rewrites p2..q2.
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      fx.luma.at(y, x) = x < 16 ? 100 : 108;
    }
  }
  for (auto& b : fx.blocks) b.intra = true;
  DeblockParams p;
  p.qp = 40;

  const u8 before_p2 = fx.luma.at(4, 13);
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  EXPECT_NE(fx.luma.at(4, 13), before_p2);
  // Samples beyond p3 are never written.
  EXPECT_EQ(fx.luma.at(4, 11), 100);
}

TEST(Deblock, HorizontalEdgesFiltered) {
  DeblockFixture fx;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      fx.luma.at(y, x) = y < 16 ? 100 : 114;
    }
  }
  for (auto& b : fx.blocks) b.nonzero = true;
  DeblockParams p;
  p.qp = 32;
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  EXPECT_GT(fx.luma.at(15, 8), 100);
  EXPECT_LT(fx.luma.at(16, 8), 114);
}

TEST(Deblock, FrameBoundariesNeverFiltered) {
  DeblockFixture fx;
  fx.make_vertical_step(100, 116);
  for (auto& b : fx.blocks) b.intra = true;
  // Poison the border: if the filter read/wrote across the frame edge the
  // poison would leak into row/column 0 results differently.
  DeblockParams p;
  p.qp = 36;
  run_deblock_frame(fx.luma, DeblockFixture::kMbW, DeblockFixture::kMbH,
                    fx.blocks.data(), p);
  // Column 0 (left frame edge) has no left neighbour: x=0 edge skipped, so
  // the leftmost samples are untouched by any vertical-edge filter other
  // than the internal x=4 edge, which cannot modify x<1... verify x=0
  // retains its value.
  EXPECT_EQ(fx.luma.at(0, 0), 100);
}

/// Flat 4x4 tiles plus noise: tile steps small enough that many edges
/// filter, large enough that some do not.
Frame420 blocky_picture(Rng& rng, int w, int h) {
  Frame420 pic(w, h, 16);
  for (PlaneU8* plane : {&pic.y, &pic.u, &pic.v}) {
    for (int by = 0; by < plane->height() / 4; ++by) {
      for (int bx = 0; bx < plane->width() / 4; ++bx) {
        const int base = static_cast<int>(rng.uniform_int(40, 215));
        for (int y = by * 4; y < by * 4 + 4; ++y) {
          for (int x = bx * 4; x < bx * 4 + 4; ++x) {
            plane->at(y, x) = static_cast<u8>(
                base + static_cast<int>(rng.uniform_int(-3, 3)));
          }
        }
      }
    }
  }
  return pic;
}

/// Random bS 0..4 per 4x4 block (intra blocks take the strong filter).
std::vector<Block4x4Info> random_blocks(Rng& rng, int count) {
  std::vector<Block4x4Info> blocks(static_cast<std::size_t>(count));
  for (Block4x4Info& b : blocks) {
    b.intra = rng.uniform_int(0, 9) == 0;
    b.nonzero = rng.uniform_int(0, 2) == 0;
    b.ref_idx = static_cast<u8>(rng.uniform_int(0, 1));
    b.mv = Mv{static_cast<i16>(rng.uniform_int(-6, 6)),
              static_cast<i16>(rng.uniform_int(-6, 6))};
  }
  return blocks;
}

// The deblocking wavefront (MB (x, y) starts once MB (x+1, y-1) is done)
// must leave exactly the pixels of raster order, luma and both chroma
// planes: random bS 0..4 per 4x4 block (intra blocks take the strong
// filter), blocky content whose steps straddle alpha, several QPs, every
// tier, and MB grids 1, 2 and an odd number of columns wide.
TEST(Deblock, WavefrontMatchesRasterOrder) {
  ThreadPool pool(3);
  Rng rng(4242);
  struct Grid {
    int mbw, mbh;
  };
  for (const Grid g : {Grid{1, 5}, Grid{2, 4}, Grid{5, 6}, Grid{7, 3},
                       Grid{3, 1}}) {
    for (const int qp : {18, 28, 36, 45, 51}) {
      const int w = g.mbw * kMbSize;
      const int h = g.mbh * kMbSize;
      const Frame420 src = blocky_picture(rng, w, h);
      const std::vector<Block4x4Info> blocks =
          random_blocks(rng, g.mbw * 4 * g.mbh * 4);
      for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAuto}) {
        DeblockParams luma;
        luma.qp = qp;
        luma.tier = tier;
        DeblockParams chroma = luma;
        chroma.qp = std::max(0, qp - 3);

        Frame420 raster = src;
        run_deblock_frame(raster.y, g.mbw, g.mbh, blocks.data(), luma);
        run_deblock_chroma(raster.u, g.mbw, g.mbh, blocks.data(), chroma);
        run_deblock_chroma(raster.v, g.mbw, g.mbh, blocks.data(), chroma);

        for (int round = 0; round < 4; ++round) {
          Frame420 wave = src;
          run_deblock_picture(wave, g.mbw, g.mbh, blocks.data(), luma, chroma,
                              &pool);
          ASSERT_TRUE(frames_bit_exact(raster, wave))
              << g.mbw << "x" << g.mbh << " MBs, qp " << qp << ", tier "
              << static_cast<int>(tier) << ", round " << round;
        }
        Frame420 inline_raster = src;
        run_deblock_picture(inline_raster, g.mbw, g.mbh, blocks.data(), luma,
                            chroma);
        ASSERT_TRUE(frames_bit_exact(raster, inline_raster))
            << g.mbw << "x" << g.mbh << " MBs, qp " << qp << " (no pool)";
      }
    }
  }
}

// A waiter whose row above stalls past the spin bound parks, and the row
// above wakes it: by construction, row 0 holds its first MB until row 1
// has reported parking (so row 1 cannot finish by spinning), and the
// picture must still be raster order's.
TEST(Deblock, WavefrontWaiterParksAndIsWoken) {
  ThreadPool pool(2);
  Rng rng(977);
  const int mbw = 6;
  const int mbh = 4;
  const Frame420 src = blocky_picture(rng, mbw * kMbSize, mbh * kMbSize);
  const std::vector<Block4x4Info> blocks = random_blocks(rng, mbw * mbh * 16);
  DeblockParams luma;
  luma.qp = 36;
  DeblockParams chroma = luma;
  chroma.qp = 33;

  Frame420 raster = src;
  run_deblock_picture(raster, mbw, mbh, blocks.data(), luma, chroma);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> parked_rows;
  bool row1_parked = false;
  bool released_by_park = false;
  detail::WavefrontSeam seam;
  seam.on_park = [&](int mb_y) {
    std::lock_guard lock(mu);
    parked_rows.push_back(mb_y);
    if (mb_y == 1) row1_parked = true;
    cv.notify_all();
  };
  seam.before_mb = [&](int mb_x, int mb_y) {
    if (mb_x != 0 || mb_y != 0) return;
    // Bounded: a pool that never ran row 1 fails the test, not the suite.
    std::unique_lock lock(mu);
    released_by_park =
        cv.wait_for(lock, std::chrono::seconds(20), [&] { return row1_parked; });
    lock.unlock();
    // on_park runs just before the waiter blocks; give it time to get
    // there, so the wake-up below is the one that releases it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  const detail::WavefrontSeam* previous = detail::set_wavefront_seam(&seam);
  Frame420 wave = src;
  run_deblock_picture(wave, mbw, mbh, blocks.data(), luma, chroma, &pool);
  detail::set_wavefront_seam(previous);

  EXPECT_TRUE(released_by_park) << "row 1 never parked behind stalled row 0";
  EXPECT_TRUE(frames_bit_exact(raster, wave));
  EXPECT_NE(std::find(parked_rows.begin(), parked_rows.end(), 1),
            parked_rows.end());
}

// A row that fails mid-picture releases the rows waiting on it, so the
// error reaches the caller instead of leaving them parked for good.
TEST(Deblock, WavefrontRowFailureReachesTheCaller) {
  ThreadPool pool(3);
  Rng rng(978);
  const int mbw = 5;
  const int mbh = 6;
  const Frame420 src = blocky_picture(rng, mbw * kMbSize, mbh * kMbSize);
  const std::vector<Block4x4Info> blocks = random_blocks(rng, mbw * mbh * 16);
  DeblockParams luma;
  luma.qp = 36;
  detail::WavefrontSeam seam;
  seam.before_mb = [](int mb_x, int mb_y) {
    if (mb_x == 1 && mb_y == 2) throw std::runtime_error("row 2 failed");
  };
  const detail::WavefrontSeam* previous = detail::set_wavefront_seam(&seam);
  Frame420 wave = src;
  EXPECT_THROW(run_deblock_picture(wave, mbw, mbh, blocks.data(), luma, luma,
                                   &pool),
               std::runtime_error);
  detail::set_wavefront_seam(previous);
}

}  // namespace
}  // namespace feves
