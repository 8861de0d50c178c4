#include "codec/deblock.hpp"

#include "codec/deblock_edge.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace feves {

namespace {

constexpr u8 kAlpha[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,   0,   0,   0,   0,   0,   4,
    4,  5,  6,  7,  8,  9,  10, 12, 13, 15, 17,  20,  22,  25,  28,  32,  36,
    40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203, 226,
    255, 255};

constexpr u8 kBeta[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  2,  2,
    2,  3,  3,  3,  3,  4,  4,  4,  6,  6,  7,  7,  8,  8,  9,  9,  10, 10,
    11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18};

/// tc0 clipping table (H.264 Table 8-17), indexed [indexA][bS-1].
constexpr u8 kTc0[52][3] = {
    {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},
    {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},
    {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 0},  {0, 0, 1},
    {0, 0, 1},  {0, 0, 1},  {0, 0, 1},  {0, 1, 1},  {0, 1, 1},  {1, 1, 1},
    {1, 1, 1},  {1, 1, 1},  {1, 1, 1},  {1, 1, 2},  {1, 1, 2},  {1, 1, 2},
    {1, 1, 2},  {1, 2, 3},  {1, 2, 3},  {2, 2, 3},  {2, 2, 4},  {2, 3, 4},
    {2, 3, 4},  {3, 3, 5},  {3, 4, 6},  {3, 4, 6},  {4, 5, 7},  {4, 5, 8},
    {4, 6, 9},  {5, 7, 10}, {6, 8, 11}, {6, 8, 13}, {7, 10, 14}, {8, 11, 16},
    {9, 12, 18}, {10, 13, 20}, {11, 15, 23}, {13, 17, 25}};

/// The table only covers bS 1..3: bS 4 takes the strong-filter path where
/// tc0 is never consulted, and the vector lane setup asks for bS 0 lanes
/// (masked off in the filter) — return 0 instead of reading past the row.
int tc0_of(int index_a, int bs) {
  return bs >= 1 && bs < 4 ? kTc0[index_a][bs - 1] : 0;
}

inline u8 clip255(int v) { return static_cast<u8>(std::clamp(v, 0, 255)); }

/// How long a wavefront waiter spins before it parks. A healthy wait is a
/// couple of MBs, about a microsecond each; a wait this long means the row
/// above lost its core, and spinning on would only keep it off one.
constexpr auto kSpinBeforePark = std::chrono::microseconds(100);

/// Spins between two reads of the clock.
constexpr int kSpinsPerClockRead = 64;

std::atomic<const detail::WavefrontSeam*> g_wavefront_seam{nullptr};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

namespace detail {

/// Filters one line of samples across an edge. `p` points at p0 and the
/// pN samples live at p[-step*N]; qN at p[step*N]... precisely: caller
/// passes pointers so that p_n = pp[-n*step] is p_n and qq[n*step] is q_n.
void filter_line(u8* q0ptr, std::ptrdiff_t step, int bs, int alpha, int beta,
                 int tc0) {
  u8* q = q0ptr;
  const int p0 = q[-1 * step];
  const int p1 = q[-2 * step];
  const int p2 = q[-3 * step];
  const int p3 = q[-4 * step];
  const int q0 = q[0];
  const int q1 = q[1 * step];
  const int q2 = q[2 * step];
  const int q3 = q[3 * step];

  if (std::abs(p0 - q0) >= alpha || std::abs(p1 - p0) >= beta ||
      std::abs(q1 - q0) >= beta) {
    return;
  }
  const bool ap = std::abs(p2 - p0) < beta;
  const bool aq = std::abs(q2 - q0) < beta;

  if (bs < 4) {
    const int tc = tc0 + (ap ? 1 : 0) + (aq ? 1 : 0);
    const int delta =
        std::clamp(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3, -tc, tc);
    q[-1 * step] = clip255(p0 + delta);
    q[0] = clip255(q0 - delta);
    if (ap) {
      q[-2 * step] = static_cast<u8>(
          p1 + std::clamp((p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1, -tc0,
                          tc0));
    }
    if (aq) {
      q[1 * step] = static_cast<u8>(
          q1 + std::clamp((q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1, -tc0,
                          tc0));
    }
  } else {
    const bool strong = std::abs(p0 - q0) < (alpha >> 2) + 2;
    if (strong && ap) {
      q[-1 * step] =
          static_cast<u8>((p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) >> 3);
      q[-2 * step] = static_cast<u8>((p2 + p1 + p0 + q0 + 2) >> 2);
      q[-3 * step] =
          static_cast<u8>((2 * p3 + 3 * p2 + p1 + p0 + q0 + 4) >> 3);
    } else {
      q[-1 * step] = static_cast<u8>((2 * p1 + p0 + q1 + 2) >> 2);
    }
    if (strong && aq) {
      q[0] = static_cast<u8>((q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) >> 3);
      q[1 * step] = static_cast<u8>((q2 + q1 + q0 + p0 + 2) >> 2);
      q[2 * step] =
          static_cast<u8>((2 * q3 + 3 * q2 + q1 + q0 + p0 + 4) >> 3);
    } else {
      q[0] = static_cast<u8>((2 * q1 + q0 + p1 + 2) >> 2);
    }
  }
}

/// Chroma line filter: two samples per side.
void filter_chroma_line(u8* q0ptr, std::ptrdiff_t step, int bs, int alpha,
                        int beta, int tc0) {
  u8* q = q0ptr;
  const int p0 = q[-1 * step];
  const int p1 = q[-2 * step];
  const int q0 = q[0];
  const int q1 = q[1 * step];
  if (std::abs(p0 - q0) >= alpha || std::abs(p1 - p0) >= beta ||
      std::abs(q1 - q0) >= beta) {
    return;
  }
  if (bs < 4) {
    const int tc = tc0 + 1;
    const int delta =
        std::clamp(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3, -tc, tc);
    q[-1 * step] = clip255(p0 + delta);
    q[0] = clip255(q0 - delta);
  } else {
    q[-1 * step] = static_cast<u8>((2 * p1 + p0 + q1 + 2) >> 2);
    q[0] = static_cast<u8>((2 * q1 + q0 + p1 + 2) >> 2);
  }
}

}  // namespace detail

int boundary_strength(const Block4x4Info& a, const Block4x4Info& b) {
  if (a.intra || b.intra) return 4;
  if (a.nonzero || b.nonzero) return 2;
  if (a.ref_idx != b.ref_idx) return 1;
  if (std::abs(a.mv.x - b.mv.x) >= 4 || std::abs(a.mv.y - b.mv.y) >= 4)
    return 1;
  return 0;
}

namespace {

/// Per-call state shared by every MB of one plane's filtering pass.
struct EdgeFilter {
  int index_a = 0;
  int alpha = 0;
  int beta = 0;
  bool vec = false;  ///< horizontal edges take the SSE2 edge kernel
  int bw = 0;        ///< luma 4x4 block grid width
  bool enabled() const { return alpha != 0 && beta != 0; }
};

EdgeFilter edge_filter(int mb_width, const DeblockParams& p) {
  EdgeFilter f;
  f.index_a = std::clamp(p.qp + p.alpha_offset, 0, 51);
  const int index_b = std::clamp(p.qp + p.beta_offset, 0, 51);
  f.alpha = kAlpha[f.index_a];
  f.beta = kBeta[index_b];
  const SimdTier tier = resolve_tier(KernelId::kDeblock, p.tier);
  f.vec = tier == SimdTier::kSse2 || tier == SimdTier::kAvx2;
  f.bw = mb_width * 4;
  return f;
}

/// Filters the luma edges of MB (mb_x, mb_y): its left and inner vertical
/// edges, then its top and inner horizontal edges (H.264 8.7). Touches
/// pixels in columns [16x-4, 16x+15] x rows [16y-4, 16y+15] only.
void deblock_luma_mb(const EdgeFilter& f, PlaneU8& luma,
                     const Block4x4Info* blocks, int mb_x, int mb_y) {
  const int alpha = f.alpha;
  const int beta = f.beta;
  const int bw = f.bw;
  // Vertical edges (filtering horizontally across columns
  // x = 16*mb_x + {0,4,8,12}); the x=0 edge needs a left neighbour MB.
  // The taps run along the row itself, so these stay scalar.
  for (int e = 0; e < 4; ++e) {
    if (e == 0 && mb_x == 0) continue;
    const int px = mb_x * kMbSize + e * 4;
    for (int line = 0; line < kMbSize; ++line) {
      const int py = mb_y * kMbSize + line;
      const int bx = px / 4;
      const int by = py / 4;
      const int bs =
          boundary_strength(blocks[by * bw + (bx - 1)], blocks[by * bw + bx]);
      if (bs == 0) continue;
      detail::filter_line(luma.row(py) + px, 1, bs, alpha, beta,
                          tc0_of(f.index_a, bs));
    }
  }
  // Horizontal edges (filtering vertically across rows
  // y = 16*mb_y + {0,4,8,12}); the y=0 edge needs an above neighbour.
  // The 16 columns are independent line filters: one vector edge call.
  for (int e = 0; e < 4; ++e) {
    if (e == 0 && mb_y == 0) continue;
    const int py = mb_y * kMbSize + e * 4;
    const int by = py / 4;
    if (f.vec) {
      alignas(16) i16 bs_lanes[16];
      alignas(16) i16 tc0_lanes[16];
      bool any = false;
      for (int seg = 0; seg < 4; ++seg) {
        const int bx = mb_x * 4 + seg;
        const int bs = boundary_strength(blocks[(by - 1) * bw + bx],
                                         blocks[by * bw + bx]);
        const i16 t = static_cast<i16>(tc0_of(f.index_a, bs));
        for (int k = 0; k < 4; ++k) {
          bs_lanes[seg * 4 + k] = static_cast<i16>(bs);
          tc0_lanes[seg * 4 + k] = t;
        }
        any = any || bs != 0;
      }
      if (!any) continue;
      detail::filter_hedge_luma_simd(luma.row(py) + mb_x * kMbSize,
                                     luma.stride(), bs_lanes, tc0_lanes,
                                     alpha, beta);
      continue;
    }
    for (int line = 0; line < kMbSize; ++line) {
      const int px = mb_x * kMbSize + line;
      const int bx = px / 4;
      const int bs = boundary_strength(blocks[(by - 1) * bw + bx],
                                       blocks[by * bw + bx]);
      if (bs == 0) continue;
      detail::filter_line(luma.row(py) + px, luma.stride(), bs, alpha, beta,
                          tc0_of(f.index_a, bs));
    }
  }
}

/// Chroma counterpart of deblock_luma_mb: columns [8x-2, 8x+7] x rows
/// [8y-2, 8y+7].
void deblock_chroma_mb(const EdgeFilter& f, PlaneU8& chroma,
                       const Block4x4Info* blocks, int mb_x, int mb_y) {
  constexpr int kCMb = kMbSize / 2;
  const int alpha = f.alpha;
  const int beta = f.beta;
  const int bw = f.bw;
  // Vertical chroma edges at x = 8*mb_x + {0, 4}.
  for (int e = 0; e < 2; ++e) {
    if (e == 0 && mb_x == 0) continue;
    const int cx = mb_x * kCMb + e * 4;
    for (int line = 0; line < kCMb; ++line) {
      const int cy = mb_y * kCMb + line;
      // Co-located luma 4x4 blocks: chroma sample (cx, cy) maps to
      // luma pixel (2cx, 2cy) -> block (cx/2, cy/2).
      const int lbx = cx / 2;
      const int lby = cy / 2;
      const int bs = boundary_strength(blocks[lby * bw + (lbx - 1)],
                                       blocks[lby * bw + lbx]);
      if (bs == 0) continue;
      detail::filter_chroma_line(chroma.row(cy) + cx, 1, bs, alpha, beta,
                                 tc0_of(f.index_a, bs));
    }
  }
  // Horizontal chroma edges at y = 8*mb_y + {0, 4}; the bs segments are
  // 2 chroma columns wide (one co-located luma 4x4 block each).
  for (int e = 0; e < 2; ++e) {
    if (e == 0 && mb_y == 0) continue;
    const int cy = mb_y * kCMb + e * 4;
    const int lby = cy / 2;
    if (f.vec) {
      alignas(16) i16 bs_lanes[8];
      alignas(16) i16 tc0_lanes[8];
      bool any = false;
      for (int seg = 0; seg < 4; ++seg) {
        const int lbx = mb_x * 4 + seg;
        const int bs = boundary_strength(blocks[(lby - 1) * bw + lbx],
                                         blocks[lby * bw + lbx]);
        const i16 t = static_cast<i16>(tc0_of(f.index_a, bs));
        bs_lanes[seg * 2 + 0] = static_cast<i16>(bs);
        bs_lanes[seg * 2 + 1] = static_cast<i16>(bs);
        tc0_lanes[seg * 2 + 0] = t;
        tc0_lanes[seg * 2 + 1] = t;
        any = any || bs != 0;
      }
      if (!any) continue;
      detail::filter_hedge_chroma_simd(chroma.row(cy) + mb_x * kCMb,
                                       chroma.stride(), bs_lanes, tc0_lanes,
                                       alpha, beta);
      continue;
    }
    for (int line = 0; line < kCMb; ++line) {
      const int cx = mb_x * kCMb + line;
      const int lbx = cx / 2;
      const int bs = boundary_strength(blocks[(lby - 1) * bw + lbx],
                                       blocks[lby * bw + lbx]);
      if (bs == 0) continue;
      detail::filter_chroma_line(chroma.row(cy) + cx, chroma.stride(), bs,
                                 alpha, beta, tc0_of(f.index_a, bs));
    }
  }
}

}  // namespace

void run_deblock_frame(PlaneU8& luma, int mb_width, int mb_height,
                       const Block4x4Info* blocks, const DeblockParams& p) {
  FEVES_CHECK(luma.width() == mb_width * kMbSize);
  FEVES_CHECK(luma.height() == mb_height * kMbSize);
  const EdgeFilter f = edge_filter(mb_width, p);
  if (!f.enabled()) return;  // QP too low: filter disabled
  for (int mb_y = 0; mb_y < mb_height; ++mb_y) {
    for (int mb_x = 0; mb_x < mb_width; ++mb_x) {
      deblock_luma_mb(f, luma, blocks, mb_x, mb_y);
    }
  }
}

void run_deblock_chroma(PlaneU8& chroma, int mb_width, int mb_height,
                        const Block4x4Info* blocks, const DeblockParams& p) {
  FEVES_CHECK(chroma.width() == mb_width * (kMbSize / 2));
  FEVES_CHECK(chroma.height() == mb_height * (kMbSize / 2));
  const EdgeFilter f = edge_filter(mb_width, p);
  if (!f.enabled()) return;
  for (int mb_y = 0; mb_y < mb_height; ++mb_y) {
    for (int mb_x = 0; mb_x < mb_width; ++mb_x) {
      deblock_chroma_mb(f, chroma, blocks, mb_x, mb_y);
    }
  }
}

void run_deblock_picture(Frame420& pic, int mb_width, int mb_height,
                         const Block4x4Info* blocks, const DeblockParams& luma,
                         const DeblockParams& chroma, ThreadPool* pool) {
  FEVES_CHECK(pic.y.width() == mb_width * kMbSize);
  FEVES_CHECK(pic.y.height() == mb_height * kMbSize);
  FEVES_CHECK(pic.u.width() == mb_width * (kMbSize / 2));
  FEVES_CHECK(pic.u.height() == mb_height * (kMbSize / 2));
  FEVES_CHECK(pic.v.width() == pic.u.width() &&
              pic.v.height() == pic.u.height());
  const EdgeFilter fy = edge_filter(mb_width, luma);
  const EdgeFilter fc = edge_filter(mb_width, chroma);
  const auto filter_mb = [&](int mb_x, int mb_y) {
    if (fy.enabled()) deblock_luma_mb(fy, pic.y, blocks, mb_x, mb_y);
    if (fc.enabled()) {
      deblock_chroma_mb(fc, pic.u, blocks, mb_x, mb_y);
      deblock_chroma_mb(fc, pic.v, blocks, mb_x, mb_y);
    }
  };
  if (pool == nullptr) {
    for (int mb_y = 0; mb_y < mb_height; ++mb_y) {
      for (int mb_x = 0; mb_x < mb_width; ++mb_x) filter_mb(mb_x, mb_y);
    }
    return;
  }
  // Lag-2 wavefront: each MB row runs left to right, and MB (x, y) starts
  // once MB (x+1, y-1) is done. MB (x, y) touches its own pixels, the 4
  // (chroma: 2) columns left of them and the 4 (2) rows above them, so it
  // shares pixels only with (x±1, y), (x, y±1), (x+1, y-1) and (x-1, y+1).
  // The wavefront runs each such pair in raster order, and MBs that share
  // no pixel commute: the result is raster order's, bit for bit.
  // `done[y]` counts row y's finished MBs. Rows are claimed in increasing
  // order and a claimed row always runs to its end, so a row only ever
  // waits for a row that is being worked on.
  //
  // A waiter spins with `pause` for up to kSpinBeforePark, then parks on
  // the picture's condition variable; it never yields its core to whatever
  // else is runnable. A row notifies only while the row below has flagged
  // itself parked, so a wavefront that never parks pays one flag load per
  // MB. Each row's counter and flag share a cache line of their own:
  // neighbouring rows' threads write them per MB.
  struct alignas(64) Progress {
    std::atomic<int> done{0};
    std::atomic<bool> waiter{false};  ///< the row below is parked on `done`
  };
  std::vector<Progress> rows(static_cast<std::size_t>(mb_height));
  std::mutex park_mutex;
  std::condition_variable park_cv;
  const detail::WavefrontSeam* seam =
      g_wavefront_seam.load(std::memory_order_acquire);

  // The flag store/counter load here and the counter store/flag load in
  // publish are all seq_cst: either publish sees the flag and wakes the
  // waiter, or the waiter's predicate sees the new count.
  const auto wait_for = [&](int mb_y, int need) {
    Progress& above = rows[mb_y - 1];
    if (above.done.load(std::memory_order_acquire) >= need) return;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    for (int spins = 1;; ++spins) {
      cpu_relax();
      if (above.done.load(std::memory_order_acquire) >= need) return;
      if (spins % kSpinsPerClockRead == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
    if (seam != nullptr && seam->on_park) seam->on_park(mb_y);
    std::unique_lock lock(park_mutex);
    above.waiter.store(true);
    park_cv.wait(lock, [&] { return above.done.load() >= need; });
    above.waiter.store(false, std::memory_order_relaxed);
  };
  const auto publish = [&](int mb_y, int count) {
    Progress& mine = rows[mb_y];
    mine.done.store(count);
    if (mine.waiter.load()) {
      { std::lock_guard lock(park_mutex); }
      park_cv.notify_all();
    }
  };

  pool->parallel_for(0, mb_height, [&](int mb_y) {
    try {
      for (int mb_x = 0; mb_x < mb_width; ++mb_x) {
        if (mb_y > 0) wait_for(mb_y, std::min(mb_x + 2, mb_width));
        if (seam != nullptr && seam->before_mb) seam->before_mb(mb_x, mb_y);
        filter_mb(mb_x, mb_y);
        publish(mb_y, mb_x + 1);
      }
    } catch (...) {
      // Release the rows below before the error leaves: they would wait
      // for this row forever. The picture is garbage either way.
      publish(mb_y, mb_width);
      throw;
    }
  });
}

namespace detail {

const WavefrontSeam* set_wavefront_seam(const WavefrontSeam* seam) {
  return g_wavefront_seam.exchange(seam, std::memory_order_acq_rel);
}

}  // namespace detail

}  // namespace feves
