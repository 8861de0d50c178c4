// AVX2 tier of the kernel library: SAD (grid + rectangular), the fused
// full-search macroblock kernel, and the interpolation row passes. Built
// without -mavx2 — every function carries a target("avx2") attribute, so
// the TU compiles into any x86-64 binary and the kernel registry only
// selects these entry points after CPUID confirms AVX2 (codec/kernels.hpp).
// On toolchains/targets where the attribute is unavailable the stubs at the
// bottom forward to the SSE2 tier; they always link and are never the
// resolved tier.
//
// Exactness mirrors the SSE2 tier (ranges in codec/interp_rows.hpp); VPSADBW,
// VMPSADBW and VPAVGB are exact by definition, and the fused kernel's u16
// partition sums are bounded below 2^16 (DESIGN.md §6h).
#include "codec/interp_rows.hpp"
#include "codec/partition.hpp"
#include "codec/sad.hpp"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEVES_CAN_AVX2 1
#include <immintrin.h>
#define FEVES_AVX2_FN __attribute__((target("avx2")))
#endif

namespace feves {

// SSE2 siblings (sad_simd.cpp / interpolate_simd.cpp) used for tails and as
// the forwarding targets of the no-AVX2 stubs.
void sad_grid_simd(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]);
u32 sad_block_simd(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height);

#if FEVES_CAN_AVX2

namespace {

FEVES_AVX2_FN inline __m256i loadu256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

FEVES_AVX2_FN inline void storeu256(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

FEVES_AVX2_FN inline __m128i loadu128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// Two 128-bit rows packed into one 256-bit register (lane0 = `lo` row).
FEVES_AVX2_FN inline __m256i pack_rows(__m128i lo, __m128i hi) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

FEVES_AVX2_FN inline __m256i absdiff_u8_256(__m256i a, __m256i b) {
  return _mm256_or_si256(_mm256_subs_epu8(a, b), _mm256_subs_epu8(b, a));
}

FEVES_AVX2_FN inline u32 hsum_sad_256(__m256i acc) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return static_cast<u32>(_mm_cvtsi128_si64(s)) +
         static_cast<u32>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

}  // namespace

FEVES_AVX2_FN void sad_grid_avx2(const u8* cur, std::ptrdiff_t cur_stride,
                                 const u8* ref, std::ptrdiff_t ref_stride,
                                 u16 out[16]) {
  const __m256i zero = _mm256_setzero_si256();
  const __m128i ones16 = _mm_set1_epi16(1);

  for (int by = 0; by < 4; ++by) {
    // Two pixel rows per iteration, one in each 128-bit lane; lane-wise
    // per-column 16-bit accumulators (max 4 * 255 per column).
    __m256i acc_lo = zero;  // columns 0..7 of both lane rows
    __m256i acc_hi = zero;  // columns 8..15
    for (int y = 0; y < 4; y += 2) {
      const u8* c0 = cur + (by * 4 + y) * cur_stride;
      const u8* r0 = ref + (by * 4 + y) * ref_stride;
      const __m256i c = pack_rows(loadu128(c0), loadu128(c0 + cur_stride));
      const __m256i r = pack_rows(loadu128(r0), loadu128(r0 + ref_stride));
      const __m256i d = absdiff_u8_256(c, r);
      acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(d, zero));
      acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(d, zero));
    }
    // Fold the two lane rows together, then reduce groups of 4 columns
    // exactly like the SSE2 tier.
    const __m128i col_lo = _mm_add_epi16(_mm256_castsi256_si128(acc_lo),
                                         _mm256_extracti128_si256(acc_lo, 1));
    const __m128i col_hi = _mm_add_epi16(_mm256_castsi256_si128(acc_hi),
                                         _mm256_extracti128_si256(acc_hi, 1));
    alignas(16) u32 pairs_lo[4], pairs_hi[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(pairs_lo),
                    _mm_madd_epi16(col_lo, ones16));
    _mm_store_si128(reinterpret_cast<__m128i*>(pairs_hi),
                    _mm_madd_epi16(col_hi, ones16));
    out[by * 4 + 0] = static_cast<u16>(pairs_lo[0] + pairs_lo[1]);
    out[by * 4 + 1] = static_cast<u16>(pairs_lo[2] + pairs_lo[3]);
    out[by * 4 + 2] = static_cast<u16>(pairs_hi[0] + pairs_hi[1]);
    out[by * 4 + 3] = static_cast<u16>(pairs_hi[2] + pairs_hi[3]);
  }
}

FEVES_AVX2_FN u32 sad_block_avx2(const u8* a, std::ptrdiff_t stride_a,
                                 const u8* b, std::ptrdiff_t stride_b,
                                 int width, int height) {
  u32 total = 0;
  int x = 0;
  for (; x + 32 <= width; x += 32) {
    __m256i acc = _mm256_setzero_si256();
    for (int y = 0; y < height; ++y) {
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(loadu256(a + y * stride_a + x),
                               loadu256(b + y * stride_b + x)));
    }
    total += hsum_sad_256(acc);
  }
  if (x + 16 <= width) {
    // 16-wide span, two rows per VPSADBW via the two lanes.
    __m256i acc = _mm256_setzero_si256();
    int y = 0;
    for (; y + 2 <= height; y += 2) {
      const __m256i va = pack_rows(loadu128(a + y * stride_a + x),
                                   loadu128(a + (y + 1) * stride_a + x));
      const __m256i vb = pack_rows(loadu128(b + y * stride_b + x),
                                   loadu128(b + (y + 1) * stride_b + x));
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
    }
    total += hsum_sad_256(acc);
    for (; y < height; ++y) {
      __m128i s = _mm_sad_epu8(loadu128(a + y * stride_a + x),
                               loadu128(b + y * stride_b + x));
      total += static_cast<u32>(_mm_cvtsi128_si64(s)) +
               static_cast<u32>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
    }
    x += 16;
  }
  if (x < width) {
    total += sad_block_simd(a + x, stride_a, b + x, stride_b, width - x,
                            height);
  }
  return total;
}

// ---- Fused full search (the kAvx2 tier of kSadGrid) ----------------------
//
// A chunk is K horizontally adjacent candidates (K = 16 in a ymm, 8 in an
// xmm), one u16 lane each. For one current row and one 4-column group,
// VMPSADBW prices the 4-pixel row SAD of all K candidates at once; four rows
// summed give a 4x4 SAD, and those aggregate to all 41 partition costs in
// u16 (at most 256 * 255 = 65280). Each lane keeps a strict-less running
// minimum and its raster candidate index; a (cost, index) reduction over
// lanes and chunks then reproduces fsbm_mb's first-minimum rule.
// DESIGN.md §6h has the lane layout, the exactness bound, the tie-break
// proof and the read-footprint contract.

namespace {

/// Reference rows one chunk touches at the largest fused range.
constexpr int kMaxWindowRows = 2 * kFusedFsbmMaxRange + kMbSize;

/// MPSADBW selector: the reference window starts at byte 4 * `aoff`
/// (`aoff` 0 or 1) and the current 4-byte group is `grp`.
constexpr int mps_sel(int aoff, int grp) { return (aoff << 2) | grp; }

/// The VMPSADBW immediate applying one selector to both 128-bit halves
/// (bits 0-2 and 3-5).
constexpr int mps_imm(int aoff, int grp) { return mps_sel(aoff, grp) * 9; }

/// 16 candidates per chunk: lane j of the low half is candidate dx0 + j,
/// lane j of the high half dx0 + 8 + j.
struct Ymm {
  using V = __m256i;
  static constexpr int kLanes = 16;

  FEVES_AVX2_FN static V zero() { return _mm256_setzero_si256(); }
  FEVES_AVX2_FN static V set1(int v) {
    return _mm256_set1_epi16(static_cast<i16>(v));
  }
  FEVES_AVX2_FN static V iota() {
    return _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                             14, 15);
  }
  FEVES_AVX2_FN static V add(V a, V b) { return _mm256_add_epi16(a, b); }
  FEVES_AVX2_FN static V min(V a, V b) { return _mm256_min_epu16(a, b); }
  FEVES_AVX2_FN static V eq(V a, V b) { return _mm256_cmpeq_epi16(a, b); }
  /// Lanes of `b` where `mask` is set, of `a` elsewhere.
  FEVES_AVX2_FN static V blend(V a, V b, V mask) {
    return _mm256_blendv_epi8(a, b, mask);
  }
  /// One current row in both halves.
  FEVES_AVX2_FN static V cur_row(const u8* p) {
    return _mm256_broadcastsi128_si256(loadu128(p));
  }
  /// Reference windows of one row for the chunk whose first candidate
  /// column is `p`: `a` holds bytes [0,16) | [8,24) and serves groups 0-1,
  /// `b` holds [8,24) | [16,31) and serves groups 2-3. The last load is
  /// taken at p + 15 and shifted down a byte, so nothing past p + 30 — the
  /// last byte the chunk's candidates cover — is read.
  FEVES_AVX2_FN static void windows(const u8* p, V* a, V* b) {
    const __m128i l8 = loadu128(p + 8);
    *a = pack_rows(loadu128(p), l8);
    *b = pack_rows(l8, _mm_srli_si128(loadu128(p + 15), 1));
  }
  /// Adds one row's 4-pixel SADs of groups 0..3 into `acc`.
  FEVES_AVX2_FN static void row_sads(V a, V b, V c, V acc[4]) {
    acc[0] = add(acc[0], _mm256_mpsadbw_epu8(a, c, mps_imm(0, 0)));
    acc[1] = add(acc[1], _mm256_mpsadbw_epu8(a, c, mps_imm(1, 1)));
    acc[2] = add(acc[2], _mm256_mpsadbw_epu8(b, c, mps_imm(0, 2)));
    acc[3] = add(acc[3], _mm256_mpsadbw_epu8(b, c, mps_imm(1, 3)));
  }
  /// Smallest (cost << 16 | index) over the lanes.
  FEVES_AVX2_FN static u32 min_key(V cost, V idx) {
    const V m = _mm256_min_epu32(_mm256_unpacklo_epi16(idx, cost),
                                 _mm256_unpackhi_epi16(idx, cost));
    __m128i s = _mm_min_epu32(_mm256_castsi256_si128(m),
                              _mm256_extracti128_si256(m, 1));
    s = _mm_min_epu32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_min_epu32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<u32>(_mm_cvtsi128_si32(s));
  }
};

/// 8 candidates per chunk (search rows narrower than 16): lane j is
/// candidate dx0 + j.
struct Xmm {
  using V = __m128i;
  static constexpr int kLanes = 8;

  FEVES_AVX2_FN static V zero() { return _mm_setzero_si128(); }
  FEVES_AVX2_FN static V set1(int v) {
    return _mm_set1_epi16(static_cast<i16>(v));
  }
  FEVES_AVX2_FN static V iota() {
    return _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
  }
  FEVES_AVX2_FN static V add(V a, V b) { return _mm_add_epi16(a, b); }
  FEVES_AVX2_FN static V min(V a, V b) { return _mm_min_epu16(a, b); }
  FEVES_AVX2_FN static V eq(V a, V b) { return _mm_cmpeq_epi16(a, b); }
  FEVES_AVX2_FN static V blend(V a, V b, V mask) {
    return _mm_blendv_epi8(a, b, mask);
  }
  FEVES_AVX2_FN static V cur_row(const u8* p) { return loadu128(p); }
  /// `a` holds bytes [0,16) for groups 0-1, `b` bytes [8,23) for groups
  /// 2-3 (loaded at p + 7 and shifted, so nothing past p + 22 is read).
  FEVES_AVX2_FN static void windows(const u8* p, V* a, V* b) {
    *a = loadu128(p);
    *b = _mm_srli_si128(loadu128(p + 7), 1);
  }
  FEVES_AVX2_FN static void row_sads(V a, V b, V c, V acc[4]) {
    acc[0] = add(acc[0], _mm_mpsadbw_epu8(a, c, mps_sel(0, 0)));
    acc[1] = add(acc[1], _mm_mpsadbw_epu8(a, c, mps_sel(1, 1)));
    acc[2] = add(acc[2], _mm_mpsadbw_epu8(b, c, mps_sel(0, 2)));
    acc[3] = add(acc[3], _mm_mpsadbw_epu8(b, c, mps_sel(1, 3)));
  }
  FEVES_AVX2_FN static u32 min_key(V cost, V idx) {
    __m128i s = _mm_min_epu32(_mm_unpacklo_epi16(idx, cost),
                              _mm_unpackhi_epi16(idx, cost));
    s = _mm_min_epu32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_min_epu32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<u32>(_mm_cvtsi128_si32(s));
  }
};

/// Per-lane running minimum of the 41 partition costs of one chunk.
template <class T>
struct LaneMin {
  typename T::V cost[kEntriesPerMb];
  typename T::V idx[kEntriesPerMb];

  /// Strict-less update: a lane takes `v` (and candidate index `cand`) only
  /// when it beats the lane's minimum, so ties keep the earlier candidate.
  FEVES_AVX2_FN void take(int k, typename T::V v, typename T::V cand) {
    const typename T::V m = T::min(v, cost[k]);
    idx[k] = T::blend(cand, idx[k], T::eq(m, cost[k]));
    cost[k] = m;
  }
};

/// Sums rows [0, 4) of a band: the four 4x4 SADs of every lane.
template <class T>
FEVES_AVX2_FN inline void band_sads(const typename T::V* a,
                                    const typename T::V* b,
                                    const typename T::V* c,
                                    typename T::V g[4]) {
  g[0] = g[1] = g[2] = g[3] = T::zero();
  for (int y = 0; y < 4; ++y) T::row_sads(a[y], b[y], c[y], g);
}

template <class T>
FEVES_AVX2_FN void fsbm_chunks(const u8* cur, std::ptrdiff_t cur_stride,
                               const u8* ref, std::ptrdiff_t ref_stride,
                               int r, MbMotion* out) {
  using V = typename T::V;
  constexpr int K = T::kLanes;
  constexpr int k16x16 = kModeOffset[static_cast<int>(PartitionMode::k16x16)];
  constexpr int k16x8 = kModeOffset[static_cast<int>(PartitionMode::k16x8)];
  constexpr int k8x16 = kModeOffset[static_cast<int>(PartitionMode::k8x16)];
  constexpr int k8x8 = kModeOffset[static_cast<int>(PartitionMode::k8x8)];
  constexpr int k8x4 = kModeOffset[static_cast<int>(PartitionMode::k8x4)];
  constexpr int k4x8 = kModeOffset[static_cast<int>(PartitionMode::k4x8)];
  constexpr int k4x4 = kModeOffset[static_cast<int>(PartitionMode::k4x4)];
  const int w = 2 * r + 1;           // candidates per axis
  const int rows = 2 * r + kMbSize;  // reference rows a chunk touches

  V c[kMbSize];
  for (int y = 0; y < kMbSize; ++y) c[y] = T::cur_row(cur + y * cur_stride);

  u32 best[kEntriesPerMb];
  std::fill(best, best + kEntriesPerMb, ~u32{0});
  V wa[kMaxWindowRows], wb[kMaxWindowRows];
  LaneMin<T> lm;
  const V iota = T::iota();

  // Chunks step by K from dx = -r; the last is pulled back to end at +r.
  for (int x0 = -r;; x0 = std::min(x0 + K, r + 1 - K)) {
    for (int t = 0; t < rows; ++t) {
      T::windows(ref + (t - r) * ref_stride + x0, &wa[t], &wb[t]);
    }
    for (int k = 0; k < kEntriesPerMb; ++k) {
      lm.cost[k] = T::set1(0xFFFF);  // above any partition SAD
      lm.idx[k] = T::zero();
    }
    // Window row t is reference row t - r, so candidate row dy reads the
    // tables from row dy + r. Lane l's index is the candidate's raster
    // position (dy + r) * w + (x0 + l + r).
    for (int dyr = 0; dyr < w; ++dyr) {  // dyr = dy + r
      const V* a = wa + dyr;
      const V* b = wb + dyr;
      const V cand = T::add(T::set1(dyr * w + x0 + r), iota);
      V left = T::zero(), right = T::zero(), top = T::zero();
      for (int p = 0; p < 2; ++p) {  // pairs of 4-row bands
        V g0[4], g1[4];
        band_sads<T>(a + 8 * p, b + 8 * p, c + 8 * p, g0);
        band_sads<T>(a + 8 * p + 4, b + 8 * p + 4, c + 8 * p + 4, g1);
        for (int bx = 0; bx < 4; ++bx) {
          lm.take(k4x4 + 8 * p + bx, g0[bx], cand);
          lm.take(k4x4 + 8 * p + 4 + bx, g1[bx], cand);
          lm.take(k4x8 + 4 * p + bx, T::add(g0[bx], g1[bx]), cand);
        }
        const V h00 = T::add(g0[0], g0[1]), h01 = T::add(g0[2], g0[3]);
        const V h10 = T::add(g1[0], g1[1]), h11 = T::add(g1[2], g1[3]);
        lm.take(k8x4 + 4 * p + 0, h00, cand);
        lm.take(k8x4 + 4 * p + 1, h01, cand);
        lm.take(k8x4 + 4 * p + 2, h10, cand);
        lm.take(k8x4 + 4 * p + 3, h11, cand);
        const V q0 = T::add(h00, h10), q1 = T::add(h01, h11);
        lm.take(k8x8 + 2 * p + 0, q0, cand);
        lm.take(k8x8 + 2 * p + 1, q1, cand);
        const V half = T::add(q0, q1);
        lm.take(k16x8 + p, half, cand);
        if (p == 0) {
          left = q0;
          right = q1;
          top = half;
        } else {
          lm.take(k8x16 + 0, T::add(left, q0), cand);
          lm.take(k8x16 + 1, T::add(right, q1), cand);
          lm.take(k16x16, T::add(top, half), cand);
        }
      }
    }
    for (int k = 0; k < kEntriesPerMb; ++k) {
      best[k] = std::min(best[k], T::min_key(lm.cost[k], lm.idx[k]));
    }
    if (x0 + K - 1 >= r) break;
  }

  for (int k = 0; k < kEntriesPerMb; ++k) {
    const int i = static_cast<int>(best[k] & 0xFFFF);
    out->entries[k].cost = best[k] >> 16;
    out->entries[k].mv = Mv{static_cast<i16>((i % w - r) * kSubPel),
                            static_cast<i16>((i / w - r) * kSubPel)};
  }
}

}  // namespace

FEVES_AVX2_FN void fsbm_mb_avx2(const u8* cur, std::ptrdiff_t cur_stride,
                                const u8* ref, std::ptrdiff_t ref_stride,
                                int range, MbMotion* out) {
  if (range < Ymm::kLanes / 2) {
    fsbm_chunks<Xmm>(cur, cur_stride, ref, ref_stride, range, out);
  } else {
    fsbm_chunks<Ymm>(cur, cur_stride, ref, ref_stride, range, out);
  }
}

namespace interp {

namespace {

FEVES_AVX2_FN inline u8 clip255(int v) {
  return static_cast<u8>(std::clamp(v, 0, 255));
}

/// Un-normalized 6-tap over 16 i16 lanes (same shift decomposition as SSE2).
FEVES_AVX2_FN inline __m256i tap6_epi16_256(__m256i a, __m256i b, __m256i c,
                                            __m256i d, __m256i e, __m256i f) {
  const __m256i cd = _mm256_add_epi16(c, d);
  const __m256i be = _mm256_add_epi16(b, e);
  __m256i t = _mm256_add_epi16(a, f);
  t = _mm256_add_epi16(
      t, _mm256_add_epi16(_mm256_slli_epi16(cd, 4), _mm256_slli_epi16(cd, 2)));
  return _mm256_sub_epi16(t, _mm256_add_epi16(_mm256_slli_epi16(be, 2), be));
}

/// 16 bytes of u8 widened to 16 in-order i16 lanes.
FEVES_AVX2_FN inline __m256i widen16(const u8* p) {
  return _mm256_cvtepu8_epi16(loadu128(p));
}

/// Saturating u8 pack of 16 in-order i16 lanes back to 16 in-order bytes.
FEVES_AVX2_FN inline __m128i pack16(__m256i v) {
  const __m256i p = _mm256_packus_epi16(v, v);
  return _mm256_castsi256_si128(_mm256_permute4x64_epi64(p, 0xD8));
}

FEVES_AVX2_FN void htap_row_avx2(const u8* row, i16* out, int n) {
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    storeu256(out + x,
              tap6_epi16_256(widen16(row + x - 2), widen16(row + x - 1),
                             widen16(row + x), widen16(row + x + 1),
                             widen16(row + x + 2), widen16(row + x + 3)));
  }
  for (; x < n; ++x) {
    out[x] = static_cast<i16>(row[x - 2] - 5 * row[x - 1] + 20 * row[x] +
                              20 * row[x + 1] - 5 * row[x + 2] + row[x + 3]);
  }
}

FEVES_AVX2_FN void half_row_avx2(const i16* in, u8* out, int n) {
  const __m256i k16 = _mm256_set1_epi16(16);
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    const __m256i v =
        _mm256_srai_epi16(_mm256_add_epi16(loadu256(in + x), k16), 5);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x), pack16(v));
  }
  for (; x < n; ++x) out[x] = clip255((in[x] + 16) >> 5);
}

FEVES_AVX2_FN void vtap_half_row_avx2(const u8* const rows[6], u8* out,
                                      int n) {
  const __m256i k16 = _mm256_set1_epi16(16);
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    const __m256i t = tap6_epi16_256(
        widen16(rows[0] + x), widen16(rows[1] + x), widen16(rows[2] + x),
        widen16(rows[3] + x), widen16(rows[4] + x), widen16(rows[5] + x));
    const __m256i v = _mm256_srai_epi16(_mm256_add_epi16(t, k16), 5);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x), pack16(v));
  }
  for (; x < n; ++x) {
    const int v = rows[0][x] - 5 * rows[1][x] + 20 * rows[2][x] +
                  20 * rows[3][x] - 5 * rows[4][x] + rows[5][x];
    out[x] = clip255((v + 16) >> 5);
  }
}

FEVES_AVX2_FN void jrow_avx2(const i16* const h[6], u8* out, int n) {
  const __m256i c1 = _mm256_set1_epi16(1);
  const __m256i c5 = _mm256_set1_epi16(-5);
  const __m256i c20 = _mm256_set1_epi16(20);
  const __m256i k512 = _mm256_set1_epi32(512);
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    const __m256i a = loadu256(h[0] + x);
    const __m256i b = loadu256(h[1] + x);
    const __m256i c = loadu256(h[2] + x);
    const __m256i d = loadu256(h[3] + x);
    const __m256i e = loadu256(h[4] + x);
    const __m256i f = loadu256(h[5] + x);
    // PMADDWD pairs of symmetric taps; unpack/pack are lane-local on AVX2,
    // so composing unpacklo/hi + packs keeps lanes in order.
    __m256i lo = _mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(_mm256_unpacklo_epi16(a, f), c1),
            _mm256_madd_epi16(_mm256_unpacklo_epi16(b, e), c5)),
        _mm256_madd_epi16(_mm256_unpacklo_epi16(c, d), c20));
    __m256i hi = _mm256_add_epi32(
        _mm256_add_epi32(
            _mm256_madd_epi16(_mm256_unpackhi_epi16(a, f), c1),
            _mm256_madd_epi16(_mm256_unpackhi_epi16(b, e), c5)),
        _mm256_madd_epi16(_mm256_unpackhi_epi16(c, d), c20));
    lo = _mm256_srai_epi32(_mm256_add_epi32(lo, k512), 10);
    hi = _mm256_srai_epi32(_mm256_add_epi32(hi, k512), 10);
    const __m256i v = _mm256_packs_epi32(lo, hi);  // lossless: [-544, 544]
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x), pack16(v));
  }
  for (; x < n; ++x) {
    const int jj = h[0][x] - 5 * h[1][x] + 20 * h[2][x] + 20 * h[3][x] -
                   5 * h[4][x] + h[5][x];
    out[x] = clip255((jj + 512) >> 10);
  }
}

FEVES_AVX2_FN void avg_row_avx2(const u8* a, const u8* b, u8* out, int n) {
  int x = 0;
  for (; x + 32 <= n; x += 32) {
    storeu256(out + x, _mm256_avg_epu8(loadu256(a + x), loadu256(b + x)));
  }
  for (; x < n; ++x) out[x] = static_cast<u8>((a[x] + b[x] + 1) >> 1);
}

}  // namespace

const RowKernels& rows_avx2() {
  static const RowKernels k = {&htap_row_avx2, &half_row_avx2,
                               &vtap_half_row_avx2, &jrow_avx2, &avg_row_avx2};
  return k;
}

}  // namespace interp

#else  // !FEVES_CAN_AVX2: link-satisfying forwards, never selected at runtime.

void sad_grid_avx2(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]) {
  sad_grid_simd(cur, cur_stride, ref, ref_stride, out);
}

u32 sad_block_avx2(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height) {
  return sad_block_simd(a, stride_a, b, stride_b, width, height);
}

void fsbm_mb_avx2(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                  std::ptrdiff_t ref_stride, int range, MbMotion* out) {
  fsbm_mb(&sad_grid_simd, cur, cur_stride, ref, ref_stride, range, out);
}

namespace interp {
const RowKernels& rows_avx2() { return rows_sse2(); }
}  // namespace interp

#endif

}  // namespace feves
