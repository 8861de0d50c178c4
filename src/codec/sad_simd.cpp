// SSE2 tier of the SAD kernel library (the paper's SSE4.2/AVX/AVX2
// Parallel Modules variants, Sec. III-B1). The preprocessor guard below is
// only about whether this TU *can be compiled* for the target; whether the
// tier *runs* is decided at runtime by the kernel registry's CPUID
// resolution (codec/kernels.hpp) — on non-x86 targets the stubs forward to
// the scalar tier and the registry never selects them.
#include "codec/sad.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define FEVES_CAN_SSE2 1
#include <emmintrin.h>
#endif

namespace feves {

#if FEVES_CAN_SSE2

namespace {

/// |a - b| per byte without a dedicated instruction: saturating subtract
/// both ways and OR (one side is always zero).
inline __m128i absdiff_u8(__m128i a, __m128i b) {
  return _mm_or_si128(_mm_subs_epu8(a, b), _mm_subs_epu8(b, a));
}

inline u32 hsum_sad(__m128i acc) {
  return static_cast<u32>(_mm_cvtsi128_si64(acc)) +
         static_cast<u32>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
}

inline __m128i load32(const u8* p) {
  int v = 0;
  std::memcpy(&v, p, sizeof v);
  return _mm_cvtsi32_si128(v);
}

/// 16 / W rows of a W-wide block packed into one register, reading exactly
/// W bytes per row: one 16-wide row, two 8-wide rows, or four 4-wide rows.
template <int W>
inline __m128i pack_rows(const u8* p, std::ptrdiff_t stride) {
  if constexpr (W == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  } else if constexpr (W == 8) {
    return _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + stride)));
  } else {
    static_assert(W == 4, "partition blocks are 4, 8 or 16 wide");
    return _mm_unpacklo_epi64(
        _mm_unpacklo_epi32(load32(p), load32(p + stride)),
        _mm_unpacklo_epi32(load32(p + 2 * stride), load32(p + 3 * stride)));
  }
}

/// Fixed-shape probe batch: the current block is packed into registers once
/// and each candidate costs H * W / 16 PSADBWs.
template <int W, int H>
void probe_sse2(const u8* cur, std::ptrdiff_t cur_stride,
                const u8* const* cands, std::ptrdiff_t ref_stride, int count,
                u32* sads) {
  constexpr int kRowsPerReg = 16 / W;
  constexpr int kRegs = H / kRowsPerReg;
  __m128i c[kRegs];
  for (int i = 0; i < kRegs; ++i) {
    c[i] = pack_rows<W>(cur + i * kRowsPerReg * cur_stride, cur_stride);
  }
  for (int n = 0; n < count; ++n) {
    const u8* p = cands[n];
    __m128i acc = _mm_sad_epu8(c[0], pack_rows<W>(p, ref_stride));
    for (int i = 1; i < kRegs; ++i) {
      acc = _mm_add_epi64(
          acc, _mm_sad_epu8(c[i], pack_rows<W>(p + i * kRowsPerReg * ref_stride,
                                               ref_stride)));
    }
    sads[n] = hsum_sad(acc);
  }
}

}  // namespace

void sad_grid_simd(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i ones16 = _mm_set1_epi16(1);

  for (int by = 0; by < 4; ++by) {
    // Per-column 16-bit accumulators over the 4 rows of this sub-block
    // band (max 4 * 255 = 1020 per column: no overflow).
    __m128i acc_lo = zero;  // columns 0..7
    __m128i acc_hi = zero;  // columns 8..15
    for (int y = 0; y < 4; ++y) {
      const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          cur + (by * 4 + y) * cur_stride));
      const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          ref + (by * 4 + y) * ref_stride));
      const __m128i d = absdiff_u8(c, r);
      acc_lo = _mm_add_epi16(acc_lo, _mm_unpacklo_epi8(d, zero));
      acc_hi = _mm_add_epi16(acc_hi, _mm_unpackhi_epi8(d, zero));
    }
    // Horizontal reduce groups of 4 columns: madd pairs columns, leaving
    // [c0+c1, c2+c3, c4+c5, c6+c7] as 32-bit lanes.
    alignas(16) u32 pairs_lo[4], pairs_hi[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(pairs_lo),
                    _mm_madd_epi16(acc_lo, ones16));
    _mm_store_si128(reinterpret_cast<__m128i*>(pairs_hi),
                    _mm_madd_epi16(acc_hi, ones16));
    out[by * 4 + 0] = static_cast<u16>(pairs_lo[0] + pairs_lo[1]);
    out[by * 4 + 1] = static_cast<u16>(pairs_lo[2] + pairs_lo[3]);
    out[by * 4 + 2] = static_cast<u16>(pairs_hi[0] + pairs_hi[1]);
    out[by * 4 + 3] = static_cast<u16>(pairs_hi[2] + pairs_hi[3]);
  }
}

u32 sad_block_simd(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height) {
  // Vector chunks cover any width: 16-wide PSADBW spans, then an 8-wide
  // span, then a scalar tail — so every partition shape SME probes (and
  // any odd width a future caller brings) is handled by one entry point.
  u32 total = 0;
  int x = 0;
  for (; x + 16 <= width; x += 16) {
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < height; ++y) {
      const __m128i va = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a + y * stride_a + x));
      const __m128i vb = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b + y * stride_b + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    }
    total += hsum_sad(acc);
  }
  if (x + 8 <= width) {
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < height; ++y) {
      const __m128i va = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(a + y * stride_a + x));
      const __m128i vb = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(b + y * stride_b + x));
      acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    }
    total += static_cast<u32>(_mm_cvtsi128_si64(acc));
    x += 8;
  }
  if (x < width) {
    total += sad_block_scalar(a + x, stride_a, b + x, stride_b, width - x,
                              height);
  }
  return total;
}

#else  // !FEVES_CAN_SSE2: link-satisfying stubs, never selected at runtime.

void sad_grid_simd(const u8* cur, std::ptrdiff_t cur_stride, const u8* ref,
                   std::ptrdiff_t ref_stride, u16 out[16]) {
  sad_grid_16x16_kernel(SimdTier::kScalar)(cur, cur_stride, ref, ref_stride,
                                           out);
}

u32 sad_block_simd(const u8* a, std::ptrdiff_t stride_a, const u8* b,
                   std::ptrdiff_t stride_b, int width, int height) {
  return sad_block_scalar(a, stride_a, b, stride_b, width, height);
}

namespace {

template <int W, int H>
void probe_sse2(const u8* cur, std::ptrdiff_t cur_stride,
                const u8* const* cands, std::ptrdiff_t ref_stride, int count,
                u32* sads) {
  for (int i = 0; i < count; ++i) {
    sads[i] = sad_block_scalar(cur, cur_stride, cands[i], ref_stride, W, H);
  }
}

}  // namespace

#endif

/// SSE2 probe batches per partition shape, in kPartitionGeometry order.
const std::array<SadProbeFn, kNumPartitionModes>& sad_probes_sse2() {
  static constexpr std::array<SadProbeFn, kNumPartitionModes> kProbes = {
      &probe_sse2<16, 16>, &probe_sse2<16, 8>, &probe_sse2<8, 16>,
      &probe_sse2<8, 8>,   &probe_sse2<8, 4>,  &probe_sse2<4, 8>,
      &probe_sse2<4, 4>};
  return kProbes;
}

}  // namespace feves
