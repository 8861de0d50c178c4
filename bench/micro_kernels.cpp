// Per-kernel roofline microbenches of the Parallel Modules library: every
// vectorized kernel family (SAD grid/block, FSBM row, SME row,
// interpolation, transform, deblocking, MC) timed at every tier the registry
// can resolve
// on this machine, with the roofline coordinates that make the numbers
// interpretable — bytes and arithmetic ops per item, so items/s converts to
// GB/s and Gop/s against the machine's ceilings. Not a figure from the
// paper: these verify that the SIMD tiers actually pay (speedup_vs_scalar
// in the JSON) and that the analytical cost model's shape (ME dominated by
// SA area, INT by output pixels) matches the real kernels.
//
// CLI: --smoke (CI-friendly durations), --json <path> (flat JSON artifact;
// keys like "interp_avx2_mitems_s", "sad_grid_avx2_speedup").
#include "bench/bench_util.hpp"
#include "codec/deblock.hpp"
#include "codec/interpolate.hpp"
#include "codec/mc.hpp"
#include "codec/me.hpp"
#include "codec/sad.hpp"
#include "codec/sme.hpp"
#include "codec/transform.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace feves {
namespace {

/// Compiler barrier: keeps result buffers live without a store of their own.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

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

/// Times `fn` until the measured span is long enough to trust, returning
/// ns per call. Reps auto-scale, so one target serves ns-scale transform
/// calls and ms-scale full-search rows alike.
template <typename F>
double measure_ns(F&& fn, bool smoke) {
  const double target_ms = smoke ? 12.0 : 120.0;
  fn();  // warm caches and the dispatch path
  long reps = 1;
  for (;;) {
    Timer t;
    for (long i = 0; i < reps; ++i) fn();
    const double ms = t.elapsed_ms();
    if (ms >= target_ms || reps >= (1L << 30)) return ms * 1e6 / reps;
    const double scale = ms <= 0.01 ? 16.0 : target_ms * 1.2 / ms;
    reps = static_cast<long>(reps * scale) + 1;
  }
}

/// Prints one (name, tier) row and emits its JSON keys; `scalar_ns` is the
/// scalar row of the same name (0 until measured).
void report_row(bench::JsonReport& json, const char* name, SimdTier tier,
                double items, double ns, double scalar_ns) {
  const double mitems_s = items / (ns * 1e-9) / 1e6;
  const double speedup = scalar_ns > 0.0 ? scalar_ns / ns : 0.0;
  std::printf("  %-10s %-8s %12.1f ns/call %10.1f Mitems/s %7.2fx\n", name,
              tier_name(tier), ns, mitems_s, speedup);
  const std::string key = std::string(name) + "_" + tier_name(tier);
  json.add(key + "_ns", ns);
  json.add(key + "_mitems_s", mitems_s);
  json.add(key + "_speedup", speedup);
}

/// One kernel family's report: prints a row per tier and emits the JSON
/// keys, folding in the roofline coordinates and the speedup vs scalar.
class KernelReport {
 public:
  KernelReport(bench::JsonReport& json, KernelId id, double items_per_call,
               double bytes_per_item, double ops_per_item)
      : json_(json), id_(id), items_(items_per_call) {
    const std::string k = kernel_name(id);
    json_.add(k + "_bytes_per_item", bytes_per_item);
    json_.add(k + "_ops_per_item", ops_per_item);
    json_.add(k + "_auto_tier", tier_name(max_tier(id)));
  }

  void add(SimdTier tier, double ns_per_call) {
    if (tier == SimdTier::kScalar) scalar_ns_ = ns_per_call;
    report_row(json_, kernel_name(id_), tier, items_, ns_per_call,
               scalar_ns_);
  }

 private:
  bench::JsonReport& json_;
  KernelId id_;
  double items_;
  double scalar_ns_ = 0.0;
};

/// Tiers worth a row: those the registry resolves to themselves on this
/// machine (a degraded request would just re-measure a lower tier).
std::vector<SimdTier> tiers_of(KernelId id, bool with_blocked) {
  std::vector<SimdTier> out{SimdTier::kScalar};
  if (with_blocked) out.push_back(SimdTier::kBlocked);
  for (SimdTier t : {SimdTier::kSse2, SimdTier::kAvx2}) {
    if (resolve_tier(id, t) == t) out.push_back(t);
  }
  return out;
}

void bench_sad(bench::JsonReport& json, bool smoke) {
  auto cur = random_plane(64, 64, 8, 1);
  auto ref = random_plane(64, 64, 8, 2);

  // 256 pixel-SADs per grid call: 2 bytes loaded and ~3 integer ops
  // (subtract, abs, accumulate) per item.
  KernelReport grid(json, KernelId::kSadGrid, 256, 2.0, 3.0);
  for (SimdTier t : tiers_of(KernelId::kSadGrid, /*with_blocked=*/false)) {
    const SadGrid16Fn fn = sad_grid_16x16_kernel(t);
    u16 out[16];
    grid.add(t, measure_ns(
                    [&] {
                      fn(cur.row(8), cur.stride(), ref.row(9) + 1,
                         ref.stride(), out);
                      keep(out);
                    },
                    smoke));
  }

  KernelReport block(json, KernelId::kSadBlock, 256, 2.0, 3.0);
  for (SimdTier t : tiers_of(KernelId::kSadBlock, /*with_blocked=*/false)) {
    const SadBlockFn fn = sad_block_kernel(t);
    block.add(t, measure_ns(
                     [&] {
                       volatile u32 s = fn(cur.row(8), cur.stride(),
                                           ref.row(9) + 1, ref.stride(), 16,
                                           16);
                       (void)s;
                     },
                     smoke));
  }
}

void bench_me_row(bench::JsonReport& json, bool smoke) {
  const int w = 160, h = 32;
  const int range = smoke ? 8 : 16;
  auto cur = random_plane(w, h, range + 24, 3);
  auto ref = random_plane(w, h, range + 24, 4);
  MotionField field(static_cast<std::size_t>((w / 16) * (h / 16)));

  // The search is inclusive on both ends: (2R+1)^2 candidates per MB, each
  // touching all 256 macroblock pixels (matches run_me_rows exactly —
  // the old (2R)^2 accounting under-counted items by ~12% at R=8).
  const double cands = double(2 * range + 1) * (2 * range + 1);
  const double items = (w / 16) * cands * 256.0;
  json.add("me_row_bytes_per_item", 2.0);
  json.add("me_row_ops_per_item", 3.0);
  std::printf("  [me_row: %d MBs x (2*%d+1)^2 candidates; avx2 is the "
              "fused kernel]\n",
              w / 16, range);
  MeParams params;
  params.search_range = range;
  double scalar_ns = 0.0;
  for (SimdTier t : tiers_of(KernelId::kSadGrid, /*with_blocked=*/false)) {
    params.tier = t;
    const double ns = measure_ns(
        [&] {
          run_me_rows(cur, ref, w / 16, 0, 1, params, field.data());
          keep(field.data());
        },
        smoke);
    if (t == SimdTier::kScalar) scalar_ns = ns;
    report_row(json, "me_row", t, items, ns, scalar_ns);
  }
}

void bench_sme_row(bench::JsonReport& json, bool smoke) {
  const int w = 160, h = 48, border = 32;
  const int range = 2;  // the encoder's default quarter-pel refinement
  auto cur = random_plane(w, h, border, 13);
  auto ref = random_plane(w, h, border, 14);
  SubPelFrame sf(w, h, border);
  run_interpolation_rows(ref, 0, h / 16, sf);
  extend_subpel_borders(sf);
  // Refine the middle MB row from ME-like integer vectors (+-16 pixels).
  const int mbw = w / 16;
  MotionField base(static_cast<std::size_t>(mbw * (h / 16)));
  Rng rng(15);
  for (MbMotion& mb : base) {
    for (MotionEntry& e : mb.entries) {
      e.mv = Mv{static_cast<i16>(4 * rng.uniform_int(-16, 16)),
                static_cast<i16>(4 * rng.uniform_int(-16, 16))};
    }
  }
  MotionField field = base;

  // Items are probe pixels: each of the 41 partition blocks probes
  // (2r+1)^2 positions over its own area, so 7 * 256 pixels per MB per
  // probe position. 2 bytes loaded and ~3 ops per item, like the SADs.
  const double probes = double(2 * range + 1) * (2 * range + 1);
  const double items = mbw * probes * kNumPartitionModes * 256.0;
  json.add("sme_row_bytes_per_item", 2.0);
  json.add("sme_row_ops_per_item", 3.0);
  std::printf("  [sme_row: %d MBs x 41 blocks x (2*%d+1)^2 probes]\n", mbw,
              range);
  SmeParams params;
  params.refine_range = range;
  double scalar_ns = 0.0;
  for (SimdTier t : tiers_of(KernelId::kSadBlock, /*with_blocked=*/false)) {
    params.tier = t;
    const double ns = measure_ns(
        [&] {
          std::copy(base.begin() + mbw, base.begin() + 2 * mbw,
                    field.begin() + mbw);
          run_sme_rows(cur, sf, mbw, 1, 2, params, field.data());
          keep(field.data());
        },
        smoke);
    if (t == SimdTier::kScalar) scalar_ns = ns;
    report_row(json, "sme_row", t, items, ns, scalar_ns);
  }
}

void bench_interp(bench::JsonReport& json, bool smoke) {
  const int w = 320, h = 32;
  auto ref = random_plane(w, h, 24, 5);
  SubPelFrame sf(w, h, 24);

  // Items are produced sub-pel pixels: 16 phase planes x w x 16 per MB row.
  // Per item the row engine writes 1 byte and reads ~1.3 (htap rows are
  // shared across the 16 phases); ~6 adds/shifts amortized per output.
  KernelReport rep(json, KernelId::kInterp, double(w) * 16 * 16, 2.3, 6.0);
  for (SimdTier t : tiers_of(KernelId::kInterp, /*with_blocked=*/true)) {
    rep.add(t, measure_ns(
                   [&] {
                     run_interpolation_rows(ref, 0, 1, sf, t);
                     keep(sf.phases[5].row(0));
                   },
                   smoke));
  }
}

void bench_transform(bench::JsonReport& json, bool smoke) {
  // A batch of blocks so the per-call dispatch cost amortizes like in the
  // encoder's TQ loop. Inverse inputs are realistic dequantized coeffs.
  constexpr int kBlocks = 64;
  Rng rng(6);
  i16 res[kBlocks][16];
  i32 deq[kBlocks][16];
  for (int b = 0; b < kBlocks; ++b) {
    i16 coeffs[16], levels[16];
    for (auto& v : res[b]) v = static_cast<i16>(rng.uniform_int(-255, 255));
    forward_transform_4x4(res[b], coeffs);
    quantize_4x4(coeffs, 28, false, levels);
    dequantize_4x4(levels, 28, deq[b]);
  }

  // 16 samples per 4x4: ~8 add/sub/shift ops each (two butterfly passes),
  // 2 bytes read + 2 written (i16 in/out; inverse reads i32 -> 6 bytes).
  KernelReport fwd(json, KernelId::kTransform, kBlocks * 16.0, 4.0, 8.0);
  std::printf("  [transform: forward / %d-block batches]\n", kBlocks);
  for (SimdTier t : tiers_of(KernelId::kTransform, /*with_blocked=*/false)) {
    const Fwd4x4Fn fn = forward_transform_4x4_kernel(t);
    i16 out[16];
    fwd.add(t, measure_ns(
                   [&] {
                     for (int b = 0; b < kBlocks; ++b) fn(res[b], out);
                     keep(out);
                   },
                   smoke));
  }
  std::printf("  [transform: inverse]\n");
  double scalar_ns = 0.0;
  for (SimdTier t : tiers_of(KernelId::kTransform, /*with_blocked=*/false)) {
    const Inv4x4Fn fn = inverse_transform_4x4_kernel(t);
    i16 out[16];
    const double ns = measure_ns(
        [&] {
          for (int b = 0; b < kBlocks; ++b) fn(deq[b], out);
          keep(out);
        },
        smoke);
    if (t == SimdTier::kScalar) scalar_ns = ns;
    report_row(json, "itransform", t, kBlocks * 16.0, ns, scalar_ns);
  }
}

void bench_deblock(bench::JsonReport& json, bool smoke) {
  const int mbw = 20, mbh = 2;
  const auto pristine = random_plane(mbw * 16, mbh * 16, 8, 9);
  auto luma = pristine;
  std::vector<Block4x4Info> blocks(
      static_cast<std::size_t>(mbw * 4 * mbh * 4));
  Rng rng(10);
  for (auto& b : blocks) {
    b.nonzero = rng.uniform01() < 0.4;
    b.mv = Mv{static_cast<i16>(rng.uniform_int(-16, 16)),
              static_cast<i16>(rng.uniform_int(-16, 16))};
  }
  DeblockParams params;
  params.qp = 28;

  // Items are luma pixels. The timed body re-copies the pristine frame
  // (deblocking mutates in place); the copy is identical for every tier, so
  // speedups are diluted but comparable. ~6 bytes and ~12 ops per pixel
  // across the 4 luma edges (heavily mask-dependent; treat as shape).
  KernelReport rep(json, KernelId::kDeblock, double(mbw) * 16 * mbh * 16, 6.0,
                   12.0);
  for (SimdTier t : tiers_of(KernelId::kDeblock, /*with_blocked=*/false)) {
    params.tier = t;
    rep.add(t, measure_ns(
                   [&] {
                     luma = pristine;
                     run_deblock_frame(luma, mbw, mbh, blocks.data(), params);
                     keep(luma.row(0));
                   },
                   smoke));
  }
}

void bench_mc(bench::JsonReport& json, bool smoke) {
  const int w = 64, h = 64;
  auto ref = random_plane(w, h, 24, 11);
  auto cur = random_plane(w, h, 24, 12);
  SubPelFrame sf(w, h, 24);
  run_interpolation_rows(ref, 0, h / 16, sf);
  extend_subpel_borders(sf);
  std::vector<const SubPelFrame*> sfs{&sf};

  MbModeChoice choice;
  choice.mode = PartitionMode::k16x16;
  choice.blocks[0].mv = Mv{6, -5};  // quarter-pel phase (2,3), off-grid
  choice.blocks[0].ref_idx = 0;

  // 256 prediction+residual pairs per MB: 2 bytes read, 3 written (pred u8
  // + res i16), one subtract each.
  KernelReport rep(json, KernelId::kMc, 256.0, 5.0, 1.0);
  u8 pred[kMbSize * kMbSize];
  i16 res[kMbSize * kMbSize];
  for (SimdTier t : tiers_of(KernelId::kMc, /*with_blocked=*/false)) {
    rep.add(t, measure_ns(
                   [&] {
                     motion_compensate_luma_mb(cur, sfs, choice, 1, 1, pred,
                                               res, t);
                     keep(res);
                   },
                   smoke));
  }
}

}  // namespace
}  // namespace feves

int main(int argc, char** argv) {
  using namespace feves;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::JsonReport json;

  const CpuFeatures& cpu = cpu_features();
  bench::print_header(
      "micro_kernels: per-kernel roofline (items/s by SIMD tier)",
      "bytes/ops per item turn Mitems/s into GB/s and Gop/s; speedup is vs "
      "the scalar oracle of the same kernel");
  std::printf("  cpu: sse2=%d avx2=%d\n", cpu.sse2 ? 1 : 0, cpu.avx2 ? 1 : 0);
  json.add("cpu_sse2", cpu.sse2 ? 1.0 : 0.0);
  json.add("cpu_avx2", cpu.avx2 ? 1.0 : 0.0);

  bench_sad(json, args.smoke);
  bench_me_row(json, args.smoke);
  bench_sme_row(json, args.smoke);
  bench_interp(json, args.smoke);
  bench_transform(json, args.smoke);
  bench_deblock(json, args.smoke);
  bench_mc(json, args.smoke);

  if (!args.json_path.empty() && !json.write(args.json_path)) return 1;
  return 0;
}
