#include "core/collaborative_encoder.hpp"

#include "codec/bitstream.hpp"
#include "codec/interpolate.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace feves {
namespace {

EncoderConfig small_config(int refs = 2) {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = refs;
  return cfg;
}

SyntheticConfig scene(const EncoderConfig& cfg, int frames) {
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = frames;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.seed = 99;
  return sc;
}

/// Shrinks a preset system so the real executor runs quickly while keeping
/// the CPU + accelerators structure (speeds are irrelevant to correctness).
PlatformTopology test_topo(int accels) {
  PlatformTopology t;
  t.devices.push_back(preset_cpu_nehalem());
  for (int i = 0; i < accels; ++i) {
    auto g = preset_gpu_fermi();
    g.name = "GPU#" + std::to_string(i);
    t.devices.push_back(g);
  }
  return t;
}

std::vector<Frame420> load_frames(const EncoderConfig& cfg, int count) {
  SyntheticSequence seq(scene(cfg, count));
  std::vector<Frame420> frames;
  for (int f = 0; f < count; ++f) {
    frames.emplace_back(cfg.width, cfg.height);
    EXPECT_TRUE(seq.read_frame(f, frames.back()));
  }
  return frames;
}

/// Encodes with the single-device reference encoder, returning the per-
/// frame reconstructions and the bitstream.
std::vector<Frame420> reference_encode(const EncoderConfig& cfg,
                                       const std::vector<Frame420>& frames,
                                       std::vector<u8>* bits) {
  RefList refs(cfg.num_ref_frames);
  std::vector<Frame420> recons;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    auto pic = encode_frame_reference(cfg, frames[f], refs,
                                      static_cast<int>(f), bits);
    recons.push_back(pic->recon);
    refs.push_front(std::move(pic));
  }
  return recons;
}

class CollaborativeBitExact
    : public ::testing::TestWithParam<std::tuple<int, SchedulingPolicy>> {};

TEST_P(CollaborativeBitExact, MatchesReferenceEncoder) {
  // THE correctness property of the framework: no matter how many devices
  // or which scheduling policy, the collaborative reconstruction and
  // bitstream equal the single-device reference bit-for-bit.
  const auto [num_accels, policy] = GetParam();
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 5);

  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  FrameworkOptions opts;
  opts.policy = policy;
  // On a shared host Algorithm 2 would settle on the CPU alone; pinning R*
  // to the last accelerator keeps the LP's distributions on the
  // accelerator-mirror path.
  if (policy == SchedulingPolicy::kAdaptiveLp) {
    opts.force_rstar_device = num_accels;
  }
  CollaborativeEncoder enc(cfg, test_topo(num_accels), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    enc.encode_frame(frames[f], &bits);
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f << " diverged with " << num_accels
        << " accelerator(s)";
  }
  EXPECT_EQ(bits, ref_bits);
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndPolicies, CollaborativeBitExact,
    ::testing::Values(
        std::tuple{1, SchedulingPolicy::kAdaptiveLp},
        std::tuple{2, SchedulingPolicy::kAdaptiveLp},
        std::tuple{3, SchedulingPolicy::kAdaptiveLp},
        std::tuple{1, SchedulingPolicy::kEquidistant},
        std::tuple{2, SchedulingPolicy::kEquidistant},
        std::tuple{2, SchedulingPolicy::kProportional}));

TEST(Collaborative, MultiRefBitExactAcrossWindowRampUp) {
  const auto cfg = small_config(/*refs=*/3);
  const auto frames = load_frames(cfg, 6);
  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  // Every device runs every frame, so each accelerator mirror's window
  // ramps up from one reference to three.
  FrameworkOptions opts;
  opts.policy = SchedulingPolicy::kEquidistant;
  CollaborativeEncoder enc(cfg, test_topo(2), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    enc.encode_frame(frames[f], &bits);
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_EQ(bits, ref_bits);
}

TEST(Collaborative, CpuCentricRstarBitExact) {
  // Pin the R* block to the host (paper Sec. III-B's CPU-centric variant):
  // the orchestration changes — no MC prefetch transfers, accelerators all
  // follow the GPUi pattern — but the output must not.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 4);
  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  FrameworkOptions opts;
  opts.force_rstar_device = 0;  // the CPU
  CollaborativeEncoder enc(cfg, test_topo(2), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto stats = enc.encode_frame(frames[f], &bits);
    if (f > 0) EXPECT_EQ(stats.dist.rstar_device, 0);
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]));
  }
  EXPECT_EQ(bits, ref_bits);
}

TEST(Collaborative, GpuCentricPinnedToSecondAcceleratorBitExact) {
  // R* pinned to the *second* accelerator: the RF-holder bookkeeping and
  // the GPU1-vs-GPUi role split must still produce identical output.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 4);
  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  FrameworkOptions opts;
  opts.force_rstar_device = 2;
  CollaborativeEncoder enc(cfg, test_topo(2), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto stats = enc.encode_frame(frames[f], &bits);
    if (f > 0) EXPECT_EQ(stats.dist.rstar_device, 2);
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]));
  }
  EXPECT_EQ(bits, ref_bits);
}

TEST(Collaborative, DecoderReadsCollaborativeBitstream) {
  // End-to-end: collaborative encode -> bitstream -> standalone decode;
  // decoder reconstructions must match the encoder's.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 4);

  CollaborativeEncoder enc(cfg, test_topo(2));
  std::vector<u8> bits;
  std::vector<Frame420> recons;
  for (const auto& frame : frames) {
    enc.encode_frame(frame, &bits);
    recons.push_back(enc.last_recon());
  }

  RefList dec_refs(cfg.num_ref_frames);
  BitReader br(bits);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    auto pic = decode_frame(cfg, br, dec_refs);
    EXPECT_TRUE(frames_bit_exact(pic->recon, recons[f])) << "frame " << f;
    dec_refs.push_front(std::move(pic));
  }
}

TEST(Collaborative, QualityIsReasonable) {
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 4);
  CollaborativeEncoder enc(cfg, test_topo(1));
  for (const auto& frame : frames) {
    enc.encode_frame(frame, nullptr);
    EXPECT_GT(plane_psnr(enc.last_recon().y, frame.y), 27.0);
  }
}

TEST(Collaborative, StatsTrackTauOrdering) {
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 3);
  CollaborativeEncoder enc(cfg, test_topo(2));
  enc.encode_frame(frames[0], nullptr);  // I frame
  for (int f = 1; f < 3; ++f) {
    const auto s = enc.encode_frame(frames[f], nullptr);
    EXPECT_GT(s.tau1_ms, 0.0);
    EXPECT_GE(s.tau2_ms, s.tau1_ms);
    EXPECT_GE(s.total_ms, s.tau2_ms);
    s.dist.check_conservation(cfg.num_mb_rows());
  }
}

// Real-mode devices are multi-core: each one fans its ME/INT/SME rows over
// the shared device pool, and the R* host splits R* by rows and deblocks as
// a wavefront. On SysNFF at 11 MB rows, every device gets at least 3 rows
// of every module, so each device's slice really is split across threads
// while the other lanes use the same pool; the output must still equal the
// single-device reference bit for bit.
TEST(Collaborative, SysNffMultiRowDevicesBitExact) {
  EncoderConfig cfg = small_config();
  cfg.width = 128;
  cfg.height = 176;
  const auto frames = load_frames(cfg, 5);
  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  FrameworkOptions opts;
  opts.policy = SchedulingPolicy::kEquidistant;
  CollaborativeEncoder enc(cfg, topology_by_name("SysNFF"), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto stats = enc.encode_frame(frames[f], &bits);
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
    if (f == 0) continue;  // the I frame has no row distribution
    ASSERT_EQ(stats.dist.num_devices(), 3);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(stats.dist.me[d], 3) << "frame " << f << " device " << d;
      EXPECT_GE(stats.dist.intp[d], 3) << "frame " << f << " device " << d;
      EXPECT_GE(stats.dist.sme[d], 3) << "frame " << f << " device " << d;
    }
  }
  EXPECT_EQ(bits, ref_bits);
}

/// True when every byte of the two planes matches, borders included.
bool planes_equal_with_borders(const PlaneU8& a, const PlaneU8& b) {
  if (!a.same_geometry(b)) return false;
  const int border = a.border();
  const std::size_t bytes = static_cast<std::size_t>(a.width() + 2 * border);
  for (int y = -border; y < a.height() + border; ++y) {
    if (std::memcmp(a.row(y) - border, b.row(y) - border, bytes) != 0) {
      return false;
    }
  }
  return true;
}

// Every writer of canonical SF rows extends their horizontal borders — the
// host's INT rows, the SF_out gathers of accelerator slices, a solo
// accelerator's local publish — and assembly adds only the vertical ones.
// The assembled SF, borders included, must be exactly one whole-frame
// interpolation with every border extended.
class CanonicalSf : public ::testing::TestWithParam<const char*> {};

TEST_P(CanonicalSf, BordersMatchWholeFrameInterpolation) {
  EncoderConfig cfg = small_config();
  cfg.width = 128;
  cfg.height = 176;
  const auto frames = load_frames(cfg, 4);
  FrameworkOptions opts;
  opts.policy = SchedulingPolicy::kEquidistant;
  CollaborativeEncoder enc(cfg, topology_by_name(GetParam()), opts);
  std::vector<u8> bits;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    enc.encode_frame(frames[f], &bits);
    if (f == 0) continue;
    // Frame f interpolated the previous reconstruction, now refs[1].
    const EncoderCheckpoint cp = enc.checkpoint();
    ASSERT_EQ(cp.refs.size(), 2u);
    const RefPicture& rf = *cp.refs[1];
    ASSERT_TRUE(rf.sf_ready);
    SubPelFrame want(cfg.width, cfg.height, rf.sf.phases[0].border());
    run_interpolation_rows(rf.recon.y, 0, cfg.num_mb_rows(), want);
    extend_subpel_borders(want);
    for (int ph = 0; ph < kSubPel * kSubPel; ++ph) {
      ASSERT_TRUE(planes_equal_with_borders(rf.sf.phases[ph], want.phases[ph]))
          << GetParam() << ", frame " << f << ", phase " << ph;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SysNffAndSoloAccelerator, CanonicalSf,
                         ::testing::Values("SysNFF", "GPU_F"));

}  // namespace
}  // namespace feves
