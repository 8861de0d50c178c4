#include "codec/frame_codec.hpp"

#include "codec/bitstream.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace feves {
namespace {

EncoderConfig small_config() {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  return cfg;
}

SyntheticConfig small_scene(int frames) {
  SyntheticConfig sc;
  sc.width = 96;
  sc.height = 64;
  sc.frames = frames;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.noise_stddev = 1.0;
  sc.seed = 2024;
  return sc;
}

TEST(FrameCodec, IntraFrameReconstructionQuality) {
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(1));
  Frame420 frame(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, frame));

  RefList refs(cfg.num_ref_frames);
  std::vector<u8> bits;
  auto pic = encode_frame_reference(cfg, frame, refs, 0, &bits);
  ASSERT_NE(pic, nullptr);
  // QP 27 intra should land comfortably above 30 dB on synthetic content.
  EXPECT_GT(plane_psnr(pic->recon.y, frame.y), 30.0);
  EXPECT_FALSE(bits.empty());
}

TEST(FrameCodec, InterFrameBeatsIntraBudget) {
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(3));
  Frame420 f0(cfg.width, cfg.height), f1(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, f0));
  ASSERT_TRUE(seq.read_frame(1, f1));

  RefList refs(cfg.num_ref_frames);
  std::vector<u8> bits_i, bits_p;
  refs.push_front(encode_frame_reference(cfg, f0, refs, 0, &bits_i));
  auto p1 = encode_frame_reference(cfg, f1, refs, 1, &bits_p);

  // The P frame predicts from the I reconstruction: it must cost fewer bits
  // than the I frame while reaching reasonable quality.
  EXPECT_LT(bits_p.size(), bits_i.size());
  EXPECT_GT(plane_psnr(p1->recon.y, f1.y), 28.0);
}

TEST(FrameCodec, EncodeSeveralFramesPsnrStaysStable) {
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(6));
  RefList refs(cfg.num_ref_frames);
  Frame420 frame(cfg.width, cfg.height);

  double min_psnr = 1e9;
  for (int f = 0; f < 6; ++f) {
    ASSERT_TRUE(seq.read_frame(f, frame));
    auto pic = encode_frame_reference(cfg, frame, refs, f, nullptr);
    min_psnr = std::min(min_psnr, plane_psnr(pic->recon.y, frame.y));
    refs.push_front(std::move(pic));
  }
  // No drift blow-up across the GOP.
  EXPECT_GT(min_psnr, 27.0);
}

TEST(FrameCodec, RowSlicedModulesMatchWholeFrameBitExactly) {
  // The core distribution-correctness property: splitting ME/INT/SME by MB
  // rows (as the load balancer does across devices) must not change a
  // single reconstructed pixel relative to the single-shot encode.
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(2));
  Frame420 f0(cfg.width, cfg.height), f1(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, f0));
  ASSERT_TRUE(seq.read_frame(1, f1));

  // Whole-frame reference encode of frame 1.
  RefList refs_a(cfg.num_ref_frames);
  refs_a.push_front(encode_frame_reference(cfg, f0, refs_a, 0, nullptr));
  auto whole = encode_frame_reference(cfg, f1, refs_a, 1, nullptr);

  // Sliced encode: same I frame, then hand-driven module slices.
  RefList refs_b(cfg.num_ref_frames);
  refs_b.push_front(encode_frame_reference(cfg, f0, refs_b, 0, nullptr));
  EncodeJob job;
  job.prepare(cfg, f1, {&refs_b.ref(0)}, 1);
  const int rows = cfg.num_mb_rows();
  me_rows(job, 0, 1);
  me_rows(job, 1, rows);
  int_rows(job, 2, rows);
  int_rows(job, 0, 2);
  finish_interpolation(job);
  sme_rows(job, 3, rows);
  sme_rows(job, 0, 3);
  rstar_frame(job);

  EXPECT_TRUE(frames_bit_exact(whole->recon, job.recon->recon));
}

// Rows entropy coded into writers of their own, in any order, then spliced
// behind the header: the frame's bits are write_frame_bitstream's exactly.
// A row left uncoded since prepare() cannot be spliced.
TEST(FrameCodec, SplicedRowBitstreamMatchesSerialWriter) {
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(2));
  Frame420 f0(cfg.width, cfg.height), f1(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, f0));
  ASSERT_TRUE(seq.read_frame(1, f1));
  RefList refs(cfg.num_ref_frames);
  refs.push_front(encode_frame_reference(cfg, f0, refs, 0, nullptr));

  EncodeJob job;
  job.prepare(cfg, f1, {&refs.ref(0)}, 1);
  const int rows = cfg.num_mb_rows();
  me_rows(job, 0, rows);
  int_rows(job, 0, rows);
  finish_interpolation(job);
  sme_rows(job, 0, rows);
  rstar_frame(job);

  BitWriter serial;
  write_frame_bitstream(job, serial);

  for (int y = rows - 1; y >= 0; --y) entropy_rows(job, y, y + 1);
  entropy_rows(job, 1, 2);  // re-coding a row replaces it
  BitWriter spliced;
  splice_frame_bitstream(job, spliced);
  EXPECT_EQ(spliced.bytes(), serial.bytes());

  job.row_bits[2].clear();
  BitWriter missing;
  EXPECT_THROW(splice_frame_bitstream(job, missing), Error);
}

TEST(FrameCodec, ScalarAndBlockedTiersBitExact) {
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(2));
  Frame420 f0(cfg.width, cfg.height), f1(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, f0));
  ASSERT_TRUE(seq.read_frame(1, f1));

  auto encode_with = [&](SimdTier tier) {
    RefList refs(cfg.num_ref_frames);
    refs.push_front(encode_frame_reference(cfg, f0, refs, 0, nullptr));
    EncodeJob job;
    job.prepare(cfg, f1, {&refs.ref(0)}, 1);
    me_rows(job, 0, cfg.num_mb_rows(), tier);
    int_rows(job, 0, cfg.num_mb_rows());
    finish_interpolation(job);
    sme_rows(job, 0, cfg.num_mb_rows());
    rstar_frame(job);
    return std::move(job.recon);
  };

  auto a = encode_with(SimdTier::kScalar);
  auto b = encode_with(SimdTier::kBlocked);
  EXPECT_TRUE(frames_bit_exact(a->recon, b->recon));
}

TEST(FrameCodec, DecoderMatchesEncoderReconstruction) {
  // Full encode -> bitstream -> independent decode; every reconstructed
  // frame must match the encoder's reconstruction bit-for-bit (otherwise
  // the prediction loops would drift apart).
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(5));
  Frame420 frame(cfg.width, cfg.height);

  RefList enc_refs(cfg.num_ref_frames);
  std::vector<u8> bits;
  std::vector<Frame420> enc_recons;
  for (int f = 0; f < 5; ++f) {
    ASSERT_TRUE(seq.read_frame(f, frame));
    auto pic = encode_frame_reference(cfg, frame, enc_refs, f, &bits);
    enc_recons.push_back(pic->recon);  // copy for comparison
    enc_refs.push_front(std::move(pic));
  }

  RefList dec_refs(cfg.num_ref_frames);
  BitReader br(bits);
  for (int f = 0; f < 5; ++f) {
    auto pic = decode_frame(cfg, br, dec_refs);
    EXPECT_TRUE(frames_bit_exact(pic->recon, enc_recons[f]))
        << "frame " << f;
    dec_refs.push_front(std::move(pic));
  }
}

TEST(FrameCodec, MultiReferencePredictionUsesOlderFrames) {
  // Flash a frame: content at t matches t-2, not t-1. With 2 RFs the mode
  // decision must reach for ref_idx 1 somewhere.
  const EncoderConfig cfg = small_config();
  SyntheticSequence seq(small_scene(2));
  Frame420 f0(cfg.width, cfg.height), f1(cfg.width, cfg.height);
  ASSERT_TRUE(seq.read_frame(0, f0));
  ASSERT_TRUE(seq.read_frame(1, f1));

  RefList refs(cfg.num_ref_frames);
  refs.push_front(encode_frame_reference(cfg, f0, refs, 0, nullptr));
  refs.push_front(encode_frame_reference(cfg, f1, refs, 1, nullptr));

  // Encode a copy of frame 0 with both references present.
  EncodeJob job;
  job.prepare(cfg, f0, {&refs.ref(0), &refs.ref(1)}, 2);
  me_rows(job, 0, cfg.num_mb_rows());
  int_rows(job, 0, cfg.num_mb_rows());
  finish_interpolation(job);
  sme_rows(job, 0, cfg.num_mb_rows());
  rstar_frame(job);

  int ref1_blocks = 0;
  for (const MbModeChoice& c : job.choices) {
    const PartitionGeometry& g = geometry(c.mode);
    for (int b = 0; b < g.num_blocks(); ++b) {
      if (c.blocks[b].ref_idx == 1) ++ref1_blocks;
    }
  }
  EXPECT_GT(ref1_blocks, 0) << "older reference never selected";
}

TEST(FrameCodec, JobPrepareValidatesConfig) {
  EncoderConfig cfg = small_config();
  cfg.width = 100;  // not MB aligned
  Frame420 frame(96, 64);
  EncodeJob job;
  EXPECT_THROW(job.prepare(cfg, frame, {}, 0), Error);
}

// Every MB's R* work in a P frame is independent, so R* may be split into
// row ranges run in any order or concurrently (RealBackend::op_rstar runs
// them across the device pool, then the deblocking wavefront). Each such
// split must leave exactly rstar_frame's state: mode choices, coded levels,
// deblocking info and the deblocked Y/U/V reconstruction.
TEST(RStar, RowSplitMatchesWholeFrame) {
  EncoderConfig cfg = small_config();
  cfg.width = 112;  // 7 x 6 MBs: an odd column count
  cfg.height = 96;
  SyntheticConfig sc = small_scene(3);
  sc.width = cfg.width;
  sc.height = cfg.height;
  SyntheticSequence seq(sc);
  Frame420 frame(cfg.width, cfg.height);
  RefList refs(cfg.num_ref_frames);
  for (int f = 0; f < 2; ++f) {
    ASSERT_TRUE(seq.read_frame(f, frame));
    refs.push_front(encode_frame_reference(cfg, frame, refs, f, nullptr));
  }
  ASSERT_TRUE(seq.read_frame(2, frame));

  // The modules before R*, once; every R* variant starts from these fields.
  const int rows = cfg.num_mb_rows();
  const auto prepared = [&](EncodeJob& job) {
    job.prepare(cfg, frame, {&refs.ref(0), &refs.ref(1)}, 2);
  };
  EncodeJob whole;
  prepared(whole);
  me_rows(whole, 0, rows);
  int_rows(whole, 0, rows);
  finish_interpolation(whole);
  sme_rows(whole, 0, rows);
  const std::vector<MotionField> fields = whole.fields;
  rstar_frame(whole);

  const auto expect_same = [&](const EncodeJob& job, const std::string& what) {
    ASSERT_EQ(job.choices.size(), whole.choices.size());
    for (std::size_t mb = 0; mb < whole.choices.size(); ++mb) {
      const MbModeChoice& a = whole.choices[mb];
      const MbModeChoice& b = job.choices[mb];
      ASSERT_EQ(a.mode, b.mode) << what << " MB " << mb;
      ASSERT_EQ(a.cost, b.cost) << what << " MB " << mb;
      for (int k = 0; k < geometry(a.mode).num_blocks(); ++k) {
        ASSERT_EQ(a.blocks[k].mv, b.blocks[k].mv) << what << " MB " << mb;
        ASSERT_EQ(a.blocks[k].ref_idx, b.blocks[k].ref_idx)
            << what << " MB " << mb;
      }
      const MbCoded& ca = whole.coded[mb];
      const MbCoded& cb = job.coded[mb];
      ASSERT_EQ(ca.luma_levels, cb.luma_levels) << what << " MB " << mb;
      ASSERT_EQ(ca.cb_levels, cb.cb_levels) << what << " MB " << mb;
      ASSERT_EQ(ca.cr_levels, cb.cr_levels) << what << " MB " << mb;
      ASSERT_EQ(ca.luma_nonzero, cb.luma_nonzero) << what << " MB " << mb;
      ASSERT_EQ(ca.intra, cb.intra) << what << " MB " << mb;
    }
    ASSERT_EQ(job.dbl_info.size(), whole.dbl_info.size());
    for (std::size_t i = 0; i < whole.dbl_info.size(); ++i) {
      const Block4x4Info& a = whole.dbl_info[i];
      const Block4x4Info& b = job.dbl_info[i];
      ASSERT_TRUE(a.mv == b.mv && a.ref_idx == b.ref_idx &&
                  a.nonzero == b.nonzero && a.intra == b.intra)
          << what << " 4x4 block " << i;
    }
    EXPECT_TRUE(frames_bit_exact(whole.recon->recon, job.recon->recon))
        << what;
  };

  Rng rng(77);
  for (int round = 0; round < 12; ++round) {
    // A random partition of the rows into intervals, run in shuffled order.
    std::vector<std::pair<int, int>> parts;
    for (int b = 0; b < rows;) {
      const int e = static_cast<int>(rng.uniform_int(b + 1, rows));
      parts.emplace_back(b, e);
      b = e;
    }
    for (std::size_t i = parts.size(); i > 1; --i) {
      std::swap(parts[i - 1],
                parts[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<i64>(i) - 1))]);
    }
    EncodeJob split;
    prepared(split);
    split.fields = fields;
    for (const auto& [b, e] : parts) rstar_rows(split, b, e);
    finish_reconstruction(split);
    expect_same(split, "round " + std::to_string(round) + " shuffled");
  }

  // One row per pool task, then the deblocking wavefront on the same pool.
  ThreadPool pool(3);
  for (int round = 0; round < 8; ++round) {
    EncodeJob pooled;
    prepared(pooled);
    pooled.fields = fields;
    pool.parallel_for(0, rows, [&](int y) { rstar_rows(pooled, y, y + 1); });
    finish_reconstruction(pooled, SimdTier::kAuto, &pool);
    expect_same(pooled, "round " + std::to_string(round) + " pooled");
  }
}

}  // namespace
}  // namespace feves
