#include "codec/frame_codec.hpp"

#include "codec/bitstream.hpp"
#include "codec/cavlc.hpp"
#include "codec/interpolate.hpp"
#include "codec/transform.hpp"

#include <algorithm>

namespace feves {

namespace {

constexpr int kCMb = kMbSize / 2;  // chroma MB edge in 4:2:0

/// Luma-to-chroma QP mapping (H.264 Table 8-15, offset 0).
constexpr int kChromaQp[52] = {
    0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16, 17,
    18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 29, 30, 31, 32, 32, 33,
    34, 34, 35, 35, 36, 36, 37, 37, 37, 38, 38, 38, 39, 39, 39, 39};

inline u8 clip255(int v) { return static_cast<u8>(std::clamp(v, 0, 255)); }

/// Extracts a 4x4 sub-block of a row-major WxW array into `out`.
template <int W>
void take4x4(const i16* src, int bx, int by, i16 out[16]) {
  for (int y = 0; y < 4; ++y) {
    const i16* r = src + (by * 4 + y) * W + bx * 4;
    for (int x = 0; x < 4; ++x) out[y * 4 + x] = r[x];
  }
}

/// Transform + quantize one 4x4, returning levels and whether any survive.
/// The kernel is resolved once per process (kAuto against the host CPU):
/// the 4x4 geometry is fixed, so there is nothing per-call to re-decide.
bool tq_4x4(const i16 res[16], int qp, bool intra, i16 levels[16]) {
  static const Fwd4x4Fn kFwd = forward_transform_4x4_kernel(SimdTier::kAuto);
  i16 coeffs[16];
  kFwd(res, coeffs);
  quantize_4x4(coeffs, qp, intra, levels);
  return any_nonzero(levels);
}

/// Dequantize + inverse-transform one 4x4 of levels into a residual block.
void itq_4x4(const i16 levels[16], int qp, i16 res[16]) {
  static const Inv4x4Fn kInv = inverse_transform_4x4_kernel(SimdTier::kAuto);
  i32 coeffs[16];
  dequantize_4x4(levels, qp, coeffs);
  kInv(coeffs, res);
}

/// Reconstructs one plane-block: recon = clip(pred + inverse(levels)).
/// `pred` is row-major W wide; writes into `plane` at (px0, py0).
template <int W>
void reconstruct_blocks(PlaneU8& plane, int px0, int py0, const u8* pred,
                        const std::array<std::array<i16, 16>, (W / 4) * (W / 4)>&
                            levels,
                        int qp) {
  for (int by = 0; by < W / 4; ++by) {
    for (int bx = 0; bx < W / 4; ++bx) {
      i16 res[16];
      itq_4x4(levels[by * (W / 4) + bx].data(), qp, res);
      for (int y = 0; y < 4; ++y) {
        u8* out = plane.row(py0 + by * 4 + y) + px0 + bx * 4;
        const u8* p = pred + (by * 4 + y) * W + bx * 4;
        for (int x = 0; x < 4; ++x) {
          out[x] = clip255(p[x] + res[y * 4 + x]);
        }
      }
    }
  }
}

/// Quantizes a full 16x16 luma residual into 16 4x4 level blocks.
void tq_luma_mb(const i16 residual[kMbSize * kMbSize], int qp, bool intra,
                MbCoded& coded) {
  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      i16 res[16];
      take4x4<kMbSize>(residual, bx, by, res);
      const bool nz =
          tq_4x4(res, qp, intra, coded.luma_levels[by * 4 + bx].data());
      coded.luma_nonzero[by * 4 + bx] = nz;
    }
  }
}

/// Quantizes an 8x8 chroma residual into 4 4x4 level blocks.
void tq_chroma_mb(const i16 residual[kCMb * kCMb], int qp, bool intra,
                  std::array<std::array<i16, 16>, 4>& levels) {
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      i16 res[16];
      take4x4<kCMb>(residual, bx, by, res);
      tq_4x4(res, qp, intra, levels[by * 2 + bx].data());
    }
  }
}

/// Fills the per-4x4 deblocking info of one MB from its final choice.
void fill_dbl_info(EncodeJob& job, int mb_x, int mb_y) {
  const int mbw = job.cfg->mb_width();
  const int bw = mbw * 4;
  const MbModeChoice& choice = job.choices[mb_y * mbw + mb_x];
  const MbCoded& coded = job.coded[mb_y * mbw + mb_x];
  const PartitionGeometry& g = geometry(choice.mode);
  Block4x4Info* info = job.dbl_info.data();

  for (int by = 0; by < 4; ++by) {
    for (int bx = 0; bx < 4; ++bx) {
      Block4x4Info& b = info[(mb_y * 4 + by) * bw + (mb_x * 4 + bx)];
      b.intra = coded.intra;
      b.nonzero = coded.luma_nonzero[by * 4 + bx];
      if (coded.intra) {
        b.mv = Mv{};
        b.ref_idx = 0;
      } else {
        const int blk = (by * 4 / g.block_h) * g.blocks_x + (bx * 4 / g.block_w);
        b.mv = choice.blocks[blk].mv;
        b.ref_idx = choice.blocks[blk].ref_idx;
      }
    }
  }
}

/// The frame header: frame number, type, QP, geometry, reference count.
void write_frame_header(const EncodeJob& job, BitWriter& bw) {
  bw.put_ue(static_cast<u32>(job.frame_number));
  bw.put_bit(job.is_intra ? 1 : 0);
  bw.put_ue(static_cast<u32>(job.is_intra ? job.cfg->qp_i : job.cfg->qp_p));
  bw.put_ue(static_cast<u32>(job.cfg->mb_width()));
  bw.put_ue(static_cast<u32>(job.cfg->mb_height()));
  bw.put_ue(static_cast<u32>(job.refs.size()));
}

/// Every MB of rows [row_begin,row_end): mode (intra mode, or partition
/// and per-block ref/MV), then the CAVLC levels of its 24 4x4 blocks.
void write_mb_rows(const EncodeJob& job, int row_begin, int row_end,
                   BitWriter& bw) {
  const int mbw = job.cfg->mb_width();
  for (int mb = row_begin * mbw; mb < row_end * mbw; ++mb) {
    const MbCoded& coded = job.coded[mb];
    if (job.is_intra) {
      bw.put_ue(static_cast<u32>(coded.intra_mode));
    } else {
      const MbModeChoice& choice = job.choices[mb];
      bw.put_ue(static_cast<u32>(choice.mode));
      const PartitionGeometry& g = geometry(choice.mode);
      for (int b = 0; b < g.num_blocks(); ++b) {
        bw.put_ue(choice.blocks[b].ref_idx);
        bw.put_se(choice.blocks[b].mv.x);
        bw.put_se(choice.blocks[b].mv.y);
      }
    }
    for (int b = 0; b < 16; ++b) cavlc_encode_4x4(bw, coded.luma_levels[b].data());
    for (int b = 0; b < 4; ++b) cavlc_encode_4x4(bw, coded.cb_levels[b].data());
    for (int b = 0; b < 4; ++b) cavlc_encode_4x4(bw, coded.cr_levels[b].data());
  }
}

}  // namespace

void EncodeJob::prepare(const EncoderConfig& config, const Frame420& current,
                        std::vector<RefPicture*> references, int frame_no,
                        std::unique_ptr<RefPicture> recycled) {
  config.validate();
  cfg = &config;
  cur = &current;
  refs = std::move(references);
  frame_number = frame_no;
  is_intra = refs.empty();

  const int mbs = config.total_mbs();
  // assign() (not re-construction) everywhere: on a reused EncodeJob the
  // vectors keep their capacity, so steady-state frames touch the heap only
  // when the geometry grows.
  fields.resize(refs.size());
  for (MotionField& f : fields) {
    f.assign(static_cast<std::size_t>(mbs), MbMotion{});
  }
  choices.assign(static_cast<std::size_t>(mbs), MbModeChoice{});
  coded.assign(static_cast<std::size_t>(mbs), MbCoded{});
  dbl_info.assign(static_cast<std::size_t>(mbs) * 16, Block4x4Info{});
  row_bits.resize(static_cast<std::size_t>(config.mb_height()));
  for (BitWriter& w : row_bits) w.clear();

  const int border = ref_border(config);
  if (recycled != nullptr && recycled->recon.y.width() == config.width &&
      recycled->recon.y.height() == config.height &&
      recycled->recon.y.border() == border) {
    // Adopt the evicted picture's planes: every pixel of recon is written
    // by reconstruction and every pixel of sf by INT before anyone reads
    // them, so a scrub of the metadata suffices.
    recycled->sf_ready = false;
    recycled->frame_number = -1;
    recon = std::move(recycled);
  } else {
    recon = std::make_unique<RefPicture>(config.width, config.height, border);
  }
}

void me_rows(EncodeJob& job, int row_begin, int row_end, SimdTier tier) {
  MeParams params;
  params.search_range = job.cfg->search_range;
  params.tier = tier;
  for (std::size_t r = 0; r < job.refs.size(); ++r) {
    run_me_rows(job.cur->y, job.refs[r]->recon.y, job.cfg->mb_width(),
                row_begin, row_end, params, job.fields[r].data());
  }
}

void int_rows(EncodeJob& job, int row_begin, int row_end, SimdTier tier) {
  FEVES_CHECK(!job.refs.empty());
  SubPelFrame& sf = job.refs[0]->sf;
  run_interpolation_rows(job.refs[0]->recon.y, row_begin, row_end, sf, tier);
  for (auto& plane : sf.phases) {
    plane.extend_horizontal_borders(row_begin * kMbSize, row_end * kMbSize);
  }
}

void finish_interpolation(EncodeJob& job) {
  FEVES_CHECK(!job.refs.empty());
  for (auto& plane : job.refs[0]->sf.phases) plane.extend_vertical_borders();
  job.refs[0]->sf_ready = true;
}

void sme_rows(EncodeJob& job, int row_begin, int row_end, SimdTier tier) {
  SmeParams params;
  params.refine_range = job.cfg->subpel_refine_range;
  params.tier = tier;
  for (std::size_t r = 0; r < job.refs.size(); ++r) {
    FEVES_CHECK_MSG(job.refs[r]->sf_ready,
                    "SME before SF of ref " << r << " is complete");
    run_sme_rows(job.cur->y, job.refs[r]->sf, job.cfg->mb_width(), row_begin,
                 row_end, params, job.fields[r].data());
  }
}

void rstar_rows(EncodeJob& job, int row_begin, int row_end, SimdTier tier) {
  const int mbw = job.cfg->mb_width();
  FEVES_CHECK(row_begin >= 0 && row_begin <= row_end &&
              row_end <= job.cfg->mb_height());
  const int qp = job.cfg->qp_p;
  const int qpc = kChromaQp[qp];

  run_mode_decision_rows(job.fields, mbw, row_begin, row_end,
                         job.cfg->lambda_mode, job.choices.data());

  std::vector<const SubPelFrame*> sfs;
  std::vector<const PlaneU8*> refs_u, refs_v;
  sfs.reserve(job.refs.size());
  refs_u.reserve(job.refs.size());
  refs_v.reserve(job.refs.size());
  for (const RefPicture* r : job.refs) {
    sfs.push_back(&r->sf);
    refs_u.push_back(&r->recon.u);
    refs_v.push_back(&r->recon.v);
  }

  for (int mb_y = row_begin; mb_y < row_end; ++mb_y) {
    for (int mb_x = 0; mb_x < mbw; ++mb_x) {
      const MbModeChoice& choice = job.choices[mb_y * mbw + mb_x];
      MbCoded& coded = job.coded[mb_y * mbw + mb_x];
      coded.intra = false;

      u8 pred_y[kMbSize * kMbSize];
      i16 res_y[kMbSize * kMbSize];
      motion_compensate_luma_mb(job.cur->y, sfs, choice, mb_x, mb_y, pred_y,
                                res_y, tier);
      tq_luma_mb(res_y, qp, /*intra=*/false, coded);

      u8 pred_u[kCMb * kCMb], pred_v[kCMb * kCMb];
      i16 res_u[kCMb * kCMb], res_v[kCMb * kCMb];
      motion_compensate_chroma_mb(job.cur->u, refs_u, choice, mb_x, mb_y,
                                  pred_u, res_u, tier);
      motion_compensate_chroma_mb(job.cur->v, refs_v, choice, mb_x, mb_y,
                                  pred_v, res_v, tier);
      tq_chroma_mb(res_u, qpc, false, coded.cb_levels);
      tq_chroma_mb(res_v, qpc, false, coded.cr_levels);

      reconstruct_blocks<kMbSize>(job.recon->recon.y, mb_x * kMbSize,
                                  mb_y * kMbSize, pred_y, coded.luma_levels,
                                  qp);
      reconstruct_blocks<kCMb>(job.recon->recon.u, mb_x * kCMb, mb_y * kCMb,
                               pred_u, coded.cb_levels, qpc);
      reconstruct_blocks<kCMb>(job.recon->recon.v, mb_x * kCMb, mb_y * kCMb,
                               pred_v, coded.cr_levels, qpc);
      fill_dbl_info(job, mb_x, mb_y);
    }
  }
}

void finish_reconstruction(EncodeJob& job, SimdTier tier, ThreadPool* pool) {
  if (job.cfg->enable_deblocking) {
    DeblockParams luma;
    luma.qp = job.is_intra ? job.cfg->qp_i : job.cfg->qp_p;
    luma.tier = tier;
    DeblockParams chroma = luma;
    chroma.qp = kChromaQp[luma.qp];
    run_deblock_picture(job.recon->recon, job.cfg->mb_width(),
                        job.cfg->mb_height(), job.dbl_info.data(), luma,
                        chroma, pool);
  }
  job.recon->recon.extend_borders();
  job.recon->frame_number = job.frame_number;
}

void rstar_frame(EncodeJob& job, SimdTier tier) {
  rstar_rows(job, 0, job.cfg->mb_height(), tier);
  finish_reconstruction(job, tier);
}

void intra_frame(EncodeJob& job, SimdTier tier) {
  const int mbw = job.cfg->mb_width();
  const int mbh = job.cfg->mb_height();
  const int qp = job.cfg->qp_i;
  const int qpc = kChromaQp[qp];
  job.is_intra = true;

  // Sequential raster order: each MB predicts from already reconstructed
  // neighbours — the intra dependency that keeps this path on one device.
  u8 pred_y[kMbSize * kMbSize];
  u8 pred_u[kCMb * kCMb], pred_v[kCMb * kCMb];

  for (int mb_y = 0; mb_y < mbh; ++mb_y) {
    for (int mb_x = 0; mb_x < mbw; ++mb_x) {
      MbCoded& coded = job.coded[mb_y * mbw + mb_x];
      coded.intra = true;
      coded.intra_mode =
          select_intra_mode(job.cur->y, job.recon->recon.y, mb_x, mb_y, tier);
      intra_predict_16x16(job.recon->recon.y, mb_x, mb_y, coded.intra_mode,
                          pred_y);
      intra_predict_chroma_dc(job.recon->recon.u, mb_x, mb_y, pred_u);
      intra_predict_chroma_dc(job.recon->recon.v, mb_x, mb_y, pred_v);

      i16 res_y[kMbSize * kMbSize];
      for (int y = 0; y < kMbSize; ++y) {
        const u8* src = job.cur->y.row(mb_y * kMbSize + y) + mb_x * kMbSize;
        for (int x = 0; x < kMbSize; ++x) {
          res_y[y * kMbSize + x] =
              static_cast<i16>(src[x] - pred_y[y * kMbSize + x]);
        }
      }
      tq_luma_mb(res_y, qp, true, coded);

      i16 res_u[kCMb * kCMb], res_v[kCMb * kCMb];
      for (int y = 0; y < kCMb; ++y) {
        const u8* su = job.cur->u.row(mb_y * kCMb + y) + mb_x * kCMb;
        const u8* sv = job.cur->v.row(mb_y * kCMb + y) + mb_x * kCMb;
        for (int x = 0; x < kCMb; ++x) {
          res_u[y * kCMb + x] = static_cast<i16>(su[x] - pred_u[y * kCMb + x]);
          res_v[y * kCMb + x] = static_cast<i16>(sv[x] - pred_v[y * kCMb + x]);
        }
      }
      tq_chroma_mb(res_u, qpc, true, coded.cb_levels);
      tq_chroma_mb(res_v, qpc, true, coded.cr_levels);

      reconstruct_blocks<kMbSize>(job.recon->recon.y, mb_x * kMbSize,
                                  mb_y * kMbSize, pred_y, coded.luma_levels,
                                  qp);
      reconstruct_blocks<kCMb>(job.recon->recon.u, mb_x * kCMb, mb_y * kCMb,
                               pred_u, coded.cb_levels, qpc);
      reconstruct_blocks<kCMb>(job.recon->recon.v, mb_x * kCMb, mb_y * kCMb,
                               pred_v, coded.cr_levels, qpc);
      fill_dbl_info(job, mb_x, mb_y);
    }
  }
  finish_reconstruction(job, tier);
}

void write_frame_bitstream(const EncodeJob& job, BitWriter& bw) {
  write_frame_header(job, bw);
  write_mb_rows(job, 0, job.cfg->mb_height(), bw);
  bw.finish();
}

void entropy_rows(EncodeJob& job, int row_begin, int row_end) {
  FEVES_CHECK(row_begin >= 0 && row_begin <= row_end &&
              row_end <= static_cast<int>(job.row_bits.size()));
  for (int mb_y = row_begin; mb_y < row_end; ++mb_y) {
    BitWriter& w = job.row_bits[static_cast<std::size_t>(mb_y)];
    w.clear();
    write_mb_rows(job, mb_y, mb_y + 1, w);
  }
}

void splice_frame_bitstream(const EncodeJob& job, BitWriter& bw) {
  FEVES_CHECK(static_cast<int>(job.row_bits.size()) == job.cfg->mb_height());
  write_frame_header(job, bw);
  for (std::size_t y = 0; y < job.row_bits.size(); ++y) {
    // Every MB codes at least its mode and 24 block tokens, so an empty
    // writer is a row this attempt never coded.
    FEVES_CHECK_MSG(job.row_bits[y].bit_count() > 0,
                    "MB row " << y << " was not entropy coded");
    bw.append(job.row_bits[y]);
  }
  bw.finish();
}

std::unique_ptr<RefPicture> encode_frame_reference(
    const EncoderConfig& cfg, const Frame420& cur, RefList& refs,
    int frame_number, std::vector<u8>* bitstream_out) {
  EncodeJob job;
  std::vector<RefPicture*> borrowed;
  for (int i = 0; i < refs.size(); ++i) borrowed.push_back(&refs.ref(i));
  job.prepare(cfg, cur, std::move(borrowed), frame_number);

  if (job.is_intra) {
    intra_frame(job);
  } else {
    const int rows = cfg.num_mb_rows();
    me_rows(job, 0, rows);
    int_rows(job, 0, rows);
    finish_interpolation(job);
    sme_rows(job, 0, rows);
    rstar_frame(job);
  }

  if (bitstream_out != nullptr) {
    BitWriter bw;
    write_frame_bitstream(job, bw);
    const auto& bytes = bw.bytes();
    bitstream_out->insert(bitstream_out->end(), bytes.begin(), bytes.end());
  }
  return std::move(job.recon);
}

std::unique_ptr<RefPicture> decode_frame(const EncoderConfig& cfg,
                                         BitReader& br, RefList& refs) {
  EncodeJob job;  // reused as decoder-side working state
  // Header.
  const int frame_number = static_cast<int>(br.get_ue());
  const bool is_intra = br.get_bit() != 0;
  const int qp = static_cast<int>(br.get_ue());
  const int mbw = static_cast<int>(br.get_ue());
  const int mbh = static_cast<int>(br.get_ue());
  const int num_refs = static_cast<int>(br.get_ue());
  FEVES_CHECK_MSG(mbw == cfg.mb_width() && mbh == cfg.mb_height(),
                  "bitstream geometry mismatch");
  FEVES_CHECK(num_refs <= refs.size());
  FEVES_CHECK(qp == (is_intra ? cfg.qp_i : cfg.qp_p));

  // The decoder interpolates its own newest reference, mirroring the
  // encoder's INT module.
  Frame420 dummy_cur(cfg.width, cfg.height, 16);
  std::vector<RefPicture*> borrowed;
  for (int i = 0; i < num_refs; ++i) borrowed.push_back(&refs.ref(i));
  job.prepare(cfg, dummy_cur, std::move(borrowed), frame_number);
  job.is_intra = is_intra;

  if (!is_intra && !job.refs[0]->sf_ready) {
    int_rows(job, 0, cfg.num_mb_rows());
    finish_interpolation(job);
  }

  const int qpc = kChromaQp[qp];
  u8 intra_pred_y[kMbSize * kMbSize];
  u8 intra_pred_u[kCMb * kCMb], intra_pred_v[kCMb * kCMb];

  std::vector<const SubPelFrame*> sfs;
  std::vector<const PlaneU8*> refs_u, refs_v;
  for (const RefPicture* r : job.refs) {
    sfs.push_back(&r->sf);
    refs_u.push_back(&r->recon.u);
    refs_v.push_back(&r->recon.v);
  }

  for (int mb_y = 0; mb_y < mbh; ++mb_y) {
    for (int mb_x = 0; mb_x < mbw; ++mb_x) {
      const int mb = mb_y * mbw + mb_x;
      MbCoded& coded = job.coded[mb];
      coded.intra = is_intra;
      if (is_intra) {
        coded.intra_mode = static_cast<IntraMode>(br.get_ue());
        FEVES_CHECK(static_cast<int>(coded.intra_mode) < kNumIntraModes);
      } else {
        MbModeChoice& choice = job.choices[mb];
        choice.mode = static_cast<PartitionMode>(br.get_ue());
        FEVES_CHECK(static_cast<int>(choice.mode) < kNumPartitionModes);
        const PartitionGeometry& g = geometry(choice.mode);
        for (int b = 0; b < g.num_blocks(); ++b) {
          choice.blocks[b].ref_idx = static_cast<u8>(br.get_ue());
          FEVES_CHECK(choice.blocks[b].ref_idx < num_refs);
          choice.blocks[b].mv.x = static_cast<i16>(br.get_se());
          choice.blocks[b].mv.y = static_cast<i16>(br.get_se());
        }
      }
      for (int b = 0; b < 16; ++b) {
        const int nz = cavlc_decode_4x4(br, job.coded[mb].luma_levels[b].data());
        coded.luma_nonzero[b] = nz > 0;
      }
      for (int b = 0; b < 4; ++b) cavlc_decode_4x4(br, coded.cb_levels[b].data());
      for (int b = 0; b < 4; ++b) cavlc_decode_4x4(br, coded.cr_levels[b].data());

      if (is_intra) {
        intra_predict_16x16(job.recon->recon.y, mb_x, mb_y, coded.intra_mode,
                            intra_pred_y);
        intra_predict_chroma_dc(job.recon->recon.u, mb_x, mb_y, intra_pred_u);
        intra_predict_chroma_dc(job.recon->recon.v, mb_x, mb_y, intra_pred_v);
        reconstruct_blocks<kMbSize>(job.recon->recon.y, mb_x * kMbSize,
                                    mb_y * kMbSize, intra_pred_y,
                                    coded.luma_levels, qp);
        reconstruct_blocks<kCMb>(job.recon->recon.u, mb_x * kCMb, mb_y * kCMb,
                                 intra_pred_u, coded.cb_levels, qpc);
        reconstruct_blocks<kCMb>(job.recon->recon.v, mb_x * kCMb, mb_y * kCMb,
                                 intra_pred_v, coded.cr_levels, qpc);
      } else {
        // Inter: MC needs the current frame only for residual computation,
        // which the decoder doesn't do — pass the reconstruction plane as a
        // stand-in current frame (the residual output is discarded).
        const MbModeChoice& choice = job.choices[mb];
        u8 pred_y[kMbSize * kMbSize];
        i16 scratch_y[kMbSize * kMbSize];
        motion_compensate_luma_mb(job.recon->recon.y, sfs, choice, mb_x, mb_y,
                                  pred_y, scratch_y);
        u8 pred_u[kCMb * kCMb], pred_v[kCMb * kCMb];
        i16 scratch_c[kCMb * kCMb];
        motion_compensate_chroma_mb(job.recon->recon.u, refs_u, choice, mb_x,
                                    mb_y, pred_u, scratch_c);
        motion_compensate_chroma_mb(job.recon->recon.v, refs_v, choice, mb_x,
                                    mb_y, pred_v, scratch_c);
        reconstruct_blocks<kMbSize>(job.recon->recon.y, mb_x * kMbSize,
                                    mb_y * kMbSize, pred_y, coded.luma_levels,
                                    qp);
        reconstruct_blocks<kCMb>(job.recon->recon.u, mb_x * kCMb, mb_y * kCMb,
                                 pred_u, coded.cb_levels, qpc);
        reconstruct_blocks<kCMb>(job.recon->recon.v, mb_x * kCMb, mb_y * kCMb,
                                 pred_v, coded.cr_levels, qpc);
      }
      fill_dbl_info(job, mb_x, mb_y);
    }
  }
  finish_reconstruction(job);

  // Consume frame padding: the writer byte-aligned after the stop bit.
  while (br.bit_position() % 8 != 0) br.get_bit();
  return std::move(job.recon);
}

}  // namespace feves
