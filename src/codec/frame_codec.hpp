// Whole-frame encode/decode built from the inter-loop modules. This is both
// (a) the single-device reference encoder — the unit of truth that every
// collaborative CPU+GPU schedule must match bit-exactly — and (b) the
// library of row-ranged module entry points the FEVES framework distributes
// across devices (ME/INT/SME by MB rows, R* whole-frame on one device) and
// each device spreads over its own cores (R* by rows, then its deblocking
// tail).
#pragma once

#include "codec/bitstream.hpp"
#include "codec/deblock.hpp"
#include "codec/intra.hpp"
#include "codec/mc.hpp"
#include "codec/me.hpp"
#include "codec/refpic.hpp"
#include "codec/sme.hpp"
#include "common/config.hpp"

#include <memory>
#include <vector>

namespace feves {

class ThreadPool;

/// Quantized residual of one macroblock, ready for entropy coding and
/// carrying the non-zero flags deblocking needs.
struct MbCoded {
  std::array<std::array<i16, 16>, 16> luma_levels;  ///< 16 4x4 blocks
  std::array<std::array<i16, 16>, 4> cb_levels;     ///< 4 4x4 chroma blocks
  std::array<std::array<i16, 16>, 4> cr_levels;
  std::array<bool, 16> luma_nonzero = {};
  bool intra = false;
  IntraMode intra_mode = IntraMode::kDc;  ///< valid when intra
};

/// All per-frame working state for encoding one inter- (or intra-) frame.
/// The framework owns one of these per frame and hands slices of it to
/// devices; the reference encoder drives it single-threaded.
struct EncodeJob {
  const EncoderConfig* cfg = nullptr;
  const Frame420* cur = nullptr;

  /// Borrowed references, newest first. INT fills refs[0]->sf.
  std::vector<RefPicture*> refs;

  /// One SME/ME motion field per reference frame.
  std::vector<MotionField> fields;

  std::vector<MbModeChoice> choices;  ///< per MB, set by R* (mode decision)
  std::vector<MbCoded> coded;         ///< per MB, set by R* (TQ)
  std::vector<Block4x4Info> dbl_info; ///< per 4x4 block, set by R*

  /// Reconstruction under construction (becomes the next RF).
  std::unique_ptr<RefPicture> recon;

  /// Per MB row, that row's entropy-coded MBs (entropy_rows). prepare()
  /// empties every writer and keeps its capacity, so a row an attempt did
  /// not code can never reach splice_frame_bitstream.
  std::vector<BitWriter> row_bits;

  int frame_number = 0;
  bool is_intra = false;

  /// Sizes fields/choices/coded/recon for `cfg` x `refs`. Reusing one
  /// EncodeJob across frames keeps every vector's capacity, so steady-state
  /// frames allocate nothing here except `recon` — and even that is elided
  /// when `recycled` (typically the picture RefList::push_front evicted)
  /// has matching geometry: it is scrubbed and adopted instead of a fresh
  /// RefPicture being heap-allocated per frame.
  void prepare(const EncoderConfig& config, const Frame420& current,
               std::vector<RefPicture*> references, int frame_no,
               std::unique_ptr<RefPicture> recycled = nullptr);
};

// ---- Row-ranged inter-loop modules (the distribution units) -------------

/// ME over MB rows [row_begin,row_end) against every reference.
void me_rows(EncodeJob& job, int row_begin, int row_end,
             SimdTier tier = SimdTier::kAuto);

/// INT over MB rows of the newest reference's SF, horizontal borders of
/// those rows included. `tier` selects the interpolation kernel tier
/// (registry id kInterp).
void int_rows(EncodeJob& job, int row_begin, int row_end,
              SimdTier tier = SimdTier::kAuto);

/// SME over MB rows against every reference. All SFs must be complete with
/// extended borders (call finish_interpolation first). `tier` selects the
/// probe kernel tier (registry id kSadBlock).
void sme_rows(EncodeJob& job, int row_begin, int row_end,
              SimdTier tier = SimdTier::kAuto);

/// Marks refs[0]->sf complete: extends its vertical borders. Host-side step
/// after all INT row slices are gathered (Fig 4's SF(RF)→SME completion).
/// Every writer of SF rows extends their horizontal borders itself —
/// int_rows, and the gathers of accelerator slices, which copy borders and
/// all — so only the rows above and below the frame are left to fill.
void finish_interpolation(EncodeJob& job);

// ---- R* block (single device, whole frame) ------------------------------

/// R* over MB rows [row_begin,row_end) of a P frame: mode decision, MC, TQ,
/// TQ^-1, reconstruction before deblocking, and the deblocking side info.
/// Every MB's R* work is independent of every other MB's, so any partition
/// of the rows, run in any order or concurrently, leaves the same state.
/// `tier` feeds the MC kernels (transform kernels resolve kAuto once per
/// process — they are 4x4-fixed and gain nothing from per-call selection).
void rstar_rows(EncodeJob& job, int row_begin, int row_end,
                SimdTier tier = SimdTier::kAuto);

/// R*'s tail, once every MB is reconstructed: deblocks the reconstruction
/// (luma and chroma) and extends its borders. With a pool, deblocking runs
/// as an MB wavefront across it (run_deblock_picture), bit-identical to
/// the raster order used without one.
void finish_reconstruction(EncodeJob& job, SimdTier tier = SimdTier::kAuto,
                           ThreadPool* pool = nullptr);

/// The whole R* block on the calling thread: rstar_rows over every row,
/// then finish_reconstruction. Every parallel R* must equal this.
void rstar_frame(EncodeJob& job, SimdTier tier = SimdTier::kAuto);

/// Intra path for the leading I frame: per-MB Intra_16x16 mode decision
/// (V/H/DC/Plane from reconstructed neighbours), TQ, reconstruction, DBL.
/// `tier` feeds the mode decision's SAD kernel and the deblocking kernels.
void intra_frame(EncodeJob& job, SimdTier tier = SimdTier::kAuto);

// ---- Entropy / bitstream -------------------------------------------------

/// Serializes the frame (header, per-MB modes/MVs/levels) after R*.
void write_frame_bitstream(const EncodeJob& job, BitWriter& bw);

/// Entropy-codes MB rows [row_begin,row_end) of a coded frame, each into
/// its own job.row_bits writer (emptied first). Rows are independent, so
/// this can run per row right after that row's R* work.
void entropy_rows(EncodeJob& job, int row_begin, int row_end);

/// The frame header, then every row of job.row_bits spliced at whatever bit
/// offset the previous one ended, then the trailing bits: bit-identical to
/// write_frame_bitstream. Every row must have been coded since prepare().
void splice_frame_bitstream(const EncodeJob& job, BitWriter& bw);

/// Full reference encoder: runs every module single-device. Returns the
/// reconstructed picture (push into a RefList) and appends the bitstream.
std::unique_ptr<RefPicture> encode_frame_reference(
    const EncoderConfig& cfg, const Frame420& cur, RefList& refs,
    int frame_number, std::vector<u8>* bitstream_out);

/// Standalone decoder: parses one frame written by write_frame_bitstream
/// and reconstructs it against its own reference list (running its own
/// interpolation), returning the new reference picture. Used by round-trip
/// tests: decoder reconstruction must equal encoder reconstruction exactly.
std::unique_ptr<RefPicture> decode_frame(const EncoderConfig& cfg,
                                         BitReader& br, RefList& refs);

}  // namespace feves
