// Real-mode FEVES encoder: the Algorithm 1 loop (frame_loop.hpp) producing
// an actual bitstream and reconstruction, with kernels executing on host
// threads and transfers performing genuine copies into per-device mirror
// buffers. On top of the shared loop, this shell keeps the bootstrap I
// frame, the job arena, the reference list and the bitstream write (an
// inter frame's MB rows arrive entropy coded from R*, so the write is the
// header and a splice). Its hooks stage the mirrors before each attempt,
// prestage them in the shadow, and after a failed attempt mark them stale
// and reset the Data Access state (cancelled ops leave the mirrors and the
// deferred-SF ledger out of step).
//
// This is the correctness anchor of the repository: for any topology and
// scheduling policy, the reconstruction must match the single-device
// reference encoder bit-for-bit — the distribution may change *when* work
// happens, never *what* is computed.
#pragma once

#include "core/framework.hpp"
#include "core/real_backend.hpp"

namespace feves {

/// Real-mode frame-boundary snapshot: the adaptive scheduling state plus
/// deep copies of the reference window (reconstructions, SF planes and
/// their readiness) — everything a fresh CollaborativeEncoder needs to
/// continue the stream bit-identically from the frame after the snapshot.
/// References are shared_ptr so a checkpoint is cheap to copy and hold;
/// restore() deep-copies them back into the encoder, so one checkpoint can
/// seed any number of restarts.
struct EncoderCheckpoint {
  FrameworkCheckpoint fw;
  std::vector<std::shared_ptr<const RefPicture>> refs;  ///< newest first
};

class CollaborativeEncoder final : public FrameLoop {
 public:
  CollaborativeEncoder(const EncoderConfig& cfg, const PlatformTopology& topo,
                       FrameworkOptions opts = {},
                       SimdTier tier = SimdTier::kAuto,
                       FaultSchedule faults = {});

  /// Snapshots the encoder at the current frame boundary (between
  /// encode_frame calls). The caller records its own bitstream offset — the
  /// encoder only appends, it never owns the stream.
  EncoderCheckpoint checkpoint() const;

  /// Restores a frame-boundary snapshot, typically into a freshly
  /// constructed encoder on the same topology (the resume-elsewhere path).
  /// Device mirrors are marked stale and restaged whole from the restored
  /// canonical references on the next frame, so the continuation is
  /// bit-identical to an uninterrupted encode.
  void restore(const EncoderCheckpoint& cp);

  /// Encodes the next frame (the first call encodes the bootstrap I frame
  /// on the host; subsequent calls run the collaborative inter loop).
  /// Appends the frame's bitstream to `bitstream_out` when non-null.
  /// `grant` restricts the inter loop to a device subset (multi-session
  /// operation; default: the whole topology). The bitstream and
  /// reconstruction are bit-identical regardless of the grant — sharding
  /// only moves *where* work runs.
  FrameStats encode_frame(const Frame420& cur, std::vector<u8>* bitstream_out,
                          const FrameGrant& grant = {});

  /// Reconstruction of the most recently encoded frame.
  const Frame420& last_recon() const {
    FEVES_CHECK(!refs_.empty());
    return refs_.ref(0).recon;
  }

  int frames_encoded() const { return next_frame_; }

  /// True when accelerator `device`'s mirror was staged for the latest
  /// inter-frame attempt; false for the host and for a device that sat the
  /// frame out (its mirror is stale and restaged whole when it runs again).
  bool mirror_staged(int device) const {
    FEVES_CHECK(device >= 0 && device < topo_.num_devices());
    return topo_.devices[device].is_accelerator() && !mirror_stale_[device];
  }

 private:
  /// (Re-)prepares the job for frame next_frame_ from `cur` and the
  /// reference list, recycling `recon` as its reconstruction buffer.
  void prepare_job(const Frame420& cur, std::unique_ptr<RefPicture> recon);

  void prepare_attempt(int frame, int attempt, int active_refs,
                       const std::vector<bool>& run) override;
  ExecutionResult execute(int frame, int active_refs,
                          const ScheduleDecision& sd,
                          const ExecuteOptions& exec,
                          FrameOpIds* ids) override;
  void shadow(const std::vector<bool>& run, int next_refs) override;
  void attempt_failed() override;
  void attempt_succeeded(int frame, FrameStats* stats) override;

  SimdTier tier_;
  RefList refs_;
  /// Per-frame working state, persistent so its vectors (motion fields,
  /// choices, coded levels, deblock info) keep their capacity across
  /// frames — prepare() then touches the heap only on geometry changes.
  EncodeJob job_;
  /// Reference picture evicted from refs_ last frame, recycled into the
  /// next frame's recon allocation (RefPicture is tens of MB at 1080p).
  std::unique_ptr<RefPicture> recycled_;
  std::vector<DeviceMirror> mirrors_;
  /// Mirrors whose incremental per-frame contract is broken (device sat out
  /// a frame, or an attempt failed mid-flight) — restaged whole before use.
  std::vector<bool> mirror_stale_;
  /// Per-device prestaged mirror buffers (the pipeline's double buffer).
  std::vector<MirrorStage> staged_;
  /// Requested -> resolved kernel tiers, copied into each frame's telemetry.
  std::vector<obs::KernelTierInfo> kernel_tiers_;
  /// Kernel-tier marks are emitted into the trace once per session.
  bool tiers_traced_ = false;
};

}  // namespace feves
