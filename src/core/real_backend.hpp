// Real-mode backend: kernels run on host threads over actual pixels, and
// every modelled transfer performs a genuine copy between the host's
// canonical buffers and a per-accelerator mirror. Accelerator kernels read
// ONLY their mirrors — if Data Access Management computes a wrong interval,
// the kernel sees poisoned bytes and the bit-exactness tests fail. That
// makes the Fig 5 offset/reuse logic empirically verified, not just
// modelled.
//
// Each device is a multi-core device, as in the paper: an op fans its MB
// rows (R*: its rows, then its deblocking wavefront, when the pool has idle
// cores) over the process-wide device_pool() and its lane thread works on
// them too. On a CPU-only host every "device" shares the same cores, so
// real-mode speedups come from those cores, not from the number of
// modelled devices (DESIGN.md §6j).
#pragma once

#include "codec/frame_codec.hpp"
#include "common/thread_pool.hpp"
#include "core/backend.hpp"

#include <deque>
#include <memory>
#include <mutex>

namespace feves {

/// Device-local copies of the distribution-sensitive buffers.
struct DeviceMirror {
  struct RefMirror {
    RefMirror(int w, int h, int border)
        : recon_y(w, h, border), sf(w, h, border) {}
    PlaneU8 recon_y;  ///< reference luma (ME reads this; staged whole)
    SubPelFrame sf;   ///< sub-pel planes (SME reads these)
  };

  PlaneU8 cf_y;                       ///< current-frame luma rows
  std::deque<std::unique_ptr<RefMirror>> refs;  ///< parallel to host RefList
  std::vector<MotionField> fields;    ///< raw ME MV fields, per ref
  /// SME's refined MVs land here rather than overwriting `fields` in
  /// place: the MV_out gather (copy lane) streams the raw ME vectors to
  /// the host concurrently with the SME kernel (compute lane), and the
  /// two are deliberately unordered in the op graph — sharing one buffer
  /// would be a data race and make the published rows timing-dependent.
  std::vector<MotionField> refined;

  /// Poison byte written into mirrors before each frame so reads of
  /// untransferred data are loud in tests.
  static constexpr u8 kPoison = 0xAA;
};

/// Real-mode backend for one frame. The canonical state (job, host RefList)
/// is owned by the CollaborativeEncoder; mirrors persist across frames.
class RealBackend final : public FrameBackend {
 public:
  /// `sme_dist` is the frame's SME row-count vector (used to publish the
  /// R*-hosting accelerator's locally refined MVs into the canonical
  /// fields before R* runs).
  RealBackend(EncodeJob& job, std::vector<DeviceMirror>& mirrors,
              const PlatformTopology& topo, SimdTier tier,
              std::vector<int> sme_dist);

  OpPayload op_me(int device, RowInterval rows) override;
  OpPayload op_int(int device, RowInterval rows) override;
  OpPayload op_sme(int device, RowInterval rows) override;
  OpPayload op_rstar(int device) override;
  OpPayload op_xfer(int device, XferPurpose purpose,
                    const std::vector<RowInterval>& fragments) override;

 private:
  bool is_accel(int device) const {
    return topo_.devices[device].is_accelerator();
  }

  /// Extends the canonical SF borders exactly once per frame, after all
  /// SF_out gathers (callers are ordered by the op graph's sf_ready deps).
  void ensure_sf_assembled();

  EncodeJob& job_;
  std::vector<DeviceMirror>& mirrors_;
  const PlatformTopology& topo_;
  SimdTier tier_;
  std::vector<int> sme_dist_;
  ThreadPool& pool_;  ///< every device's cores (device_pool())
  std::mutex assemble_mutex_;
  bool sf_assembled_ = false;
};

/// Double-buffered staging state for the frame pipeline: the parts of
/// begin_frame_mirror that do not depend on the executing frame's output —
/// the poisoned reference slot and the MV field reset — prepared in the
/// shadow of the previous execution. Everything in a prepared stage is
/// frame-agnostic by construction (blank poisoned buffers), so a stage is
/// reusable across retries; only an active_refs mismatch invalidates it.
struct MirrorStage {
  bool valid = false;
  int active_refs = 0;
  std::unique_ptr<DeviceMirror::RefMirror> fresh;
  std::vector<MotionField> fields;
  std::vector<MotionField> refined;
  /// RefMirror trimmed off the mirror window by the begin_frame_mirror
  /// that consumed this stage, held for the next prestage to recycle (at
  /// steady state one slot leaves the window every frame and one enters).
  std::unique_ptr<DeviceMirror::RefMirror> spare;
};

/// Prepares `stage` for a frame with `active_refs` references: a poisoned
/// slot for the newest reference — the stage's unconsumed one or its
/// spare, its SF planes re-poisoned whole — and zeroed MV fields, exactly
/// the state begin_frame_mirror would build itself.
void prestage_mirror(MirrorStage& stage, const EncoderConfig& cfg,
                     int active_refs);

/// Prepares `mirror` for the next frame: poisons the CF plane, takes a
/// poisoned slot for the newest reference, stages `newest_recon_y` (the
/// canonical newest reconstruction, borders included) into it, trims the
/// window and resets the local MV fields. The RF_in op models the transfer
/// time; the bytes are staged here so the R*-producing device (which skips
/// RF_in) is handled uniformly. The slot is `staged`'s prestaged one when
/// it matches this frame's shape; otherwise the slot this call trims off
/// the window is recycled with its SF planes re-poisoned whole (a new slot
/// is allocated only while the window is still filling). Either path
/// yields byte-identical mirror state.
void begin_frame_mirror(DeviceMirror& mirror, const EncoderConfig& cfg,
                        int active_refs, const PlaneU8& newest_recon_y,
                        MirrorStage* staged = nullptr);

/// Rebuilds `mirror` from scratch out of the canonical reference list —
/// the recovery path. Used when the incremental begin_frame_mirror contract
/// (exactly one call per encoded frame) is broken: after a failed execution
/// attempt left the mirror partially written, or when a quarantined device
/// re-enters probation having missed frames. Every reference reconstruction
/// is staged; older references also get their (already assembled, borders
/// included) SF planes, the newest reference's SF — produced this frame —
/// and the CF are poisoned just like in the incremental path.
void restage_mirror(DeviceMirror& mirror, const EncoderConfig& cfg,
                    int active_refs, const RefList& refs);

}  // namespace feves
