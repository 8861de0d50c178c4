// Virtual mode of the Algorithm-1 loop (frame_loop.hpp): VirtualFramework
// runs each inter-frame over the discrete-event executor and the analytical
// cost model — the engine behind every figure bench. Its hooks build a
// VirtualBackend whose op durations carry the frame's perturbation factors;
// a failed attempt keeps the Data Access state (nothing on a modelled
// device needs restaging). The real-mode counterpart, over the same loop,
// lives in collaborative_encoder.hpp.
#pragma once

#include "core/frame_loop.hpp"
#include "platform/perturbation.hpp"

#include <vector>

namespace feves {

class VirtualFramework final : public FrameLoop {
 public:
  VirtualFramework(const EncoderConfig& cfg, const PlatformTopology& topo,
                   FrameworkOptions opts = {},
                   PerturbationSchedule perturbations = {},
                   FaultSchedule faults = {});

  /// Snapshots the adaptive state at the current frame boundary (call only
  /// between encode_frame calls).
  FrameworkCheckpoint checkpoint() const;

  /// Restores a frame-boundary snapshot — typically into a freshly
  /// constructed framework over the same topology. Scheduling resumes from
  /// the checkpointed characterization; the pipeline slot and deferred-SF
  /// state are dropped (they describe frames the snapshot does not cover).
  void restore(const FrameworkCheckpoint& cp);

  /// Simulates the next inter-frame; returns its stats. `grant` restricts
  /// the frame to a device subset (multi-session operation; default: the
  /// whole topology).
  FrameStats encode_frame(const FrameGrant& grant = {});

  /// Simulates `frames` consecutive inter-frames.
  std::vector<FrameStats> encode(int frames);

  /// Steady-state throughput: simulates `frames` and averages over the
  /// frames after the reference window has filled and balancing has
  /// converged (skipping the first max(num_ref_frames, warmup) frames).
  double steady_state_fps(int frames = 30, int warmup = 8);

  int frames_encoded() const { return next_frame_ - 1; }

 private:
  ExecutionResult execute(int frame, int active_refs,
                          const ScheduleDecision& sd,
                          const ExecuteOptions& exec,
                          FrameOpIds* ids) override;

  PerturbationSchedule perturbations_;
};

}  // namespace feves
