// Framework Control (paper Algorithm 1): the per-frame loop tying together
// Load Balancing, the Video Coding Manager, Data Access Management and
// Performance Characterization.
//
//   initialization (first inter-frame): equidistant split, record times,
//     build the initial characterization;
//   iterative (every further inter-frame): balance from the measured K
//     parameters, orchestrate, record, update.
//
// `VirtualFramework` drives the loop over the discrete-event executor and
// the analytical cost model — the engine behind every figure bench.
// The real-mode counterpart lives in collaborative_encoder.hpp.
#pragma once

#include "core/coding_manager.hpp"
#include "core/data_access.hpp"
#include "core/health.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "platform/fault.hpp"
#include "platform/perturbation.hpp"
#include "sched/load_balancer.hpp"

#include <optional>
#include <vector>

namespace feves {

class DeviceLease;

/// Per-frame device grant for a framework sharing its platform with other
/// encode sessions (src/service). `devices` restricts this frame's
/// scheduling to a subset of the topology — it is intersected with the
/// health monitor's active mask, so a session's own quarantines compose
/// with the arbiter's share. `lease`, when non-null, is forwarded to the
/// executors, which refuse any op targeting a device outside it. A
/// default-constructed grant (the single-tenant case) changes nothing.
struct FrameGrant {
  const std::vector<bool>* devices = nullptr;
  const DeviceLease* lease = nullptr;
};

/// Which scheduler drives the distribution decisions — kAdaptiveLp is the
/// paper's Algorithm 2; the other two are the evaluation baselines.
enum class SchedulingPolicy {
  kAdaptiveLp,    ///< Algorithm 2 (LP + performance characterization)
  kProportional,  ///< per-module speed-proportional split ([9]-style)
  kEquidistant,   ///< static equal split (multi-GPU related work)
};

struct FrameworkOptions {
  SchedulingPolicy policy = SchedulingPolicy::kAdaptiveLp;
  /// Weight of the newest measurement when updating the characterization.
  /// 1.0 = the paper's Algorithm 1 (each frame's recorded times directly
  /// parameterize the next LP — "a single inter-frame to converge");
  /// lower values EWMA-smooth noisy non-dedicated systems.
  double ewma_alpha = 1.0;
  LoadBalancerOptions lb;
  /// Shared-buffer reuse in Data Access Management (ablation knob; the
  /// paper's communication-minimization mechanism, Sec. III-B2).
  bool enable_data_reuse = true;
  /// Pin the R* block to a device (-1 = automatic Dijkstra selection).
  /// Pinning the CPU gives the paper's CPU-centric operation; pinning an
  /// accelerator the GPU-centric one. A pin on a quarantined device is
  /// suspended (automatic selection over survivors) until re-admission.
  int force_rstar_device = -1;
  /// Quarantine / probation policy for device faults.
  HealthOptions health;
  /// Per-op watchdog deadline handed to the executors (0 = disabled).
  /// Required (> 0) when the fault schedule injects hangs.
  double watchdog_ms = 0.0;
  /// Real mode: how long an injected hang sleeps (must exceed watchdog_ms).
  double hang_sleep_ms = 20.0;
  /// Failed execution attempts tolerated per frame before giving up. Each
  /// attempt quarantines at least the faulty device's failure streak, so a
  /// handful suffices even for simultaneous multi-device faults.
  int max_frame_retries = 8;
  /// Observability: when non-null, every op the executors run plus the
  /// host-side scheduling phases are emitted into this session's tracer and
  /// folded into its sink frame by frame (Chrome trace export). The session
  /// must outlive the framework. Null = zero tracing overhead.
  obs::TraceSession* trace = nullptr;
  /// Two-slot frame pipeline: after frame n succeeds, frame n+1's LP solve,
  /// transfer planning and (real mode) mirror prestaging run in the shadow
  /// of frame n's execution — in real mode on a genuinely concurrent
  /// lane-runtime thread, where mirror prestaging runs on every frame (it
  /// needs no characterization) — and the schedule is consumed next frame
  /// only if the device set, R* placement, reference window and
  /// characterization still match (drift < lb.convergence_epsilon). Any
  /// mismatch (fault retry, grant churn, perturbation spike) discards the
  /// slot and re-solves synchronously from fresh state, so adaptation
  /// latency and output are bit-identical to the unpipelined loop; only the
  /// critical-path scheduling cost changes.
  bool enable_pipeline = true;
};

/// Everything measured about one encoded inter-frame.
struct FrameStats {
  int frame_number = 0;    ///< 1-based inter-frame index
  int active_refs = 1;     ///< reference-window size in effect
  double total_ms = 0.0;   ///< τtot: inter-loop time of this frame
                           ///< (includes any failed attempts' wall time)
  double tau1_ms = 0.0;    ///< measured τ1 (ME/INT + gathers done)
  double tau2_ms = 0.0;    ///< measured τ2 (SME done everywhere)
  double scheduling_ms = 0.0;  ///< LB + data-access planning wall time
  Distribution dist;       ///< the distribution that produced the frame
  // Fault-recovery accounting:
  int retries = 0;               ///< failed execution attempts before success
  int devices_quarantined = 0;   ///< devices newly quarantined this frame
  int devices_readmitted = 0;    ///< devices entering probation after it
  int active_devices = 0;        ///< devices the successful attempt ran on
  /// Scheduler telemetry: LP effort and predicted-vs-measured times.
  obs::SchedTelemetry telemetry;
  double fps() const { return total_ms > 0 ? 1000.0 / total_ms : 0.0; }
};

/// One scheduling decision: the distribution the policy produced, the
/// transfer plans derived from it, and the LP effort it took. Produced by
/// compute_schedule() either synchronously on the critical path or
/// speculatively inside the frame pipeline.
struct ScheduleDecision {
  Distribution dist;
  std::vector<TransferPlan> plans;
  BalanceStats lb;
};

/// Runs one full scheduling step shared by both frameworks: policy dispatch
/// (Algorithm 2 / proportional / equidistant, including the probe path for
/// partially characterized grants and the R*-pin quarantine fallback), then
/// transfer planning. Mutates `dam`'s deferred-SF state and the balancer's
/// warm-start cache.
ScheduleDecision compute_schedule(const FrameworkOptions& opts,
                                  LoadBalancer& balancer,
                                  const PerfCharacterization& perf,
                                  const DeviceHealthMonitor& health,
                                  DataAccessManagement& dam,
                                  const std::vector<bool>& active,
                                  int rf_holder, int active_refs);

/// One precomputed frame of the two-slot pipeline: the speculative schedule
/// for frame `frame`, the advanced copy of the Data Access state it was
/// planned against, and the inputs it speculated on (validated at consume
/// time against the then-current platform state).
struct PipelineSlot {
  bool valid = false;
  int frame = 0;
  int active_refs = 0;
  int rf_holder = -1;
  std::vector<bool> active;
  std::vector<DeviceParams> params;  ///< characterization at solve time
  ScheduleDecision sched;
  std::optional<DataAccessManagement> dam;
  double cost_ms = 0.0;  ///< wall time the precompute took (overlapped)
};

/// Consume-time validation: the slot's speculation still matches this
/// attempt's scheduling inputs — same schedulable set, R* holder and
/// reference window, and every active device's characterization within the
/// convergence epsilon of the snapshot the slot was solved under.
bool pipeline_slot_matches(const PipelineSlot& slot, int frame,
                           const std::vector<bool>& active, int rf_holder,
                           int active_refs, const PerfCharacterization& perf,
                           double epsilon);

/// Frame-boundary snapshot of Algorithm 1's adaptive state — the minimal
/// cross-frame scheduling state either framework needs to resume from the
/// frame after the snapshot. Pixels (the reference window) are real-mode
/// only and live in EncoderCheckpoint (collaborative_encoder.hpp); the
/// service layer wraps both in a SessionCheckpoint. Copyable by value so a
/// checkpoint can outlive the framework it was taken from — restoring into
/// a freshly constructed framework is exactly the resume-elsewhere story.
struct FrameworkCheckpoint {
  int next_frame = 1;  ///< first inter-frame NOT covered by the snapshot
  int rf_holder = 0;   ///< device holding the newest RF at the boundary
  PerfCharacterization perf{1};  ///< K parameters at the last good frame
  DeviceHealthMonitor health{1}; ///< quarantine/probation state
};

class VirtualFramework {
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

  const PerfCharacterization& characterization() const { return perf_; }
  const DeviceHealthMonitor& health() const { return health_; }
  int frames_encoded() const { return next_frame_ - 1; }

 private:
  EncoderConfig cfg_;
  PlatformTopology topo_;
  FrameworkOptions opts_;
  PerturbationSchedule perturbations_;
  FaultSchedule faults_;
  LoadBalancer balancer_;
  DataAccessManagement dam_;
  PerfCharacterization perf_;
  DeviceHealthMonitor health_;
  int next_frame_ = 1;   ///< next inter-frame number (frame 0 is the I frame)
  int rf_holder_ = 0;    ///< device that produced the newest RF
  PipelineSlot slot_;    ///< next frame's speculative schedule
  std::vector<double> slowdown_;  ///< per-attempt scratch (capacity reused)

  /// Precomputes `slot_` for frame+1 from the pre-fold characterization
  /// (honestly modelling the overlap: the speculative solve cannot see the
  /// measurements of the execution it overlaps).
  void precompute_next(int frame, const std::vector<bool>& active,
                       const Distribution& dist);
};

/// One attempt's schedulable set: the health monitor's active mask
/// intersected with the grant's device subset (a grant with no mask passes
/// health through). Fails loudly when the intersection is empty — every
/// granted device is quarantined, so the session cannot progress and its
/// arbiter must be asked for a different share. Shared by both frameworks.
std::vector<bool> granted_active_mask(const DeviceHealthMonitor& health,
                                      const FrameGrant& grant, int frame);

/// Folds one frame's measured per-op times into the characterization
/// (Algorithm 1 lines 5-6/10; shared by the virtual and real frameworks).
/// Only ops that completed cleanly are folded: failed, timed-out and
/// cancelled ops carry truncated or zero durations that would poison the
/// K parameters every later LP consumes.
void attribute_frame_times(const EncoderConfig& cfg,
                           const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           PerfCharacterization* perf);

/// Fills `telemetry->dev` with predicted-vs-measured per-module times:
/// predicted = assigned rows × the K parameter the scheduler consumed
/// (call BEFORE attribute_frame_times folds this frame's measurements),
/// measured = the op's span in the execution result. Shared by both
/// frameworks.
void fill_device_telemetry(const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           const PerfCharacterization& perf,
                           obs::SchedTelemetry* telemetry);

}  // namespace feves
