// Framework Control (paper Algorithm 1): the per-frame loop tying together
// Load Balancing, the Video Coding Manager, Data Access Management and
// Performance Characterization.
//
//   initialization (first inter-frame): equidistant split, record times,
//     build the initial characterization;
//   iterative (every further inter-frame): balance from the measured K
//     parameters, orchestrate, record, update.
//
// FrameLoop is that loop, written once for both modes. It owns the
// cross-frame Algorithm-1 state (balancer, Data Access state, performance
// characterization, device health, RF holder, pipeline slot) and runs one
// inter-frame as a sequence of attempts: schedule (or consume the pipeline
// slot), execute with frame n+1's speculation in the shadow, and either
// quarantine the failed devices and retry, or fold the measurements.
// Virtual mode (VirtualFramework, framework.hpp) and real mode
// (CollaborativeEncoder, collaborative_encoder.hpp) derive from it and
// differ only in the hooks: how an attempt's backend executes, and the
// staging work real mode's device mirrors need around it.
#pragma once

#include "core/coding_manager.hpp"
#include "core/data_access.hpp"
#include "core/health.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "platform/fault.hpp"
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
  /// Observability: when non-null, the host-side scheduling phases and,
  /// after each execution joins, every op the executor ran are added to
  /// this session's sink frame by frame (Chrome trace export). The session
  /// must outlive the framework. Null = zero tracing overhead.
  obs::TraceSession* trace = nullptr;
  /// Two-slot frame pipeline: while frame n executes, frame n+1's LP solve,
  /// transfer planning and (real mode) mirror prestaging run in its shadow
  /// on a lane-runtime thread — mirror prestaging on every frame (it needs
  /// no characterization). The schedule is published only when frame n
  /// succeeds and consumed next frame only if the device set, R*
  /// placement, reference window and characterization still match (drift
  /// < lb.convergence_epsilon). Any mismatch (fault retry, grant churn,
  /// perturbation spike) discards the slot and re-solves synchronously from
  /// fresh state, so adaptation latency and output are bit-identical to the
  /// unpipelined loop; only the critical-path scheduling cost changes.
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
                                 ///< (ScheduleDecision::run)
  /// Scheduler telemetry: LP effort and predicted-vs-measured times.
  obs::SchedTelemetry telemetry;
  double fps() const { return total_ms > 0 ? 1000.0 / total_ms : 0.0; }
};

/// One scheduling decision: the distribution the policy produced, the
/// devices that run it, the transfer plans derived from it, and the LP
/// effort it took — made either synchronously on the critical path or
/// speculatively in the pipeline.
struct ScheduleDecision {
  Distribution dist;
  /// Devices that run this frame: rows in any module, or R*. The others
  /// sit the frame out like a quarantined device — no plan, no ops, no
  /// mirror staging (their mirrors go stale and are restaged whole when
  /// they run again).
  std::vector<bool> run;
  std::vector<TransferPlan> plans;
  BalanceStats lb;
};

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

/// Frame-boundary snapshot of Algorithm 1's adaptive state — the minimal
/// cross-frame scheduling state either framework needs to resume from the
/// frame after the snapshot. Pixels (the reference window) are real-mode
/// only and live in EncoderCheckpoint (collaborative_encoder.hpp); the
/// service layer wraps that in a SessionCheckpoint. Copyable by value so a
/// checkpoint can outlive the framework it was taken from — restoring into
/// a freshly constructed framework is exactly the resume-elsewhere story.
struct FrameworkCheckpoint {
  int next_frame = 1;  ///< first inter-frame NOT covered by the snapshot
  int rf_holder = 0;   ///< device holding the newest RF at the boundary
  PerfCharacterization perf{1};  ///< K parameters at the last good frame
  DeviceHealthMonitor health{1}; ///< quarantine/probation state
};

/// Folds one frame's measured per-op times into the characterization
/// (Algorithm 1 lines 5-6/10). Only ops that completed cleanly are folded:
/// failed, timed-out and cancelled ops carry truncated or zero durations
/// that would poison the K parameters every later LP consumes.
void attribute_frame_times(const EncoderConfig& cfg,
                           const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           PerfCharacterization* perf);

class FrameLoop {
 public:
  const PerfCharacterization& characterization() const { return perf_; }
  const DeviceHealthMonitor& health() const { return health_; }

 protected:
  /// `next_frame` numbers the first frame the loop will see (1 in virtual
  /// mode, whose I frame is implicit; 0 in real mode, which encodes it).
  /// `host` is what the backend's devices compute on: kDedicated in
  /// virtual mode, kShared in real mode (every device runs on this host's
  /// cores), which the balancer prices (load_balancer.hpp).
  FrameLoop(const EncoderConfig& cfg, const PlatformTopology& topo,
            const FrameworkOptions& opts, FaultSchedule faults, int next_frame,
            HostModel host);

  FrameworkCheckpoint checkpoint_state() const;
  /// Restores the adaptive state; drops the pipeline slot and the
  /// deferred-SF ledger, which describe frames the snapshot does not cover.
  void restore_state(const FrameworkCheckpoint& cp);

  /// Runs inter-frame `next_frame_` over `active_refs` references until an
  /// attempt succeeds; throws when the retry budget runs out or no granted
  /// device is left. The caller commits (++next_frame_) on return, so a
  /// throw leaves the frame re-submittable on a fresh grant.
  FrameStats run_frame(int active_refs, const FrameGrant& grant);

  // ---- Per-mode hooks --------------------------------------------------
  /// Readies attempt `attempt` (0-based) of the frame on the devices that
  /// run it (`run`, ScheduleDecision::run), after its schedule is known and
  /// before its shadow starts.
  virtual void prepare_attempt(int /*frame*/, int /*attempt*/,
                               int /*active_refs*/,
                               const std::vector<bool>& /*run*/) {}
  /// Builds the frame's backend and op graph for `sd` and executes it.
  virtual ExecutionResult execute(int frame, int active_refs,
                                  const ScheduleDecision& sd,
                                  const ExecuteOptions& exec,
                                  FrameOpIds* ids) = 0;
  /// Mode-specific shadow work for the devices running this attempt
  /// (`run`), beside frame+1's speculation while the attempt executes;
  /// must touch nothing execute() does.
  virtual void shadow(const std::vector<bool>& /*run*/, int /*next_refs*/) {}
  /// After a failed attempt, once its faulty devices are recorded.
  virtual void attempt_failed() {}
  /// After the successful attempt, before its measurements fold in.
  virtual void attempt_succeeded(int /*frame*/) {}

  EncoderConfig cfg_;
  PlatformTopology topo_;
  FrameworkOptions opts_;
  FaultSchedule faults_;
  LoadBalancer balancer_;
  DataAccessManagement dam_;
  PerfCharacterization perf_;
  DeviceHealthMonitor health_;
  int next_frame_;
  int rf_holder_ = 0;  ///< device that produced the newest RF
  PipelineSlot slot_;  ///< next frame's speculative schedule
  /// Balancer warm-start cache before the shadow's speculative solve,
  /// restored when the attempt fails so a dropped speculation leaves no
  /// trace (capacity reused across frames).
  LoadBalancer::WarmState warm_before_spec_;
};

}  // namespace feves
