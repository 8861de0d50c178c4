// Per-frame scheduler telemetry: what the load balancer PREDICTED (the LP's
// τ values and the per-module times implied by the K parameters it consumed)
// versus what the executor MEASURED. The misprediction error is the quantity
// Algorithm 1's on-the-fly re-characterization exists to keep small — making
// it observable turns "the LP converged" from an assumption into a metric.
#pragma once

#include <cmath>
#include <vector>

namespace feves::obs {

/// Predicted-vs-measured pair for one module on one device (milliseconds).
/// predicted = rows × the K parameter the LP consumed; measured = the op's
/// span in the successful attempt. 0 where the module was not assigned.
struct ModuleTimes {
  double predicted_ms = 0.0;
  double measured_ms = 0.0;

  /// |error| relative to the measurement (0 when either side is unknown).
  double error() const {
    if (predicted_ms <= 0.0 || measured_ms <= 0.0) return 0.0;
    return std::abs(measured_ms - predicted_ms) / measured_ms;
  }
};

struct DeviceTelemetry {
  ModuleTimes me, interp, sme;
};

/// Session-resilience counters. Scoped by the holder: embedded in a
/// FrameStats they describe one frame's recovery activity (the restarts and
/// backoff that preceded it, the checkpoint taken after it); in a
/// SessionResult the whole session; in ServiceStats the whole service —
/// including the service-only counters (shed sessions, breaker trips).
struct ResilienceTelemetry {
  int checkpoints_taken = 0;
  int checkpoints_restored = 0;
  int restarts = 0;          ///< checkpoint-restarts performed
  int frames_replayed = 0;   ///< frames re-encoded because of restarts
  int backoff_waits = 0;     ///< backoff / breaker sleeps taken
  double backoff_wait_ms = 0.0;
  double checkpoint_ms = 0.0;  ///< wall time spent snapshotting state
  int shed_sessions = 0;       ///< sessions shed by admission control
  int breaker_trips = 0;       ///< pool-exhaustion circuit-breaker opens
  int degraded_sessions = 0;   ///< sessions that stepped down the ladder
  int probation_relapses = 0;  ///< retries burned on all-probation grants
                               ///< that failed again (churn attribution)

  void merge(const ResilienceTelemetry& o) {
    checkpoints_taken += o.checkpoints_taken;
    checkpoints_restored += o.checkpoints_restored;
    restarts += o.restarts;
    frames_replayed += o.frames_replayed;
    backoff_waits += o.backoff_waits;
    backoff_wait_ms += o.backoff_wait_ms;
    checkpoint_ms += o.checkpoint_ms;
    shed_sessions += o.shed_sessions;
    breaker_trips += o.breaker_trips;
    degraded_sessions += o.degraded_sessions;
    probation_relapses += o.probation_relapses;
  }
};

/// Cluster-tier counters: the WorkerManager's view of node liveness and
/// work movement. Scoped by the holder — per session in a
/// ClusterSessionResult (only the work-movement counters are meaningful
/// there), whole-manager in WorkerManager::telemetry() (which adds the
/// node-liveness counters; heartbeats are manager-wide, not per session).
struct NodeTelemetry {
  // Work movement.
  int dispatches = 0;      ///< shard submissions acknowledged by a worker
  int completions = 0;     ///< shard results committed (epoch matched)
  int fenced_replies = 0;  ///< stale-epoch results dropped (zombie nodes,
                           ///< healed partitions, false-positive deaths)
  int lease_expiries = 0;  ///< leases that timed out before completing
  int reassigns = 0;       ///< shards re-dispatched after a fence
  int steals = 0;          ///< reassigns that landed on a different node
  int epoch_fences = 0;    ///< outstanding-lease invalidations (epoch bumps
                           ///< beyond the one every dispatch performs)
  int rpc_retries = 0;     ///< deadline/unreachable RPC attempts retried
  // Node liveness (manager-wide).
  int heartbeats = 0;        ///< heartbeat RPCs attempted
  int heartbeat_misses = 0;  ///< heartbeats that timed out / went unreachable
  int nodes_suspected = 0;   ///< alive/probation -> suspect transitions
  int nodes_died = 0;        ///< suspect -> dead declarations
  int nodes_rejoined = 0;    ///< dead nodes re-admitted (new incarnation)
};

/// Everything measured about one frame's scheduling decision.
struct SchedTelemetry {
  // LP solver effort (summed over the ∆ fix-point and any retry attempts).
  int lp_solves = 0;          ///< lp::solve calls
  int lp_iterations = 0;      ///< simplex pivots across those solves
  int lp_fallbacks = 0;       ///< anti-cycling Bland's-rule activations
  double lp_solve_ms = 0.0;   ///< wall time inside lp::solve
  int delta_iterations = 0;   ///< MS/LS_BOUNDS fix-point rounds
  int lp_warm_solves = 0;     ///< solves that accepted the previous basis
  int lp_skipped = 0;         ///< solves skipped by the convergence detector
                              ///< (cached distribution reused)

  // Frame pipeline: how this frame's schedule reached the critical path.
  int pipeline_hits = 0;    ///< schedule consumed from the two-slot pipeline
  int pipeline_misses = 0;  ///< precomputed schedule discarded (drift,
                            ///< device-set change, retry) and re-solved
  double sched_critical_ms = 0.0;    ///< scheduling time ON the critical
                                     ///< path (consume/validate, or the full
                                     ///< synchronous solve on a miss)
  double sched_overlapped_ms = 0.0;  ///< scheduling time hidden in the
                                     ///< previous frame's execution shadow

  /// Fraction of this frame's scheduling work that ran off the critical
  /// path (0 when nothing was overlapped).
  double pipeline_overlap_ratio() const {
    const double total = sched_critical_ms + sched_overlapped_ms;
    return total > 0.0 ? sched_overlapped_ms / total : 0.0;
  }

  // The LP's synchronization-point predictions (0 under non-LP policies)
  // against the successful attempt's measurements.
  double predicted_tau1_ms = 0.0, measured_tau1_ms = 0.0;
  double predicted_tau2_ms = 0.0, measured_tau2_ms = 0.0;
  double predicted_tau_tot_ms = 0.0, measured_tau_tot_ms = 0.0;

  std::vector<DeviceTelemetry> dev;  ///< per-device module breakdown

  /// Relative τtot misprediction — the headline number feeding FrameStats.
  double misprediction() const {
    if (predicted_tau_tot_ms <= 0.0 || measured_tau_tot_ms <= 0.0) return 0.0;
    return std::abs(measured_tau_tot_ms - predicted_tau_tot_ms) /
           measured_tau_tot_ms;
  }

  /// Worst per-module relative error over every device (prediction quality
  /// of the K parameters themselves, before LP slack absorbs anything).
  double worst_module_error() const {
    double worst = 0.0;
    for (const DeviceTelemetry& d : dev) {
      worst = std::max({worst, d.me.error(), d.interp.error(), d.sme.error()});
    }
    return worst;
  }
};

}  // namespace feves::obs
