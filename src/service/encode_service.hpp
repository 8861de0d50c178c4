// Multi-session encode service: N concurrent encode sessions over one
// shared heterogeneous device pool. Each submitted session runs its own
// Algorithm-1 loop on a worker thread, behind a SessionEncoder handle
// (resilience.hpp: VirtualFramework without a video source, the real
// CollaborativeEncoder with one); every frame it asks the PoolArbiter for
// a weighted fair share of the free devices, encodes over that grant — the
// LP balancing only the granted subset, the executors enforcing the lease —
// and releases the share with the frame's duration so the arbiter's
// virtual clocks and fairness accounting advance.
//
// The correctness anchor survives multi-tenancy: a session's bitstream and
// reconstruction are bit-identical to encoding the same sequence alone,
// whatever the arbiter grants frame to frame (tests/service/service_test).
//
// Resilience (src/service/resilience.hpp): each session, in either mode,
// climbs one escalation ladder instead of dying on the first escaped
// exception — per-frame op retries (inside the frame loop), whole-grant
// re-requests, deadline-budgeted checkpoint-restarts with jittered
// backoff, and finally an attributed terminal state (SessionResult::reason). Frame-boundary
// SessionCheckpoints also flow out through SessionResult::checkpoint and
// back in through SessionConfig::resume, so an aborted or crashed session
// can be resubmitted and continue bit-identically from its last good frame.
// Service-wide, a pool-exhaustion circuit breaker paces sessions through
// quarantine storms and the arbiter's bounded admission queue sheds the
// lowest-priority overload instead of stalling everyone.
#pragma once

#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"
#include "service/arbiter.hpp"
#include "service/resilience.hpp"
#include "video/sequence.hpp"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace feves {

/// One encode session: a sequence plus the framework options to run it
/// with. `source == nullptr` selects virtual mode (the DES framework over
/// `frames` inter-frames); a source selects real mode (frame 0 is the
/// bootstrap I frame, encoded host-side without a grant).
struct SessionConfig {
  EncoderConfig cfg;
  FrameworkOptions fw;
  int frames = 8;
  double weight = 1.0;  ///< fair-share weight (arbiter + shedding priority)
  /// Retry / checkpoint / degradation policy for this session.
  ResilienceOptions resilience;
  /// Resume from a prior session's checkpoint (same config and source):
  /// encoding continues at the first frame the snapshot does not cover and
  /// `frames` still names the stream total, so the session encodes frames
  /// [checkpoint, frames). The emitted bitstream holds only the
  /// continuation — append it to the crashed session's first
  /// `checkpoint->bitstream_bytes` bytes to reassemble the full stream.
  std::shared_ptr<const SessionCheckpoint> resume;
  // Virtual-mode inputs:
  PerturbationSchedule perturbations;
  FaultSchedule faults;
  // Real-mode inputs:
  std::shared_ptr<VideoSource> source;
  SimdTier tier = SimdTier::kAuto;
};

struct SessionResult {
  enum class State { kCompleted, kAborted, kShed, kFailed };
  int id = -1;
  State state = State::kCompleted;
  TerminalReason reason = TerminalReason::kCompleted;
  std::string error;               ///< kFailed: what the session threw
  std::vector<FrameStats> frames;  ///< per encoded inter-frame
  std::vector<u8> bitstream;       ///< real mode only
  SessionStats share;              ///< arbiter accounting (virtual times)
  /// Last frame-boundary checkpoint taken (valid==false when none was) —
  /// feed it to SessionConfig::resume to restart a dead session elsewhere.
  SessionCheckpoint checkpoint;
  obs::ResilienceTelemetry resilience;  ///< this session's recovery counters
  /// Where the graceful-degradation ladder ended: 0 = intact, 1 = grant
  /// shrunk to degraded_max_devices, 2 = search range also reduced.
  int degrade_level = 0;
};

/// Service-level aggregate over every session submitted so far.
struct ServiceStats {
  int admitted = 0;
  int rejected = 0;   ///< submissions refused by admission control
  int shed = 0;       ///< admitted sessions later shed by queue pressure
  long total_frames = 0;
  double makespan_ms = 0.0;      ///< latest session virtual end
  double aggregate_fps = 0.0;    ///< total_frames / makespan
  double sum_session_fps = 0.0;  ///< Σ per-session fps
  double total_queue_wait_ms = 0.0;
  double mean_grant_utilization = 0.0;
  std::vector<double> device_busy_ms;
  /// Recovery counters summed over finished sessions (breaker_trips is
  /// service-wide: the breaker is shared).
  obs::ResilienceTelemetry resilience;
};

struct ServiceOptions {
  ArbiterOptions arbiter;
  CircuitBreakerOptions breaker;
};

class EncodeService {
 public:
  EncodeService(const PlatformTopology& topo, ServiceOptions opts = {});
  /// Aborts and joins every still-running session.
  ~EncodeService();

  /// Starts a session on its own worker thread. Returns the session id, or
  /// -1 when admission control refused it (live sessions and admission
  /// queue both full, and the session's weight does not beat any queued
  /// one). When `cfg.fw.trace` is set, the TraceSession is stamped with the
  /// session id (it must outlive the service and not be shared between
  /// sessions).
  int submit(SessionConfig cfg);

  /// Requests a session stop before its next frame (and wakes it if it is
  /// parked in the arbiter). The partial result stays collectable.
  void abort(int session);

  /// Joins the session and returns its result. Each id collectable once.
  SessionResult wait(int session);

  /// wait() for every not-yet-collected session, in submission order.
  std::vector<SessionResult> drain();

  /// Aggregate snapshot (meaningful once sessions finished; callable any
  /// time). Does not include sessions' own FrameStats — those are in the
  /// per-session results.
  ServiceStats stats() const;

  const PlatformTopology& topology() const { return topo_; }
  const PoolArbiter& arbiter() const { return arbiter_; }

 private:
  struct Session {
    int id = -1;
    SessionConfig cfg;
    std::thread thread;
    std::atomic<bool> abort{false};
    SessionResult result;
    bool collected = false;
  };

  void run_session(Session* s);
  /// The session's escalation ladder over its SessionEncoder, either mode.
  TerminalReason run_ladder(Session* s);
  /// Sleeps ~ms (sliced so an abort cuts it short), booking the wait into
  /// the session's telemetry and trace lane.
  void backoff_sleep(Session* s, double ms, int frame, const char* why);
  /// Devices the distribution actually assigned work to.
  static int used_devices(const Distribution& dist);

  PlatformTopology topo_;
  ServiceOptions opts_;
  PoolArbiter arbiter_;
  CircuitBreaker breaker_;
  mutable std::mutex mu_;  ///< guards sessions_ vector growth / collection
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<int> rejected_{0};
  // Aggregated under mu_ as sessions finish (results move out on wait()).
  obs::ResilienceTelemetry finished_resilience_;
  int shed_sessions_ = 0;
};

}  // namespace feves
