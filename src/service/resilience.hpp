// Session-level resilience policy for the encode service: the pieces that
// turn "any escaped exception is session death" into a budgeted recovery
// ladder. Per-frame op retries live inside the frameworks (FrameLoop, a
// fixed budget of 8 per frame) and whole-grant re-requests in the session
// loop; this layer adds the two rungs above them —
//
//   op retry  →  grant re-request  →  checkpoint-restart  →  fail w/ reason
//
// — plus the service-wide overload machinery: deadline budgets with
// exponential backoff + deterministic jitter, a pool-exhaustion circuit
// breaker shared by every session, and a graceful-degradation ladder
// (shrink the fair-share grant, then — virtual mode only, where there is
// no bitstream to keep bit-exact — reduce the search range).
#pragma once

#include "common/rng.hpp"
#include "core/collaborative_encoder.hpp"
#include "obs/telemetry.hpp"
#include "video/sequence.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>

namespace feves {

/// Why a session reached its terminal state. Every SessionResult carries
/// exactly one of these — chaos-harness invariant: no session ends without
/// an attributed reason.
enum class TerminalReason {
  kCompleted,          ///< encoded every requested frame
  kAborted,            ///< abort() landed (or the service shut down)
  kShed,               ///< dropped by priority-aware admission shedding
  kDeadlineExceeded,   ///< per-session deadline_ms budget ran out
  kRestartsExhausted,  ///< ladder reached max_restarts without recovering
  kNoUsableDevice,     ///< no device left and restarting is disabled
  kProbationChurn,     ///< retries burned re-probing probation devices that
                       ///< kept relapsing — distinct from a drained pool
  kNoLiveWorker,       ///< cluster tier: every worker node stayed dead past
                       ///< the reassignment grace window
  kError,              ///< unexpected exception (bug, not policy)
};

const char* to_string(TerminalReason reason);

/// Per-session resilience policy (SessionConfig::resilience).
struct ResilienceOptions {
  /// Frames between checkpoints (1 = every frame boundary; 0 disables
  /// checkpointing, so a restart replays the session from frame 0).
  int checkpoint_interval = 1;
  /// Checkpoint-restarts allowed before the session fails with
  /// kRestartsExhausted. 0 disables the restart rung entirely.
  int max_restarts = 4;
  /// Wall-clock budget for the whole session including every retry and
  /// restart; 0 = unbounded. Exceeding it fails with kDeadlineExceeded.
  double deadline_ms = 0.0;
  // Exponential backoff between restarts, jittered to de-synchronize
  // sessions recovering from the same storm. Deterministic per salt.
  double backoff_initial_ms = 0.5;
  double backoff_factor = 2.0;
  double backoff_max_ms = 50.0;
  double backoff_jitter = 0.5;  ///< ± fraction of the delay randomized
  /// Degradation ladder: after this many restarts the session asks the
  /// arbiter for at most `degraded_max_devices` (shrinking its fair share
  /// to leave the storming pool room to drain); < 0 disables the ladder.
  /// Second rung, virtual mode only (a real session's bitstream must stay
  /// bit-exact): restarts past the degrade point also halve the search
  /// range, shrinking per-frame device time under sustained storms.
  int degrade_after_restarts = 2;
  int degraded_max_devices = 1;
};

/// Exponential backoff ladder with deterministic ± jitter.
class Backoff {
 public:
  Backoff(const ResilienceOptions& opts, u64 salt)
      : opts_(opts), rng_(kSeed ^ salt) {}

  /// Delay for the next attempt; each call climbs the ladder.
  double next_ms() {
    const double base =
        std::min(opts_.backoff_max_ms,
                 opts_.backoff_initial_ms * std::pow(opts_.backoff_factor,
                                                     static_cast<double>(attempts_)));
    ++attempts_;
    const double jitter = opts_.backoff_jitter * base;
    return std::max(0.0, base + rng_.uniform_real(-jitter, jitter));
  }

  void reset() { attempts_ = 0; }
  int attempts() const { return attempts_; }

 private:
  /// Jitter seed; the caller's salt de-synchronizes ladders while keeping
  /// each one reproducible.
  static constexpr u64 kSeed = 0xB0FFull;

  ResilienceOptions opts_;
  Rng rng_;
  int attempts_ = 0;
};

struct CircuitBreakerOptions {
  /// Consecutive whole-grant failures (service-wide) that trip the breaker.
  int trip_threshold = 6;
  /// Cool-down while open; afterwards half-open lets probes through.
  double open_ms = 5.0;
};

/// Pool-exhaustion circuit breaker, shared by every session of a service.
/// When grant after grant dies across sessions (a quarantine storm has
/// poisoned most of the pool), the breaker opens and sessions wait out the
/// cool-down instead of hammering the arbiter with doomed acquire/fail
/// cycles; a half-open probe closing it re-opens the floodgates.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions opts = {}) : opts_(opts) {}

  /// A whole grant died mid-frame.
  void record_failure() {
    std::lock_guard lock(mu_);
    ++consecutive_failures_;
    if (state_ == State::kClosed &&
        consecutive_failures_ >= opts_.trip_threshold) {
      trip_locked();
    } else if (state_ == State::kHalfOpen) {
      trip_locked();  // probe failed: back to open, fresh cool-down
    }
  }

  /// A frame completed cleanly on its grant.
  void record_success() {
    std::lock_guard lock(mu_);
    consecutive_failures_ = 0;
    state_ = State::kClosed;
  }

  /// 0 when requests may proceed (closed, or open long enough to probe);
  /// otherwise the remaining cool-down the caller should sleep before
  /// asking again.
  double wait_ms() {
    std::lock_guard lock(mu_);
    if (state_ == State::kClosed || state_ == State::kHalfOpen) return 0.0;
    const double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - opened_at_)
            .count();
    if (elapsed >= opts_.open_ms) {
      state_ = State::kHalfOpen;
      return 0.0;
    }
    return opts_.open_ms - elapsed;
  }

  int trips() const {
    std::lock_guard lock(mu_);
    return trips_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  enum class State { kClosed, kOpen, kHalfOpen };

  void trip_locked() {
    state_ = State::kOpen;
    opened_at_ = Clock::now();
    ++trips_;
  }

  CircuitBreakerOptions opts_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int trips_ = 0;
  Clock::time_point opened_at_{};
};

/// Frame-boundary snapshot of one service session: the encoder-side
/// checkpoint plus the session-side resume coordinates (how much of the
/// result — frames, bitstream bytes — the snapshot covers). Virtual
/// sessions leave `enc.refs` empty.
struct SessionCheckpoint {
  bool valid = false;
  std::size_t frames_recorded = 0;   ///< FrameStats entries at the boundary
  std::size_t bitstream_bytes = 0;   ///< real mode: stream length to keep
  EncoderCheckpoint enc;
};

/// One session's encoder behind a mode-blind handle: what the escalation
/// ladder (EncodeService) and the cluster worker (LoopbackWorker) drive.
/// Without a source it wraps a VirtualFramework; with one, a
/// CollaborativeEncoder whose frame 0 is the host-side bootstrap I frame.
class SessionEncoder {
 public:
  SessionEncoder(const EncoderConfig& cfg, const PlatformTopology& topo,
                 const FrameworkOptions& fw,
                 std::shared_ptr<VideoSource> source,
                 const PerturbationSchedule& perturbations,
                 const FaultSchedule& faults);

  /// Loads stream frame `f` (real mode counts the I frame); false once the
  /// source has ended. Virtual mode has nothing to load.
  bool load(int f) {
    return source_ == nullptr || source_->read_frame(f, frame_);
  }
  /// The next frame is the bootstrap I frame, which takes no device grant.
  bool bootstrap_next() const {
    return enc_ != nullptr && enc_->frames_encoded() == 0;
  }
  /// Encodes the loaded frame over `grant`; real mode appends its bytes to
  /// `bitstream`.
  FrameStats encode_frame(const FrameGrant& grant, std::vector<u8>* bitstream);
  EncoderCheckpoint checkpoint() const;
  void restore(const EncoderCheckpoint& cp);
  const DeviceHealthMonitor& health() const {
    return vfw_ != nullptr ? vfw_->health() : enc_->health();
  }

 private:
  std::shared_ptr<VideoSource> source_;
  Frame420 frame_;
  std::unique_ptr<VirtualFramework> vfw_;
  std::unique_ptr<CollaborativeEncoder> enc_;
};

/// Per-session budget/ladder bookkeeping driving the session loop: tracks
/// the deadline, meters restarts through the backoff, reports grant
/// outcomes to the shared breaker, and answers where on the degradation
/// ladder the session currently sits.
class SessionGovernor {
 public:
  SessionGovernor(const ResilienceOptions& opts, CircuitBreaker* breaker,
                  u64 backoff_salt)
      : opts_(opts), breaker_(breaker), backoff_(opts, backoff_salt),
        start_(Clock::now()) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  bool deadline_exceeded() const {
    return opts_.deadline_ms > 0.0 && elapsed_ms() >= opts_.deadline_ms;
  }
  /// Remaining budget; huge when unbounded.
  double remaining_ms() const {
    if (opts_.deadline_ms <= 0.0) return 1e18;
    return std::max(0.0, opts_.deadline_ms - elapsed_ms());
  }

  bool can_restart() const {
    return opts_.max_restarts > 0 && restarts_ < opts_.max_restarts &&
           !deadline_exceeded();
  }
  /// Books one checkpoint-restart and returns the (deadline-clamped)
  /// backoff delay to sleep before it. Call only when can_restart().
  double begin_restart() {
    ++restarts_;
    return std::min(backoff_.next_ms(), remaining_ms());
  }

  void frame_completed() {
    backoff_.reset();
    if (breaker_ != nullptr) breaker_->record_success();
  }
  void grant_lost() {
    if (breaker_ != nullptr) breaker_->record_failure();
  }
  /// Deadline-clamped breaker cool-down to sleep before the next acquire
  /// (0 = proceed).
  double breaker_wait_ms() {
    if (breaker_ == nullptr) return 0.0;
    return std::min(breaker_->wait_ms(), remaining_ms());
  }

  int restarts() const { return restarts_; }
  bool degraded() const {
    return opts_.degrade_after_restarts >= 0 &&
           restarts_ > opts_.degrade_after_restarts;
  }
  /// Grant-size cap for PoolArbiter::acquire (0 = uncapped).
  int max_devices_hint() const {
    return degraded() ? std::max(1, opts_.degraded_max_devices) : 0;
  }
  /// Virtual-mode search range after degradation (identity when intact).
  int degraded_search_range(int search_range) const {
    if (!degraded()) return search_range;
    return std::max(4, search_range / 2);
  }

 private:
  using Clock = std::chrono::steady_clock;
  ResilienceOptions opts_;
  CircuitBreaker* breaker_;
  Backoff backoff_;
  Clock::time_point start_;
  int restarts_ = 0;
};

}  // namespace feves
