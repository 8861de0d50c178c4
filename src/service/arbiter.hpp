// Pool arbiter: the fair-share policy of the multi-session encode service.
// Sessions are admitted up to a bound, and each frame they request a grant —
// a leased subset of the shared device pool sized by weighted fair share
// (grant ≈ pool × weight / Σ active weights, at least one device, clamped to
// what is currently free, so idle sessions' shares rebalance to active ones
// automatically). Between eligible waiters the next grant goes to the
// session with the least weighted virtual service (Σ device·ms consumed /
// weight) — start-time fair queueing over devices instead of link bandwidth.
//
// Two timelines coexist:
//  * Wall clock: grants are mutually exclusive via the DevicePool, so
//    concurrent sessions really do run on disjoint devices.
//  * Virtual clock: release() advances per-device busy time by the frame's
//    reported duration, giving deterministic-shape throughput/queue-wait
//    accounting that works identically for the DES-driven virtual framework
//    (whose frame times are modelled, not elapsed) and the real encoder.
//
// Overload control: beyond the live bound, admit() can park sessions in a
// bounded admission queue (ArbiterOptions::admission_queue). Queued sessions
// are promoted by weight when a live one retires; when the queue itself is
// full, the lowest-weight queued session is shed in favour of a strictly
// higher-weight newcomer — priority-aware load shedding instead of
// tail-drop.
#pragma once

#include "platform/pool.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace feves {

struct ArbiterOptions {
  /// Admission bound: at most this many sessions hold live shares.
  int max_sessions = 16;
  /// Bounded admission queue behind the live bound (0 = refuse instead of
  /// queueing, the legacy behaviour). Queued sessions park in acquire()
  /// without a share until promoted, or are shed under queue pressure.
  int admission_queue = 0;
};

/// How an acquire() call ended when it did not produce a grant — the
/// caller's terminal-state attribution depends on the distinction.
enum class AcquireOutcome {
  kGranted,   ///< grant returned
  kAborted,   ///< abort() landed on the session
  kShed,      ///< session was shed by admission-queue pressure
  kShutdown,  ///< the arbiter is being destroyed
};

/// Arbiter-side accounting for one session (snapshot; all times virtual).
struct SessionStats {
  int frames = 0;                 ///< frames released so far
  double queue_wait_ms = 0.0;     ///< Σ virtual wait for granted devices
  double virtual_end_ms = 0.0;    ///< session's virtual completion time
  double granted_device_ms = 0.0; ///< Σ grant size × frame duration
  double used_device_ms = 0.0;    ///< Σ devices given rows × frame duration
  double weight = 1.0;

  double fps() const {
    return virtual_end_ms > 0 ? 1000.0 * frames / virtual_end_ms : 0.0;
  }
  /// Fraction of granted device-time the scheduler actually assigned rows
  /// to. Low values mean the session is granted more devices than its LP
  /// can use — a sizing (weight) problem, not a scheduling one.
  double grant_utilization() const {
    return granted_device_ms > 0 ? used_device_ms / granted_device_ms : 0.0;
  }
};

class PoolArbiter {
 public:
  /// One grant: the device lease plus the share accounting release() needs.
  /// RAII: a grant that goes out of scope without passing through release()
  /// — an exception unwinding a session loop — hands its devices back to
  /// the pool AND wakes the arbiter's parked waiters. (The lease alone
  /// would free the devices but leave waiters parked on the arbiter's
  /// condition variable until some unrelated event; that silent stall was
  /// the classic leaked-grant failure mode.)
  class Grant {
   public:
    Grant() = default;
    ~Grant() { abandon(); }
    Grant(Grant&& o) noexcept
        : lease(std::move(o.lease)),
          num_devices(o.num_devices),
          arbiter_(o.arbiter_),
          session_(o.session_) {
      o.arbiter_ = nullptr;
      o.num_devices = 0;
    }
    Grant& operator=(Grant&& o) noexcept {
      if (this != &o) {
        abandon();
        lease = std::move(o.lease);
        num_devices = o.num_devices;
        arbiter_ = o.arbiter_;
        session_ = o.session_;
        o.arbiter_ = nullptr;
        o.num_devices = 0;
      }
      return *this;
    }
    Grant(const Grant&) = delete;
    Grant& operator=(const Grant&) = delete;

    DeviceLease lease;
    int num_devices = 0;

   private:
    friend class PoolArbiter;
    void abandon();
    PoolArbiter* arbiter_ = nullptr;
    int session_ = -1;
  };

  PoolArbiter(int num_devices, ArbiterOptions opts = {});
  /// Wakes every parked acquire() with nullopt. Callers must have joined
  /// their session threads before the arbiter is destroyed (leases point
  /// into its pool).
  ~PoolArbiter();

  /// Admits a session with the given fair-share weight; returns its id.
  /// When the live bound is hit the session is queued (admission_queue
  /// permitting); when the queue is also full, the lowest-weight queued
  /// session is shed iff the newcomer's weight is strictly higher —
  /// otherwise the newcomer itself is refused with -1.
  int admit(double weight = 1.0);

  /// Removes a session from the share computation (idempotent) and
  /// promotes the highest-weight queued session, if any, into the freed
  /// live slot. The retired session's accounting remains readable.
  void retire(int session);

  /// Blocks until this session is a live head-of-line waiter and at least
  /// one device in `usable` is free, then grants a fair share of the free
  /// usable devices — at most `max_devices` of them when that is > 0 (the
  /// graceful-degradation rung: a storm-ridden session volunteering to
  /// shrink). `usable` is the session's own view (its health monitor's
  /// active mask): devices it has quarantined are never granted to it, but
  /// stay grantable to everyone else. Returns nullopt when the session was
  /// aborted or shed or the arbiter is shutting down — `outcome`, when
  /// non-null, says which — and fails loudly when `usable` has no devices
  /// at all.
  std::optional<Grant> acquire(int session, const std::vector<bool>& usable,
                               AcquireOutcome* outcome = nullptr,
                               int max_devices = 0);

  /// Returns a grant, advancing the virtual clocks: the frame occupied the
  /// granted devices for `frame_ms`, of which `used_devices` got rows.
  /// `completed` is false when the frame died mid-encode (fault storm) and
  /// the grant is only being handed back — the attempt still advances the
  /// clocks by `frame_ms` but does not count as a served frame.
  void release(int session, Grant grant, double frame_ms, int used_devices,
               bool completed = true);

  /// Wakes a pending acquire() of this session so it returns nullopt.
  void abort(int session);

  int num_devices() const { return pool_.num_devices(); }
  int live_sessions() const;
  /// Sessions parked in the admission queue (no live share yet).
  int queued_sessions() const;
  /// Devices currently unreserved — equals num_devices() iff no grant is
  /// outstanding (the chaos harness's no-leak invariant).
  int free_devices() const { return pool_.num_free(); }
  SessionStats session_stats(int session) const;
  std::vector<double> device_busy_ms() const;
  /// Virtual makespan: the latest session completion time so far.
  double makespan_ms() const;

 private:
  struct Session {
    double weight = 1.0;
    bool live = false;      ///< admitted and not retired
    bool queued = false;    ///< parked in the admission queue
    bool shed = false;      ///< dropped by admission-queue pressure
    bool retired = false;   ///< passed through retire()
    bool waiting = false;   ///< parked in acquire()
    bool aborted = false;
    std::vector<bool> usable;     ///< waiter's usable snapshot
    std::vector<bool> last_mask;  ///< previous grant (affinity)
    double vtime_ms = 0.0;        ///< session-local virtual clock
    double vservice_ms = 0.0;     ///< Σ device·ms consumed
    SessionStats stats;
  };

  double priority_locked(const Session& s) const {
    return s.vservice_ms / s.weight;
  }
  bool eligible_locked(const Session& s,
                       const std::vector<bool>& free) const;
  bool is_head_locked(int session, const std::vector<bool>& free) const;
  int fair_share_locked(const Session& s) const;
  void promote_locked();

  ArbiterOptions opts_;
  DevicePool pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // deque, not vector: acquire() parks holding a reference into this
  // container, and a concurrent admit() must not reallocate it out from
  // under the waiter. deque::push_back keeps element references stable.
  std::deque<Session> sessions_;
  std::vector<double> dev_free_ms_;  ///< per-device virtual busy horizon
  std::vector<double> dev_busy_ms_;  ///< per-device Σ granted frame time
  bool stopping_ = false;
};

}  // namespace feves
