#include "service/arbiter.hpp"

#include <algorithm>
#include <cmath>

namespace feves {

PoolArbiter::PoolArbiter(int num_devices, ArbiterOptions opts)
    : opts_(opts),
      pool_(num_devices),
      dev_free_ms_(static_cast<std::size_t>(num_devices), 0.0),
      dev_busy_ms_(static_cast<std::size_t>(num_devices), 0.0) {
  FEVES_CHECK(opts_.max_sessions >= 1);
  FEVES_CHECK(opts_.admission_queue >= 0);
}

PoolArbiter::~PoolArbiter() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

void PoolArbiter::Grant::abandon() {
  if (arbiter_ == nullptr) {
    lease.release();  // defensively; a well-formed grant always has both
    return;
  }
  PoolArbiter* arbiter = arbiter_;
  arbiter_ = nullptr;
  if (!lease.active()) return;  // passed through release(); nothing to do
  {
    std::lock_guard lock(arbiter->mu_);
    lease.release();  // pool mutex nests inside mu_ (consistent order)
  }
  // The freed devices may satisfy a parked waiter right now — without this
  // wake it would stall until the next unrelated release/abort.
  arbiter->cv_.notify_all();
}

int PoolArbiter::admit(double weight) {
  FEVES_CHECK(weight > 0.0);
  int shed_id = -1;
  int new_id = -1;
  {
    std::lock_guard lock(mu_);
    int live = 0;
    int queued = 0;
    for (const Session& s : sessions_) {
      live += s.live ? 1 : 0;
      queued += s.queued ? 1 : 0;
    }
    Session s;
    s.weight = weight;
    s.stats.weight = weight;
    s.last_mask.assign(static_cast<std::size_t>(num_devices()), false);
    if (live < opts_.max_sessions) {
      s.live = true;
    } else if (queued < opts_.admission_queue) {
      s.queued = true;
    } else if (opts_.admission_queue > 0) {
      // Queue full: shed the lowest-weight queued session (newest id as the
      // tie-break victim) iff the newcomer strictly outweighs it.
      int victim = -1;
      for (int j = 0; j < static_cast<int>(sessions_.size()); ++j) {
        const Session& o = sessions_[static_cast<std::size_t>(j)];
        if (!o.queued) continue;
        if (victim < 0 ||
            o.weight <= sessions_[static_cast<std::size_t>(victim)].weight) {
          victim = j;
        }
      }
      FEVES_CHECK(victim >= 0);
      if (weight <= sessions_[static_cast<std::size_t>(victim)].weight) {
        return -1;  // newcomer loses: refuse it instead
      }
      Session& v = sessions_[static_cast<std::size_t>(victim)];
      v.queued = false;
      v.shed = true;
      shed_id = victim;
      s.queued = true;
    } else {
      return -1;
    }
    sessions_.push_back(std::move(s));
    new_id = static_cast<int>(sessions_.size()) - 1;
  }
  if (shed_id >= 0) cv_.notify_all();  // wake the victim's parked acquire()
  return new_id;
}

void PoolArbiter::promote_locked() {
  int live = 0;
  for (const Session& s : sessions_) live += s.live ? 1 : 0;
  while (live < opts_.max_sessions) {
    int best = -1;
    for (int j = 0; j < static_cast<int>(sessions_.size()); ++j) {
      const Session& o = sessions_[static_cast<std::size_t>(j)];
      if (!o.queued) continue;
      if (best < 0 ||
          o.weight > sessions_[static_cast<std::size_t>(best)].weight) {
        best = j;  // highest weight wins; scan order makes ties lowest-id
      }
    }
    if (best < 0) return;
    Session& p = sessions_[static_cast<std::size_t>(best)];
    p.queued = false;
    p.live = true;
    ++live;
  }
}

void PoolArbiter::retire(int session) {
  {
    std::lock_guard lock(mu_);
    FEVES_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
    Session& s = sessions_[static_cast<std::size_t>(session)];
    s.live = false;
    s.queued = false;
    s.retired = true;
    promote_locked();
  }
  // Shares just rebalanced (and a queued session may have been promoted);
  // waiters may deserve bigger grants now.
  cv_.notify_all();
}

bool PoolArbiter::eligible_locked(const Session& s,
                                  const std::vector<bool>& free) const {
  // Only live sessions compete for grants: a queued session has priority 0
  // (no service yet) and would otherwise win head-of-line over every live
  // waiter while holding no share.
  if (!s.live || !s.waiting || s.aborted || s.shed) return false;
  for (std::size_t i = 0; i < free.size(); ++i) {
    if (free[i] && s.usable[i]) return true;
  }
  return false;
}

bool PoolArbiter::is_head_locked(int session,
                                 const std::vector<bool>& free) const {
  const Session& self = sessions_[static_cast<std::size_t>(session)];
  if (!eligible_locked(self, free)) return false;
  const double p = priority_locked(self);
  for (int j = 0; j < static_cast<int>(sessions_.size()); ++j) {
    if (j == session) continue;
    const Session& o = sessions_[static_cast<std::size_t>(j)];
    if (!eligible_locked(o, free)) continue;
    const double q = priority_locked(o);
    if (q < p || (q == p && j < session)) return false;
  }
  return true;
}

int PoolArbiter::fair_share_locked(const Session& s) const {
  double weight_sum = 0.0;
  for (const Session& o : sessions_) {
    if (o.live) weight_sum += o.weight;
  }
  if (weight_sum <= 0.0) weight_sum = s.weight;
  const double share = num_devices() * s.weight / weight_sum;
  return std::max(1, static_cast<int>(std::lround(share)));
}

std::optional<PoolArbiter::Grant> PoolArbiter::acquire(
    int session, const std::vector<bool>& usable, AcquireOutcome* outcome,
    int max_devices) {
  FEVES_CHECK(static_cast<int>(usable.size()) == num_devices());
  bool any_usable = false;
  for (bool u : usable) any_usable |= u;
  FEVES_CHECK_MSG(any_usable,
                  "session " << session << " has no usable device left");
  if (outcome != nullptr) *outcome = AcquireOutcome::kGranted;

  std::unique_lock lock(mu_);
  FEVES_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
  Session& s = sessions_[static_cast<std::size_t>(session)];
  FEVES_CHECK_MSG(!s.retired, "acquire() on a retired session");
  s.waiting = true;
  s.usable = usable;
  cv_.wait(lock, [&] {
    return stopping_ || s.aborted || s.shed ||
           is_head_locked(session, pool_.free_mask());
  });
  s.waiting = false;
  if (stopping_ || s.aborted || s.shed) {
    if (outcome != nullptr) {
      *outcome = stopping_   ? AcquireOutcome::kShutdown
                 : s.aborted ? AcquireOutcome::kAborted
                             : AcquireOutcome::kShed;
    }
    return std::nullopt;
  }

  // Pool state only changes under mu_ (acquire/release below), so this
  // snapshot is the state try_reserve will see.
  const std::vector<bool> free = pool_.free_mask();
  int share = fair_share_locked(s);
  if (max_devices > 0) share = std::min(share, max_devices);

  // Candidate devices: free ∩ usable, affinity devices first — the ones
  // the session held last frame, which keeps device mirrors warm (real
  // mode) and characterizations valid (fewer probe / re-init frames) — then
  // by least virtual backlog (a device another session just loaded up is a
  // worse pick than an idle one), index as the deterministic tie-break.
  std::vector<int> candidates;
  for (int i = 0; i < num_devices(); ++i) {
    if (free[static_cast<std::size_t>(i)] && usable[static_cast<std::size_t>(i)]) {
      candidates.push_back(i);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const bool aff_a = s.last_mask[static_cast<std::size_t>(a)];
    const bool aff_b = s.last_mask[static_cast<std::size_t>(b)];
    if (aff_a != aff_b) return aff_a;
    const double fa = dev_free_ms_[static_cast<std::size_t>(a)];
    const double fb = dev_free_ms_[static_cast<std::size_t>(b)];
    if (fa != fb) return fa < fb;
    return a < b;
  });

  const int n = std::min(share, static_cast<int>(candidates.size()));
  FEVES_CHECK(n >= 1);
  std::vector<bool> mask(static_cast<std::size_t>(num_devices()), false);
  for (int k = 0; k < n; ++k) mask[static_cast<std::size_t>(candidates[k])] = true;

  auto lease = pool_.try_reserve(mask);
  FEVES_CHECK_MSG(lease.has_value(), "pool reservation raced the arbiter");
  s.last_mask = mask;

  Grant grant;
  grant.lease = std::move(*lease);
  grant.num_devices = n;
  grant.arbiter_ = this;
  grant.session_ = session;
  lock.unlock();
  // The remaining free devices may now satisfy the next eligible waiter.
  cv_.notify_all();
  return grant;
}

void PoolArbiter::release(int session, Grant grant, double frame_ms,
                          int used_devices, bool completed) {
  FEVES_CHECK(frame_ms >= 0.0);
  {
    std::lock_guard lock(mu_);
    FEVES_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
    Session& s = sessions_[static_cast<std::size_t>(session)];
    const std::vector<bool>& mask = grant.lease.mask();

    // Virtual timeline: the frame starts once the session's own clock AND
    // every granted device are virtually free; the gap before that start is
    // the session's queue wait.
    double start = s.vtime_ms;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) start = std::max(start, dev_free_ms_[i]);
    }
    s.stats.queue_wait_ms += start - s.vtime_ms;
    const double end = start + frame_ms;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      dev_free_ms_[i] = end;
      dev_busy_ms_[i] += frame_ms;
    }
    s.vtime_ms = end;
    s.vservice_ms += frame_ms * grant.num_devices;
    if (completed) s.stats.frames += 1;
    s.stats.virtual_end_ms = end;
    s.stats.granted_device_ms += frame_ms * grant.num_devices;
    s.stats.used_device_ms += frame_ms * std::min(used_devices, grant.num_devices);

    grant.lease.release();  // pool mutex nests inside mu_ (consistent order)
    grant.arbiter_ = nullptr;  // fully consumed; dtor must not re-enter mu_
  }
  cv_.notify_all();
}

void PoolArbiter::abort(int session) {
  {
    std::lock_guard lock(mu_);
    FEVES_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
    sessions_[static_cast<std::size_t>(session)].aborted = true;
  }
  cv_.notify_all();
}

int PoolArbiter::live_sessions() const {
  std::lock_guard lock(mu_);
  int live = 0;
  for (const Session& s : sessions_) live += s.live ? 1 : 0;
  return live;
}

int PoolArbiter::queued_sessions() const {
  std::lock_guard lock(mu_);
  int queued = 0;
  for (const Session& s : sessions_) queued += s.queued ? 1 : 0;
  return queued;
}

SessionStats PoolArbiter::session_stats(int session) const {
  std::lock_guard lock(mu_);
  FEVES_CHECK(session >= 0 && session < static_cast<int>(sessions_.size()));
  return sessions_[static_cast<std::size_t>(session)].stats;
}

std::vector<double> PoolArbiter::device_busy_ms() const {
  std::lock_guard lock(mu_);
  return dev_busy_ms_;
}

double PoolArbiter::makespan_ms() const {
  std::lock_guard lock(mu_);
  double makespan = 0.0;
  for (const Session& s : sessions_) {
    makespan = std::max(makespan, s.stats.virtual_end_ms);
  }
  return makespan;
}

}  // namespace feves
