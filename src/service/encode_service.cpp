#include "service/encode_service.hpp"

#include <chrono>

namespace feves {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// True if any device in the session's health mask is still usable.
bool any_usable(const std::vector<bool>& mask) {
  for (bool b : mask) {
    if (b) return true;
  }
  return false;
}

/// True when the usable mask is non-empty but consists ENTIRELY of
/// probation devices: the grant can only draw from half-trusted hardware.
/// A frame failure on such a grant is a probation relapse, not pool
/// exhaustion, and the terminal attribution must say so — an operator
/// reacts to "devices flapping through probation" (cap re-admission, drain
/// the node) very differently from "pool drained" (add capacity).
bool all_probation(const DeviceHealthMonitor& health,
                   const std::vector<bool>& usable) {
  bool any = false;
  for (int d = 0; d < static_cast<int>(usable.size()); ++d) {
    if (!usable[static_cast<std::size_t>(d)]) continue;
    if (health.state(d) != DeviceHealth::kProbation) return false;
    any = true;
  }
  return any;
}

}  // namespace

EncodeService::EncodeService(const PlatformTopology& topo, ServiceOptions opts)
    : topo_(topo),
      opts_(opts),
      arbiter_(topo.num_devices(), opts.arbiter),
      breaker_(opts.breaker) {
  topo_.validate();
}

EncodeService::~EncodeService() {
  {
    std::lock_guard lock(mu_);
    for (auto& s : sessions_) {
      if (!s->collected) {
        s->abort.store(true, std::memory_order_relaxed);
        arbiter_.abort(s->id);
      }
    }
  }
  for (auto& s : sessions_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

int EncodeService::submit(SessionConfig cfg) {
  std::lock_guard lock(mu_);
  const int id = arbiter_.admit(cfg.weight);
  if (id < 0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  if (cfg.fw.trace != nullptr) cfg.fw.trace->set_session(id);
  auto session = std::make_unique<Session>();
  session->id = id;
  session->cfg = std::move(cfg);
  Session* raw = session.get();
  sessions_.push_back(std::move(session));
  raw->thread = std::thread([this, raw] { run_session(raw); });
  return id;
}

void EncodeService::abort(int session) {
  std::lock_guard lock(mu_);
  for (auto& s : sessions_) {
    if (s->id == session) {
      s->abort.store(true, std::memory_order_relaxed);
      arbiter_.abort(session);
      return;
    }
  }
  FEVES_CHECK_MSG(false, "abort of unknown session " << session);
}

SessionResult EncodeService::wait(int session) {
  Session* s = nullptr;
  {
    std::lock_guard lock(mu_);
    for (auto& owned : sessions_) {
      if (owned->id == session) {
        s = owned.get();
        break;
      }
    }
    FEVES_CHECK_MSG(s != nullptr, "wait on unknown session " << session);
    FEVES_CHECK_MSG(!s->collected, "session " << session << " already waited");
    s->collected = true;
  }
  if (s->thread.joinable()) s->thread.join();
  return std::move(s->result);
}

std::vector<SessionResult> EncodeService::drain() {
  std::vector<int> pending;
  {
    std::lock_guard lock(mu_);
    for (auto& s : sessions_) {
      if (!s->collected) pending.push_back(s->id);
    }
  }
  std::vector<SessionResult> out;
  out.reserve(pending.size());
  for (int id : pending) out.push_back(wait(id));
  return out;
}

ServiceStats EncodeService::stats() const {
  ServiceStats out;
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.makespan_ms = arbiter_.makespan_ms();
  out.device_busy_ms = arbiter_.device_busy_ms();
  std::lock_guard lock(mu_);
  out.admitted = static_cast<int>(sessions_.size());
  out.shed = shed_sessions_;
  out.resilience = finished_resilience_;
  out.resilience.breaker_trips = breaker_.trips();
  int utilized_sessions = 0;
  for (const auto& s : sessions_) {
    const SessionStats share = arbiter_.session_stats(s->id);
    out.total_frames += share.frames;
    out.sum_session_fps += share.fps();
    out.total_queue_wait_ms += share.queue_wait_ms;
    if (share.granted_device_ms > 0) {
      out.mean_grant_utilization += share.grant_utilization();
      ++utilized_sessions;
    }
  }
  if (utilized_sessions > 0) out.mean_grant_utilization /= utilized_sessions;
  if (out.makespan_ms > 0) {
    out.aggregate_fps = 1000.0 * out.total_frames / out.makespan_ms;
  }
  return out;
}

int EncodeService::used_devices(const Distribution& dist) {
  const int n = static_cast<int>(dist.me.size());
  int used = 0;
  for (int i = 0; i < n; ++i) {
    if (dist.me[i] + dist.intp[i] + dist.sme[i] > 0 || i == dist.rstar_device) {
      ++used;
    }
  }
  return used;
}

void EncodeService::backoff_sleep(Session* s, double ms, int frame,
                                  const char* why) {
  if (ms <= 0.0) return;
  obs::ResilienceTelemetry& rt = s->result.resilience;
  rt.backoff_waits += 1;
  const auto t0 = SteadyClock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<SteadyClock::duration>(
               std::chrono::duration<double, std::milli>(ms));
  // Sliced so a landing abort() cuts the wait short instead of holding the
  // session (and its joiner) hostage for a full backoff rung.
  while (!s->abort.load(std::memory_order_relaxed)) {
    const auto now = SteadyClock::now();
    if (now >= deadline) break;
    const auto slice = std::min<SteadyClock::duration>(
        deadline - now, std::chrono::milliseconds(1));
    std::this_thread::sleep_for(slice);
  }
  const double waited = ms_since(t0);
  rt.backoff_wait_ms += waited;
  if (s->cfg.fw.trace != nullptr) {
    s->cfg.fw.trace->add_host_event(frame, why, obs::EventKind::kMark, waited,
                                    obs::kLaneResilience);
  }
}

void EncodeService::run_session(Session* s) {
  s->result.id = s->id;
  TerminalReason reason = TerminalReason::kError;
  try {
    reason = run_ladder(s);
    // An abort that lands after the last frame still counts: callers that
    // asked for an abort must never observe a "completed" session.
    if (reason == TerminalReason::kCompleted &&
        s->abort.load(std::memory_order_relaxed)) {
      reason = TerminalReason::kAborted;
    }
  } catch (const std::exception& e) {
    reason = TerminalReason::kError;
    s->result.error = e.what();
  } catch (...) {
    reason = TerminalReason::kError;
    s->result.error = "unknown exception";
  }
  s->result.reason = reason;
  switch (reason) {
    case TerminalReason::kCompleted:
      s->result.state = SessionResult::State::kCompleted;
      break;
    case TerminalReason::kAborted:
      s->result.state = SessionResult::State::kAborted;
      break;
    case TerminalReason::kShed:
      s->result.state = SessionResult::State::kShed;
      s->result.resilience.shed_sessions = 1;
      break;
    default:
      s->result.state = SessionResult::State::kFailed;
      if (s->result.error.empty()) s->result.error = to_string(reason);
      break;
  }
  arbiter_.retire(s->id);
  s->result.share = arbiter_.session_stats(s->id);
  {
    std::lock_guard lock(mu_);
    finished_resilience_.merge(s->result.resilience);
    if (reason == TerminalReason::kShed) ++shed_sessions_;
  }
}

TerminalReason EncodeService::run_ladder(Session* s) {
  const SessionConfig& sc = s->cfg;
  const ResilienceOptions& ro = sc.resilience;
  obs::ResilienceTelemetry& rt = s->result.resilience;
  SessionGovernor gov(ro, &breaker_,
                      (static_cast<u64>(s->id) + 1) * 0x9E3779B97F4A7C15ull);
  const bool real = sc.source != nullptr;

  // cp is the last good frame boundary; seeded from cfg.resume so a session
  // restarted from a predecessor's checkpoint escalates against it too.
  SessionCheckpoint cp;
  if (sc.resume != nullptr && sc.resume->valid) cp = *sc.resume;

  // Past the degrade point, restarts rebuild the encoder with a reduced
  // search range — in virtual mode only (no bitstream to keep bit-exact);
  // real mode degrades by shrinking its grant instead.
  auto make_enc = [&] {
    EncoderConfig cfg = sc.cfg;
    if (!real) cfg.search_range = gov.degraded_search_range(cfg.search_range);
    return std::make_unique<SessionEncoder>(cfg, topo_, sc.fw, sc.source,
                                            sc.tier, sc.perturbations,
                                            sc.faults);
  };

  auto enc = make_enc();
  const int base = cp.valid ? static_cast<int>(cp.frames_recorded) : 0;
  // Resumed sessions emit only the continuation bytes; checkpoints record
  // stream-global offsets so a chain of resumes keeps composing.
  const std::size_t base_bytes = cp.valid ? cp.bitstream_bytes : 0;
  int f = base;  // stream-global count of frames done (real: incl. the I frame)
  if (cp.valid) {
    enc->restore(cp.enc);
    rt.checkpoints_restored += 1;
  }

  auto take_checkpoint = [&] {
    const auto t0 = SteadyClock::now();
    cp.valid = true;
    cp.frames_recorded = static_cast<std::size_t>(f);
    cp.bitstream_bytes = base_bytes + s->result.bitstream.size();
    cp.enc = enc->checkpoint();
    s->result.checkpoint = cp;
    rt.checkpoints_taken += 1;
    const double took = ms_since(t0);
    rt.checkpoint_ms += took;
    if (sc.fw.trace != nullptr) {
      sc.fw.trace->add_host_event(f, "checkpoint", obs::EventKind::kMark,
                                  took, obs::kLaneResilience);
    }
  };

  // Checkpoint-restart rung: back off (jittered), rebuild the encoder
  // (picking up any degradation), rewind to the last good frame.
  auto do_restart = [&] {
    backoff_sleep(s, gov.begin_restart(), f + 1, "restart-backoff");
    rt.restarts += 1;
    enc = make_enc();
    int new_f = 0;
    std::size_t keep_bytes = 0;
    if (cp.valid) {
      enc->restore(cp.enc);
      new_f = static_cast<int>(cp.frames_recorded);
      keep_bytes = cp.bitstream_bytes - base_bytes;
      rt.checkpoints_restored += 1;
    }
    rt.frames_replayed += f - new_f;
    s->result.frames.resize(static_cast<std::size_t>(new_f - base));
    s->result.bitstream.resize(keep_bytes);
    f = new_f;
    if (gov.degraded()) {
      rt.degraded_sessions = 1;
      s->result.degrade_level = real ? 1 : 2;
    }
    if (sc.fw.trace != nullptr) {
      sc.fw.trace->add_host_event(f + 1, "restart", obs::EventKind::kMark,
                                  0.0, obs::kLaneResilience);
    }
  };

  while (f < sc.frames) {
    if (s->abort.load(std::memory_order_relaxed)) {
      return TerminalReason::kAborted;
    }
    if (gov.deadline_exceeded()) return TerminalReason::kDeadlineExceeded;
    if (!enc->load(f)) break;  // short source
    if (enc->bootstrap_next()) {
      // Bootstrap I frame: host-side intra path, touches no pool device.
      s->result.frames.push_back(
          enc->encode_frame(FrameGrant{}, &s->result.bitstream));
      ++f;
      // Checkpoint right away so no restart ever has to redo the bootstrap.
      if (ro.checkpoint_interval > 0) take_checkpoint();
      continue;
    }

    const std::vector<bool> usable = enc->health().active_mask();
    if (!any_usable(usable)) {
      // Every device quarantined from this session's view — the only rung
      // left is a restart, which restores the pre-storm health state.
      if (!gov.can_restart()) {
        if (gov.deadline_exceeded()) return TerminalReason::kDeadlineExceeded;
        return rt.probation_relapses > 0 ? TerminalReason::kProbationChurn
                                         : TerminalReason::kNoUsableDevice;
      }
      do_restart();
      continue;
    }
    const bool probation_grant = all_probation(enc->health(), usable);

    const double brk = gov.breaker_wait_ms();
    if (brk > 0.0) {
      backoff_sleep(s, brk, f + 1, "breaker-wait");
      continue;
    }

    AcquireOutcome outcome = AcquireOutcome::kGranted;
    auto grant =
        arbiter_.acquire(s->id, usable, &outcome, gov.max_devices_hint());
    if (!grant.has_value()) {
      return outcome == AcquireOutcome::kShed ? TerminalReason::kShed
                                              : TerminalReason::kAborted;
    }
    FrameStats stats;
    try {
      stats = enc->encode_frame(FrameGrant{&grant->lease.mask(), &grant->lease},
                                &s->result.bitstream);
    } catch (...) {
      // The grant must flow back even when the frame dies: a leaked lease
      // would starve every other session.
      arbiter_.release(s->id, std::move(*grant), 0.0, 0, /*completed=*/false);
      gov.grant_lost();
      if (probation_grant) rt.probation_relapses += 1;
      // A fault storm can quarantine the whole grant mid-frame. Nothing was
      // committed (bitstream and references update only on success), so if
      // the health mask shrank and other devices remain usable, take a
      // fresh grant and retry this frame on them — bit-exact in real mode.
      const std::vector<bool> now = enc->health().active_mask();
      if (now != usable && any_usable(now)) continue;
      if (gov.deadline_exceeded()) return TerminalReason::kDeadlineExceeded;
      if (!gov.can_restart()) {
        if (ro.max_restarts > 0) {
          // Retry budget burned on relapsing probation devices is its own
          // failure mode: the pool was never exhausted, trust was.
          return rt.probation_relapses > 0
                     ? TerminalReason::kProbationChurn
                     : TerminalReason::kRestartsExhausted;
        }
        throw;  // restart rung disabled: legacy fail-with-error
      }
      do_restart();
      continue;
    }
    arbiter_.release(s->id, std::move(*grant), stats.total_ms,
                     used_devices(stats.dist));
    gov.frame_completed();
    s->result.frames.push_back(std::move(stats));
    ++f;
    if (ro.checkpoint_interval > 0 && f % ro.checkpoint_interval == 0) {
      take_checkpoint();
    }
  }
  return TerminalReason::kCompleted;
}

}  // namespace feves
