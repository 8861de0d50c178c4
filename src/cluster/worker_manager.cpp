#include "cluster/worker_manager.hpp"

#include "sched/node_balance.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace feves::cluster {

namespace {

// RPC deadlines: a heartbeat, and every other call (capabilities, submit,
// cancel).
constexpr double kHeartbeatDeadlineMs = 1.0;
constexpr double kRpcDeadlineMs = 2.0;
// Ticks an outstanding lease may age before it is fenced and reassigned
// even though its node still heartbeats (executor wedged, not crashed).
constexpr u64 kLeaseTicks = 2000;

}  // namespace

WorkerManager::WorkerManager(WorkerManagerOptions opts)
    : opts_(std::move(opts)) {
  FEVES_CHECK(opts_.tick_sleep_ms > 0.0);
  FEVES_CHECK(opts_.all_dead_grace_ticks >= 1);
  driver_ = std::thread([this] { run_driver(); });
}

WorkerManager::~WorkerManager() {
  running_.store(false);
  if (driver_.joinable()) driver_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& s : sessions_) {
      if (!s->done) {
        finish_locked(s.get(), TerminalReason::kAborted,
                      "manager shut down");
      }
    }
  }
  done_cv_.notify_all();
  // Workers (and their executor threads) are destroyed by member teardown;
  // the inbox is declared before them, so late sink pushes stay safe.
}

NodeId WorkerManager::register_worker(std::unique_ptr<WorkerProxy> worker) {
  FEVES_CHECK(worker != nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  FEVES_CHECK_MSG(sessions_.empty(),
                  "register every worker before the first submit");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  worker->set_completion_sink([this](ShardResult r) {
    std::lock_guard<std::mutex> ilk(inbox_mu_);
    inbox_.push_back(std::move(r));
  });

  Node node;
  node.worker = std::move(worker);
  node.caps.name = "node" + std::to_string(id);
  node.caps.capability_score = 1.0;  // fallback: still rankable
  Backoff bo(opts_.backoff, 0x9E3779B9ull ^ static_cast<u64>(id));
  for (int attempt = 0; attempt <= opts_.rpc_retries; ++attempt) {
    WorkerCapabilities caps;
    const RpcStatus st =
        node.worker->capabilities(kRpcDeadlineMs, &caps);
    if (st == RpcStatus::kOk) {
      node.caps = std::move(caps);
      break;
    }
    if (!retryable(st) || attempt == opts_.rpc_retries) break;
    ++tel_.rpc_retries;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(bo.next_ms()));
  }
  node.counters.name = node.caps.name;
  nodes_.push_back(std::move(node));
  // Registration happens before any work, so rebuilding the monitor (all
  // nodes reset to alive) loses nothing.
  monitor_ = std::make_unique<HeartbeatMonitor>(
      static_cast<int>(nodes_.size()), opts_.heartbeat);
  return id;
}

int WorkerManager::num_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(nodes_.size());
}

int WorkerManager::submit(ClusterSessionConfig cfg) {
  FEVES_CHECK(cfg.frames > 0);
  FEVES_CHECK(cfg.chunk_frames >= 1);
  std::lock_guard<std::mutex> lk(mu_);
  FEVES_CHECK_MSG(!nodes_.empty(), "submit before any worker registered");
  auto s = std::make_unique<SessionState>();
  s->id = static_cast<int>(sessions_.size());
  s->cfg = std::move(cfg);
  s->result.id = s->id;
  sessions_.push_back(std::move(s));
  return static_cast<int>(sessions_.size()) - 1;
}

ClusterSessionResult WorkerManager::wait(int id) {
  std::unique_lock<std::mutex> lk(mu_);
  FEVES_CHECK(id >= 0 && id < static_cast<int>(sessions_.size()));
  SessionState* s = sessions_[static_cast<std::size_t>(id)].get();
  done_cv_.wait(lk, [s] { return s->done; });
  return s->result;  // sessions stay until the manager dies: copy is safe
}

std::vector<ClusterSessionResult> WorkerManager::drain() {
  int count = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    count = static_cast<int>(sessions_.size());
  }
  std::vector<ClusterSessionResult> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int id = 0; id < count; ++id) out.push_back(wait(id));
  return out;
}

obs::NodeTelemetry WorkerManager::telemetry() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tel_;
}

std::vector<NodeCounters> WorkerManager::node_counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<NodeCounters> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) out.push_back(n.counters);
  return out;
}

NodeLiveness WorkerManager::node_state(int node) const {
  std::lock_guard<std::mutex> lk(mu_);
  FEVES_CHECK(monitor_ != nullptr);
  return monitor_->state(node);
}

int WorkerManager::node_incarnation(int node) const {
  std::lock_guard<std::mutex> lk(mu_);
  FEVES_CHECK(monitor_ != nullptr);
  return monitor_->incarnation(node);
}

void WorkerManager::run_driver() {
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(opts_.tick_sleep_ms));
    tick();
  }
}

void WorkerManager::tick() {
  std::lock_guard<std::mutex> lk(mu_);
  if (nodes_.empty()) return;
  ++tick_count_;
  beat_nodes();
  drain_inbox();
  expire_leases();
  dispatch_pending();
}

void WorkerManager::beat_nodes() {
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    Node& node = nodes_[static_cast<std::size_t>(i)];
    const RpcStatus st = node.worker->heartbeat(kHeartbeatDeadlineMs);
    ++tel_.heartbeats;
    if (st == RpcStatus::kOk) {
      if (monitor_->record_beat(i)) {
        ++tel_.nodes_rejoined;
        mark(-1, "rejoin");
      }
      continue;
    }
    ++tel_.heartbeat_misses;
    ++node.counters.heartbeat_misses;
    const NodeLiveness before = monitor_->state(i);
    const bool newly_dead = monitor_->record_miss(i);
    if (before != NodeLiveness::kSuspect &&
        monitor_->state(i) == NodeLiveness::kSuspect) {
      ++tel_.nodes_suspected;
    }
    if (newly_dead) {
      ++tel_.nodes_died;
      mark(-1, "node-dead");
      fence_node_locked(i);
    }
  }
}

void WorkerManager::drain_inbox() {
  std::vector<ShardResult> batch;
  {
    std::lock_guard<std::mutex> ilk(inbox_mu_);
    batch.swap(inbox_);
  }
  for (ShardResult& r : batch) {
    SessionState* s = nullptr;
    if (r.session >= 0 && r.session < static_cast<int>(sessions_.size())) {
      s = sessions_[static_cast<std::size_t>(r.session)].get();
    }
    const bool live = s != nullptr && !s->done && s->outstanding &&
                      r.lease_id == s->lease_id && r.epoch == s->epoch;
    if (!live) {
      // The fencing path: a zombie node's late reply, a healed partition's
      // flood, or a lease the manager already reassigned. Dropped — never
      // merged — so no frame range can commit twice.
      ++tel_.fenced_replies;
      if (r.node >= 0 && r.node < static_cast<int>(nodes_.size())) {
        ++nodes_[static_cast<std::size_t>(r.node)].counters.fenced_replies;
      }
      mark(r.session, "fenced-reply");
      continue;
    }

    s->outstanding = false;
    Node& node = nodes_[static_cast<std::size_t>(s->lease_node)];
    node.outstanding = std::max(0, node.outstanding - 1);

    if (!r.ok) {
      ++s->consecutive_failures;
      mark(s->id, "shard-failed");
      // Consecutive worker-side throws a session survives: three, plus one
      // per registered node.
      if (s->consecutive_failures >= 3 + static_cast<int>(nodes_.size())) {
        finish_locked(s, TerminalReason::kRestartsExhausted,
                      r.error.empty() ? "shard failure budget exhausted"
                                      : r.error);
      }
      continue;  // else: stays pending, re-dispatched with a fresh epoch
    }

    // The no-double-commit invariant, enforced: an accepted quantum starts
    // exactly at the committed frontier.
    FEVES_CHECK_MSG(r.frame_begin == s->committed,
                    "commit out of sequence: quantum at "
                        << r.frame_begin << " vs frontier " << s->committed);
    s->result.frames.insert(s->result.frames.end(), r.frames.begin(),
                            r.frames.end());
    s->result.bitstream.insert(s->result.bitstream.end(),
                               r.bitstream.begin(), r.bitstream.end());
    s->checkpoint = r.checkpoint;
    s->committed += r.frames_done;
    s->consecutive_failures = 0;
    ++tel_.completions;
    ++node.counters.completions;
    if (r.frames_done > 0 && r.encode_ms > 0.0) {
      const double fpms = static_cast<double>(r.frames_done) / r.encode_ms;
      node.ewma_fpms =
          node.ewma_fpms <= 0.0 ? fpms : 0.7 * node.ewma_fpms + 0.3 * fpms;
    }
    if (s->committed >= s->cfg.frames || r.source_exhausted) {
      finish_locked(s, TerminalReason::kCompleted, "");
    }
  }
}

void WorkerManager::expire_leases() {
  for (auto& sp : sessions_) {
    SessionState* s = sp.get();
    if (s->done || !s->outstanding) continue;
    if (tick_count_ - s->lease_tick <= kLeaseTicks) continue;
    const int node = s->lease_node;
    const u64 lease = s->lease_id;
    ++tel_.lease_expiries;
    fence_session_locked(s, "lease-expired");
    // Best-effort cancel; a completion that slips through is fenced anyway.
    nodes_[static_cast<std::size_t>(node)].worker->cancel(
        lease, kRpcDeadlineMs);
  }
}

void WorkerManager::fence_session_locked(SessionState* s, const char* why) {
  if (!s->outstanding) return;
  Node& node = nodes_[static_cast<std::size_t>(s->lease_node)];
  node.outstanding = std::max(0, node.outstanding - 1);
  ++node.counters.reassigned_away;
  s->outstanding = false;
  s->reassigned = true;
  ++tel_.epoch_fences;
  ++tel_.reassigns;
  mark(s->id, why);
}

void WorkerManager::fence_node_locked(int node) {
  for (auto& sp : sessions_) {
    SessionState* s = sp.get();
    if (!s->done && s->outstanding && s->lease_node == node) {
      fence_session_locked(s, "node-fence");
    }
  }
}

void WorkerManager::finish_locked(SessionState* s, TerminalReason reason,
                                  std::string error) {
  if (s->outstanding) {
    Node& node = nodes_[static_cast<std::size_t>(s->lease_node)];
    node.outstanding = std::max(0, node.outstanding - 1);
    s->outstanding = false;
  }
  s->result.reason = reason;
  s->result.error = std::move(error);
  s->result.committed_frames = s->committed;
  s->result.final_epoch = s->epoch;
  s->done = true;
  mark(s->id, reason == TerminalReason::kCompleted ? "completed"
                                                   : "failed");
  done_cv_.notify_all();
}

std::vector<double> WorkerManager::node_capabilities_locked() const {
  // Measured frames/ms where available; nodes not yet measured get their
  // static topology score converted through the fleet's observed
  // fpms-per-score ratio, so mixed units still rank sensibly.
  std::vector<double> caps(nodes_.size(), 0.0);
  double ratio_sum = 0.0;
  int measured = 0;
  for (const Node& n : nodes_) {
    if (n.ewma_fpms > 0.0 && n.caps.capability_score > 0.0) {
      ratio_sum += n.ewma_fpms / n.caps.capability_score;
      ++measured;
    }
  }
  const double ratio = measured > 0 ? ratio_sum / measured : 1.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    caps[i] = n.ewma_fpms > 0.0 ? n.ewma_fpms
                                : n.caps.capability_score * ratio;
  }
  return caps;
}

void WorkerManager::dispatch_pending() {
  bool any_pending = false;
  for (const auto& sp : sessions_) {
    if (!sp->done && !sp->outstanding) {
      any_pending = true;
      break;
    }
  }
  if (!any_pending) {
    all_dead_ticks_ = 0;
    return;
  }

  if (monitor_->num_dispatchable() == 0) {
    ++all_dead_ticks_;
    if (all_dead_ticks_ >= opts_.all_dead_grace_ticks) {
      for (auto& sp : sessions_) {
        if (!sp->done) {
          fence_session_locked(sp.get(), "no-live-worker");
          finish_locked(sp.get(), TerminalReason::kNoLiveWorker,
                        "every worker stayed dead past the grace window");
        }
      }
    }
    return;
  }
  all_dead_ticks_ = 0;

  const std::vector<double> caps = node_capabilities_locked();
  for (auto& sp : sessions_) {
    SessionState* s = sp.get();
    if (s->done || s->outstanding) continue;

    std::vector<NodeScore> scores(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      scores[i].capability = caps[i];
      scores[i].outstanding = nodes_[i].outstanding;
      scores[i].dispatchable = monitor_->dispatchable(static_cast<int>(i));
    }
    const int n = pick_node(scores, s->last_node);
    if (n < 0) continue;
    Node& node = nodes_[static_cast<std::size_t>(n)];

    bool acked = false;
    Backoff bo(opts_.backoff,
               (static_cast<u64>(s->id) << 20) ^ s->epoch ^ 0xC1A5ull);
    for (int attempt = 0; attempt <= opts_.rpc_retries; ++attempt) {
      // EVERY attempt burns a fresh (epoch, lease): an uncertain ack from
      // a hung node leaves at most a stale epoch behind, never a live one.
      WorkShard shard;
      shard.lease_id = ++next_lease_;
      shard.epoch = ++s->epoch;
      shard.session = s->id;
      shard.frame_begin = s->committed;
      shard.frame_end =
          std::min(s->cfg.frames, s->committed + s->cfg.chunk_frames);
      shard.total_frames = s->cfg.frames;
      shard.cfg = s->cfg.cfg;
      shard.fw = s->cfg.fw;
      shard.fw.trace = nullptr;  // worker loops never share the manager's
      shard.perturbations = s->cfg.perturbations;
      shard.device_faults = s->cfg.device_faults;
      shard.source = s->cfg.source;
      shard.resume = s->checkpoint;

      const RpcStatus st = node.worker->submit(shard, kRpcDeadlineMs);
      if (st == RpcStatus::kOk) {
        acked = true;
        s->lease_id = shard.lease_id;
        break;
      }
      if (!retryable(st) || attempt == opts_.rpc_retries) break;
      ++tel_.rpc_retries;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(bo.next_ms()));
    }
    if (!acked) continue;  // stays pending; scores change next tick

    s->outstanding = true;
    s->lease_node = n;
    s->lease_tick = tick_count_;
    if (s->reassigned && n != s->last_node) {
      ++tel_.steals;
      ++node.counters.steals;
    }
    s->reassigned = false;
    s->last_node = n;
    ++node.outstanding;
    ++tel_.dispatches;
    ++node.counters.dispatches;
    mark(s->id, "dispatch");
  }
}

void WorkerManager::mark(int session, const char* label) {
  if (opts_.trace == nullptr) return;
  opts_.trace->add_host_event(std::max(0, session), label,
                              obs::EventKind::kMark, 0.0,
                              obs::kLaneCluster);
}

}  // namespace feves::cluster
