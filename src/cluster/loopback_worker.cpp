#include "cluster/loopback_worker.hpp"

#include "sched/node_balance.hpp"

#include <chrono>
#include <utility>

namespace feves::cluster {

namespace {
/// How long the executor naps while the node is hung or idle-spinning on a
/// fault edge. Short enough that hang windows a few heartbeats wide still
/// resolve within a test's timeout, long enough not to burn a core.
constexpr auto kExecutorNap = std::chrono::microseconds(200);
}  // namespace

LoopbackWorker::LoopbackWorker(NodeId id, std::string name,
                               PlatformTopology topo,
                               NodeFaultSchedule node_faults)
    : id_(id),
      name_(std::move(name)),
      topo_(std::move(topo)),
      node_faults_(std::move(node_faults)),
      pool_(topo_.num_devices()) {
  topo_.validate();
  executor_ = std::thread([this] { run_executor(); });
}

LoopbackWorker::~LoopbackWorker() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    running_.store(false);
  }
  cv_.notify_all();
  if (executor_.joinable()) executor_.join();
}

void LoopbackWorker::set_completion_sink(CompletionSink sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_ = std::move(sink);
}

RpcStatus LoopbackWorker::heartbeat(double deadline_ms) {
  (void)deadline_ms;  // the loopback transport resolves instantly
  // Every heartbeat *attempt* advances the node's fault clock, delivered or
  // not — this is what keeps NodeFaultSchedule windows aligned with manager
  // ticks even while the node is unreachable.
  const int b = beats_.fetch_add(1, std::memory_order_relaxed) + 1;
  last_beat_.store(b, std::memory_order_relaxed);
  const NodeFaultState st = node_faults_.at(id_, b);
  observe_state(st);
  if (st.crashed) return RpcStatus::kWorkerCrashed;
  if (st.partitioned) return RpcStatus::kUnreachable;
  if (st.hang) return RpcStatus::kDeadlineExceeded;
  if (st.heartbeat_loss) return RpcStatus::kUnreachable;
  return RpcStatus::kOk;
}

RpcStatus LoopbackWorker::capabilities(double deadline_ms,
                                       WorkerCapabilities* out) {
  (void)deadline_ms;
  const NodeFaultState st = state_now();
  observe_state(st);
  if (st.crashed) return RpcStatus::kWorkerCrashed;
  if (st.partitioned) return RpcStatus::kUnreachable;
  if (st.hang) return RpcStatus::kDeadlineExceeded;
  if (out != nullptr) {
    out->name = name_;
    out->num_devices = topo_.num_devices();
    out->capability_score = topology_capability(topo_);
  }
  return RpcStatus::kOk;
}

RpcStatus LoopbackWorker::submit(const WorkShard& shard, double deadline_ms) {
  (void)deadline_ms;
  const NodeFaultState st = state_now();
  observe_state(st);
  if (st.crashed) return RpcStatus::kWorkerCrashed;
  if (st.partitioned) return RpcStatus::kUnreachable;  // never arrived
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(shard);
  }
  cv_.notify_all();
  // A hung node RECEIVED the shard but its ack misses the deadline: the
  // classic uncertain submit. The manager must treat this lease as possibly
  // live and bump the epoch before re-dispatching anywhere.
  if (st.hang) return RpcStatus::kDeadlineExceeded;
  return RpcStatus::kOk;
}

RpcStatus LoopbackWorker::cancel(u64 lease_id, double deadline_ms) {
  (void)deadline_ms;
  const NodeFaultState st = state_now();
  observe_state(st);
  if (st.crashed) return RpcStatus::kWorkerCrashed;
  if (st.partitioned) return RpcStatus::kUnreachable;
  {
    std::lock_guard<std::mutex> lk(mu_);
    canceled_.insert(lease_id);
  }
  if (st.hang) return RpcStatus::kDeadlineExceeded;
  return RpcStatus::kOk;
}

void LoopbackWorker::observe_state(const NodeFaultState& st) {
  std::vector<ShardResult> flush;
  CompletionSink sink;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (st.crashed && !in_crash_) {
      // Crash edge: the node's volatile state is gone — queued shards,
      // buffered replies, cancellation marks, warm continuation caches.
      in_crash_ = true;
      queue_.clear();
      pending_out_.clear();
      canceled_.clear();
      drop_cache_.store(true, std::memory_order_relaxed);
    }
    if (!st.crashed && in_crash_) {
      in_crash_ = false;  // operator restart: clean slate, same identity
    }
    if (!st.crashed && !st.partitioned && !pending_out_.empty()) {
      // Partition healed: everything the node finished while unreachable
      // floods back at once. Stale epochs among these are the manager's
      // fencing problem, by design.
      flush.swap(pending_out_);
      sink = sink_;
    }
  }
  if (sink) {
    for (ShardResult& r : flush) sink(std::move(r));
  }
}

void LoopbackWorker::deliver(ShardResult result) {
  CompletionSink sink;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const NodeFaultState st = state_now();
    if (st.crashed) return;  // finished just as the node died: lost
    if (st.partitioned) {
      pending_out_.push_back(std::move(result));
      return;
    }
    sink = sink_;
  }
  if (sink) sink(std::move(result));
}

bool LoopbackWorker::lease_canceled(u64 lease_id) {
  std::lock_guard<std::mutex> lk(mu_);
  return canceled_.count(lease_id) != 0;
}

void LoopbackWorker::run_executor() {
  while (true) {
    WorkShard shard;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] {
        return !running_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (!running_.load(std::memory_order_relaxed)) return;
      shard = std::move(queue_.front());
      queue_.pop_front();
      if (canceled_.count(shard.lease_id) != 0) {
        canceled_.erase(shard.lease_id);
        continue;
      }
    }
    execute_shard(shard);
  }
}

void LoopbackWorker::execute_shard(const WorkShard& shard) {
  if (drop_cache_.exchange(false, std::memory_order_relaxed)) cache_.clear();

  ShardResult r;
  r.lease_id = shard.lease_id;
  r.epoch = shard.epoch;
  r.session = shard.session;
  r.node = id_;
  r.frame_begin = shard.frame_begin;

  const auto t0 = std::chrono::steady_clock::now();
  try {
    FrameworkOptions fwo = shard.fw;
    fwo.trace = nullptr;  // worker-private loop: the manager traces instead

    Cached& c = cache_[shard.session];
    if (c.enc == nullptr || c.frames_done != shard.frame_begin) {
      // Cold start (or affinity moved the session elsewhere and back):
      // rebuild from the checkpoint carried by the shard. Bit-identity
      // never depends on the warm path.
      //
      // A checkpoint minted on a different-shaped node carries per-device
      // state (K parameters, quarantine windows) sized to THAT topology.
      // Only the stream state (frame position, reference window) is
      // portable; the device-local state is rebuilt exactly as a fresh
      // framework would — legal because the characterization and health
      // only steer WHERE work runs, never what bits come out.
      c.enc.reset();  // free the stale encoder before building its successor
      c.enc = std::make_unique<SessionEncoder>(
          shard.cfg, topo_, fwo, shard.source, shard.perturbations,
          shard.device_faults);
      if (shard.resume.valid) {
        EncoderCheckpoint resume = shard.resume.enc;
        FrameworkCheckpoint& fw = resume.fw;
        if (fw.perf.num_devices() != topo_.num_devices()) {
          fw.perf = PerfCharacterization(topo_.num_devices());
          fw.health = DeviceHealthMonitor(topo_.num_devices(), fwo.health);
          fw.rf_holder = std::max(0, topo_.cpu_index());
        }
        c.enc->restore(resume);
      }
      c.frames_done = shard.frame_begin;
    }

    const std::size_t base_bytes =
        shard.resume.valid ? shard.resume.bitstream_bytes : 0;
    const std::vector<bool> all(
        static_cast<std::size_t>(topo_.num_devices()), true);

    for (int f = shard.frame_begin; f < shard.frame_end; ++f) {
      // Fault edges are honoured between frames: a hang stalls the
      // executor mid-shard (and it later resumes as a zombie); a crash
      // abandons the shard and wipes the caches; a cancel drops it.
      NodeFaultState st = state_now();
      while (st.hang && !st.crashed &&
             running_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(kExecutorNap);
        st = state_now();
      }
      if (!running_.load(std::memory_order_relaxed)) return;
      if (st.crashed) {
        cache_.clear();
        return;  // died mid-shard; the lease will expire manager-side
      }
      if (lease_canceled(shard.lease_id)) {
        cache_.erase(shard.session);
        return;
      }

      if (!c.enc->load(f)) {
        r.source_exhausted = true;
        break;
      }
      if (c.enc->bootstrap_next()) {
        // The host-side bootstrap I frame takes no grant.
        r.frames.push_back(c.enc->encode_frame(FrameGrant{}, &r.bitstream));
      } else {
        DeviceLease lease = pool_.reserve(all);
        r.frames.push_back(c.enc->encode_frame(
            FrameGrant{&lease.mask(), &lease}, &r.bitstream));
      }
      ++c.frames_done;
      ++r.frames_done;
    }

    // Snapshot the frame boundary so any other node can continue from the
    // exact state this quantum reached — the resume-elsewhere contract.
    r.checkpoint.valid = true;
    r.checkpoint.frames_recorded =
        static_cast<std::size_t>(c.frames_done);
    r.checkpoint.bitstream_bytes = base_bytes + r.bitstream.size();
    r.checkpoint.enc = c.enc->checkpoint();
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    cache_.erase(shard.session);  // state is suspect after a throw
  }
  r.encode_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  deliver(std::move(r));
}

}  // namespace feves::cluster
