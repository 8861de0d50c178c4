// In-process execute node: the first WorkerProxy implementation. The worker
// owns a private device tier — its own PlatformTopology, DevicePool and the
// per-framework PerfCharacterization inside the encode loops — and executes
// shard quanta on a worker-owned thread, exactly as a remote node would:
// the manager's only view of it is the five RPC calls and the completion
// sink.
//
// Node faults are injected at the loopback "transport": a NodeFaultSchedule
// indexed by the node's heartbeat clock (every heartbeat *attempt* advances
// it, delivered or not) decides per call whether the node is crashed
// (state lost, RPCs fail), hung (requests land, replies miss the deadline,
// the executor stalls and later resumes as a zombie), partitioned (nothing
// crosses in either direction; completed work buffers node-side and floods
// back when the partition heals — the classic late-reply fencing scenario)
// or merely losing heartbeats (work and replies still flow, so the manager
// declares a healthy node dead and must fence, not double-commit).
#pragma once

#include "cluster/worker.hpp"
#include "platform/fault.hpp"
#include "platform/pool.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

namespace feves::cluster {

class LoopbackWorker : public WorkerProxy {
 public:
  LoopbackWorker(NodeId id, std::string name, PlatformTopology topo,
                 NodeFaultSchedule node_faults = {});
  ~LoopbackWorker() override;

  NodeId id() const override { return id_; }
  RpcStatus heartbeat(double deadline_ms) override;
  RpcStatus capabilities(double deadline_ms, WorkerCapabilities* out) override;
  RpcStatus submit(const WorkShard& shard, double deadline_ms) override;
  RpcStatus cancel(u64 lease_id, double deadline_ms) override;
  void set_completion_sink(CompletionSink sink) override;

  const PlatformTopology& topology() const { return topo_; }

 private:
  /// One session's warm continuation state: when the next shard starts at
  /// exactly `frames_done`, the executor continues in place instead of
  /// rebuilding from the checkpoint (the affinity fast path). Any other
  /// start point rebuilds — correctness never depends on the cache.
  struct Cached {
    int frames_done = 0;
    std::unique_ptr<SessionEncoder> enc;
  };

  /// Node fault state as of the most recent heartbeat attempt.
  NodeFaultState state_now() const {
    return node_faults_.at(id_, last_beat_.load(std::memory_order_relaxed));
  }
  /// Crash-edge handling shared by every incoming RPC: entering a crash
  /// window wipes the node's volatile state (queue, buffered replies,
  /// continuation caches); leaving one is the operator restart. Also
  /// flushes partition-buffered completions once reachable again.
  void observe_state(const NodeFaultState& st);
  void run_executor();
  void execute_shard(const WorkShard& shard);
  /// Push a finished shard to the sink, or buffer it while partitioned.
  void deliver(ShardResult result);
  bool lease_canceled(u64 lease_id);

  const NodeId id_;
  const std::string name_;
  const PlatformTopology topo_;
  const NodeFaultSchedule node_faults_;
  DevicePool pool_;

  std::atomic<int> beats_{0};      ///< heartbeat attempts so far
  std::atomic<int> last_beat_{0};  ///< index of the most recent attempt
  std::atomic<bool> running_{true};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkShard> queue_;
  std::unordered_set<u64> canceled_;
  std::vector<ShardResult> pending_out_;  ///< buffered while partitioned
  CompletionSink sink_;
  bool in_crash_ = false;             ///< currently inside a crash window
  std::atomic<bool> drop_cache_{false};  ///< restart wiped volatile state

  std::map<int, Cached> cache_;  ///< executor-thread only
  std::thread executor_;
};

}  // namespace feves::cluster
