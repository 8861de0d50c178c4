// The schedule machine of the cluster tier: registers WorkerProxy nodes,
// heartbeats them every tick, and drives sessions by dispatching work
// quanta (leases) to the best dispatchable node — the inter-node half of
// the two-tier balance (sched/node_balance.hpp); intra-node, each worker's
// private Algorithm-2 LP splits every frame across its own devices.
//
// Robustness contract, in one place:
//   * Every RPC is deadline-bounded and retried with jittered Backoff.
//   * Liveness comes from the HeartbeatMonitor; a death fences the node's
//     outstanding leases and reassigns them to survivors, resuming from the
//     last committed SessionCheckpoint — the spliced output stays
//     bit-identical to a solo encode.
//   * Every dispatch ATTEMPT bumps the session epoch and takes a fresh
//     lease id, so an uncertain submit ack (deadline-exceeded against a
//     hung node) can never lead to a double commit: at most one epoch is
//     live, and completions carrying any other epoch are dropped as fenced.
//   * Commits are sequential by construction (a session has at most one
//     outstanding lease, covering exactly [committed, committed+quantum)),
//     checked by FEVES_CHECK on every commit.
#pragma once

#include "cluster/heartbeat.hpp"
#include "cluster/worker.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace feves::cluster {

/// One cluster-scheduled encode session (virtual when `source` is null).
struct ClusterSessionConfig {
  EncoderConfig cfg;
  FrameworkOptions fw;  ///< trace is stripped worker-side; set opts.trace
                        ///< on the manager for cluster-lane events instead
  int frames = 8;
  PerturbationSchedule perturbations;
  FaultSchedule device_faults;
  std::shared_ptr<VideoSource> source;
  /// Frames per lease: the reassignment quantum. Smaller = less work lost
  /// per node death, more dispatch overhead.
  int chunk_frames = 2;
};

struct ClusterSessionResult {
  int id = -1;
  TerminalReason reason = TerminalReason::kError;
  std::string error;
  std::vector<FrameStats> frames;
  std::vector<u8> bitstream;  ///< real mode: spliced, bit-identical to solo
  int committed_frames = 0;
  u64 final_epoch = 0;  ///< dispatches + fences the session lived through
};

struct WorkerManagerOptions {
  HeartbeatOptions heartbeat;
  /// Extra submit attempts after the first (each with a fresh epoch/lease).
  int rpc_retries = 2;
  double tick_sleep_ms = 0.2;
  /// Consecutive ticks with zero dispatchable nodes (and work pending)
  /// before sessions fail with kNoLiveWorker instead of waiting forever.
  int all_dead_grace_ticks = 500;
  ResilienceOptions backoff;  ///< only the backoff_* fields are used
  obs::TraceSession* trace = nullptr;  ///< cluster-lane marks when set
};

/// Per-node counters for the bench's per-node report (satellite view of
/// the manager-wide NodeTelemetry).
struct NodeCounters {
  std::string name;
  int dispatches = 0;
  int completions = 0;
  int fenced_replies = 0;
  int reassigned_away = 0;  ///< leases fenced off this node
  int steals = 0;           ///< reassigned quanta this node picked up
  int heartbeat_misses = 0;
};

class WorkerManager {
 public:
  explicit WorkerManager(WorkerManagerOptions opts = {});
  ~WorkerManager();

  WorkerManager(const WorkerManager&) = delete;
  WorkerManager& operator=(const WorkerManager&) = delete;

  /// Registers a node and polls its capabilities (with retries). Returns
  /// the NodeId the manager will use for it. Call before the first submit.
  NodeId register_worker(std::unique_ptr<WorkerProxy> worker);

  int num_workers() const;

  /// Enqueues a session; the driver dispatches it on its next tick.
  int submit(ClusterSessionConfig cfg);

  /// Blocks until the session reaches a terminal state.
  ClusterSessionResult wait(int id);

  /// Waits for every submitted session.
  std::vector<ClusterSessionResult> drain();

  obs::NodeTelemetry telemetry() const;
  std::vector<NodeCounters> node_counters() const;
  NodeLiveness node_state(int node) const;
  int node_incarnation(int node) const;

 private:
  struct Node {
    std::unique_ptr<WorkerProxy> worker;
    WorkerCapabilities caps;
    int outstanding = 0;
    double ewma_fpms = 0.0;  ///< measured frames/ms, EWMA over commits
    NodeCounters counters;
  };

  struct SessionState {
    int id = -1;
    ClusterSessionConfig cfg;
    u64 epoch = 0;
    int committed = 0;
    bool outstanding = false;
    u64 lease_id = 0;
    int lease_node = -1;
    u64 lease_tick = 0;
    bool reassigned = false;  ///< next dispatch on a new node is a steal
    int last_node = -1;
    int consecutive_failures = 0;
    SessionCheckpoint checkpoint;
    ClusterSessionResult result;
    bool done = false;
  };

  void run_driver();
  void tick();
  void beat_nodes();
  void drain_inbox();
  void expire_leases();
  void dispatch_pending();
  /// Invalidates the session's outstanding lease (epoch stays burned; the
  /// next dispatch bumps past it) and marks it for reassignment.
  void fence_session_locked(SessionState* s, const char* why);
  void fence_node_locked(int node);
  void finish_locked(SessionState* s, TerminalReason reason,
                     std::string error);
  std::vector<double> node_capabilities_locked() const;
  void mark(int session, const char* label);

  WorkerManagerOptions opts_;

  // The completion inbox has its own mutex and must outlive the workers
  // (declared before them): worker threads call the sink during teardown.
  mutable std::mutex inbox_mu_;
  std::vector<ShardResult> inbox_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<Node> nodes_;
  std::unique_ptr<HeartbeatMonitor> monitor_;  ///< grows with registration
  std::vector<std::unique_ptr<SessionState>> sessions_;
  obs::NodeTelemetry tel_;
  u64 next_lease_ = 0;
  u64 tick_count_ = 0;
  int all_dead_ticks_ = 0;

  std::atomic<bool> running_{true};
  std::thread driver_;
};

}  // namespace feves::cluster
