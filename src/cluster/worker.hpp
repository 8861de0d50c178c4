// WorkerProxy: the transport-agnostic surface of one execute node in the
// one-schedule-machine / N-execute-machines design (SNIPPETS.md §1). The
// schedule machine (WorkerManager) talks to every node exclusively through
// this interface: deadline-bounded heartbeats, capability polls and shard
// submissions, with completions pushed back through a sink. The in-process
// LoopbackWorker is the first implementation; a socket transport slots in
// behind the same five calls and inherits the whole robustness layer —
// liveness detection, bounded waiting, lease fencing — for free.
//
// Work moves in *leases*: each dispatched quantum (a contiguous frame range
// of one session) carries a (lease_id, epoch) stamp. The manager bumps the
// session's epoch on every dispatch and fences the old epoch whenever a
// lease expires or its node dies, so a zombie node's late reply — however
// delayed by hangs or healed partitions — can never commit twice.
#pragma once

#include "cluster/rpc.hpp"
#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"
#include "service/resilience.hpp"
#include "video/sequence.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace feves::cluster {

/// What a node exports upstream when the manager polls it: enough for the
/// inter-node tier of the two-tier balance (sched/node_balance.hpp).
struct WorkerCapabilities {
  std::string name;
  int num_devices = 0;
  double capability_score = 0.0;  ///< topology_capability() of the node
};

/// One work quantum: encode frames [frame_begin, frame_end) of a session,
/// resuming from `resume` when valid (bit-identical continuation). The
/// worker never sees the whole session — only the quantum its lease covers.
struct WorkShard {
  u64 lease_id = 0;  ///< globally unique per dispatch
  u64 epoch = 0;     ///< session epoch at dispatch; stale epochs are fenced
  int session = -1;
  int frame_begin = 0;  ///< stream-global; 0 includes the bootstrap I frame
  int frame_end = 0;    ///< exclusive
  int total_frames = 0;

  EncoderConfig cfg;
  FrameworkOptions fw;  ///< fw.trace must stay null (worker-private loop)
  PerturbationSchedule perturbations;
  FaultSchedule device_faults;  ///< device-level faults inside this node
  std::shared_ptr<VideoSource> source;  ///< real mode when non-null
  SessionCheckpoint resume;  ///< valid when frame_begin > 0
};

/// Pushed to the manager's completion sink when a shard finishes (or dies
/// worker-side). Carries its lease stamp so the manager can fence it.
struct ShardResult {
  u64 lease_id = 0;
  u64 epoch = 0;
  int session = -1;
  int node = -1;
  bool ok = false;
  std::string error;
  int frame_begin = 0;
  int frames_done = 0;  ///< frames encoded by this quantum
  bool source_exhausted = false;  ///< real mode: the source ended early
  double encode_ms = 0.0;         ///< wall time the quantum took node-side
  std::vector<FrameStats> frames;
  std::vector<u8> bitstream;     ///< real mode: this quantum's bytes only
  SessionCheckpoint checkpoint;  ///< boundary at frame_begin + frames_done
};

using CompletionSink = std::function<void(ShardResult)>;

using NodeId = int;

/// The RPC surface of one execute node. Every call is bounded by
/// `deadline_ms` and reports transport-level trouble as an RpcStatus — the
/// manager wraps each call in jittered-backoff retries (service/resilience
/// Backoff) and feeds heartbeat outcomes to the HeartbeatMonitor.
class WorkerProxy {
 public:
  virtual ~WorkerProxy() = default;

  virtual NodeId id() const = 0;

  /// Liveness probe. kOk = the node answered within the deadline.
  virtual RpcStatus heartbeat(double deadline_ms) = 0;

  /// Capability poll (resource-manager role): fills `out` on kOk.
  virtual RpcStatus capabilities(double deadline_ms,
                                 WorkerCapabilities* out) = 0;

  /// Asynchronous dispatch: kOk acknowledges that the shard is queued; the
  /// result arrives later through the completion sink. A kDeadlineExceeded
  /// ack is *uncertain* — the node may or may not have the shard — so the
  /// manager must bump the epoch before re-dispatching anywhere.
  virtual RpcStatus submit(const WorkShard& shard, double deadline_ms) = 0;

  /// Best-effort cancel of a fenced lease: drops it from the queue and
  /// aborts it between frames if running. Purely an optimization — a
  /// completion that slips through is fenced by epoch at the manager.
  virtual RpcStatus cancel(u64 lease_id, double deadline_ms) = 0;

  /// Where completed shards are pushed. Set once at registration, before
  /// any submit. Delivery may come from a worker-owned thread.
  virtual void set_completion_sink(CompletionSink sink) = 0;
};

}  // namespace feves::cluster
