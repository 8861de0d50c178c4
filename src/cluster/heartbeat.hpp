// Node liveness: the DeviceHealthMonitor quarantine/probation state machine
// lifted to node granularity. The WorkerManager heartbeats every node every
// tick and reports each outcome; the monitor decides who is dispatchable:
//
//   kAlive --(suspect_misses consecutive misses)--> kSuspect
//   kSuspect --(dead_misses total consecutive misses)--> kDead
//   kSuspect --(one clean beat)--> kProbation
//   kDead --(one clean beat)--> kProbation, ++incarnation (rejoin: the
//       node's old leases stay fenced — its epoch died with it)
//   kProbation --(probation_clean_beats clean beats)--> kAlive
//   kProbation --(any miss)--> kSuspect (required clean window doubles,
//       capped at 32 beats — a flapping node earns trust slowly)
//
// Suspect nodes keep their outstanding leases (the lease deadline, not the
// heartbeat, decides reassignment) but receive no NEW work; dead nodes are
// fenced immediately. The caller learns about edge transitions from the
// record_* return values so it can fence/reassign exactly once per death.
#pragma once

#include "common/check.hpp"

#include <vector>

namespace feves::cluster {

struct HeartbeatOptions {
  int suspect_misses = 2;        ///< consecutive misses to suspect a node
  int dead_misses = 4;           ///< consecutive misses to declare it dead
  int probation_clean_beats = 2; ///< clean beats until fully re-admitted
};

enum class NodeLiveness { kAlive, kSuspect, kDead, kProbation };

const char* to_string(NodeLiveness s);

class HeartbeatMonitor {
 public:
  explicit HeartbeatMonitor(int num_nodes, HeartbeatOptions opts = {});

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NodeLiveness state(int node) const { return at(node).state; }

  /// Alive and probation nodes may receive new work; suspects only keep
  /// what they already hold.
  bool dispatchable(int node) const {
    const NodeLiveness s = at(node).state;
    return s == NodeLiveness::kAlive || s == NodeLiveness::kProbation;
  }
  bool dead(int node) const { return at(node).state == NodeLiveness::kDead; }
  int num_dispatchable() const;
  int num_dead() const;

  /// Monotone per-node rejoin count: bumped each time a dead node comes
  /// back. Work dispatched before a death carries the pre-death epoch, so
  /// the manager never needs the incarnation for fencing — it exists for
  /// attribution ("node 3, incarnation 2").
  int incarnation(int node) const { return at(node).incarnation; }

  /// Records a missed heartbeat. Returns true exactly when this miss
  /// declared the node dead — the caller's cue to fence its epoch and
  /// reassign its leases.
  bool record_miss(int node);

  /// Records a clean heartbeat. Returns true exactly when this beat
  /// re-admitted a DEAD node (rejoin, new incarnation).
  bool record_beat(int node);

 private:
  struct NodeState {
    NodeLiveness state = NodeLiveness::kAlive;
    int consecutive_misses = 0;
    int probation_clean = 0;    ///< clean beats accumulated in probation
    int probation_window = 0;   ///< clean beats this probation requires
    int incarnation = 0;
  };

  const NodeState& at(int node) const {
    FEVES_CHECK(node >= 0 && node < num_nodes());
    return nodes_[static_cast<std::size_t>(node)];
  }

  HeartbeatOptions opts_;
  std::vector<NodeState> nodes_;
};

}  // namespace feves::cluster
