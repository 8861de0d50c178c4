#include "cluster/heartbeat.hpp"

#include <algorithm>

namespace feves::cluster {

namespace {

// A probation relapse doubles the clean window the node must show next
// time, up to this many beats.
constexpr int kMaxProbationBeats = 32;

}  // namespace

const char* to_string(NodeLiveness s) {
  switch (s) {
    case NodeLiveness::kAlive: return "alive";
    case NodeLiveness::kSuspect: return "suspect";
    case NodeLiveness::kDead: return "dead";
    case NodeLiveness::kProbation: return "probation";
  }
  return "?";
}

HeartbeatMonitor::HeartbeatMonitor(int num_nodes, HeartbeatOptions opts)
    : opts_(opts) {
  FEVES_CHECK(num_nodes >= 1);
  FEVES_CHECK(opts_.suspect_misses >= 1);
  FEVES_CHECK(opts_.dead_misses > opts_.suspect_misses);
  FEVES_CHECK(opts_.probation_clean_beats >= 1);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (NodeState& n : nodes_) {
    n.probation_window = opts_.probation_clean_beats;
  }
}

int HeartbeatMonitor::num_dispatchable() const {
  int n = 0;
  for (int i = 0; i < num_nodes(); ++i) n += dispatchable(i) ? 1 : 0;
  return n;
}

int HeartbeatMonitor::num_dead() const {
  int n = 0;
  for (const NodeState& s : nodes_) {
    n += s.state == NodeLiveness::kDead ? 1 : 0;
  }
  return n;
}

bool HeartbeatMonitor::record_miss(int node) {
  FEVES_CHECK(node >= 0 && node < num_nodes());
  NodeState& n = nodes_[static_cast<std::size_t>(node)];
  if (n.state == NodeLiveness::kDead) return false;  // already dead
  ++n.consecutive_misses;
  if (n.state == NodeLiveness::kProbation) {
    // Relapse: back to suspect with a grown clean-window requirement, so a
    // flapping node pays geometrically more proof before full trust.
    n.probation_window = std::min(kMaxProbationBeats, 2 * n.probation_window);
    n.probation_clean = 0;
    n.state = NodeLiveness::kSuspect;
    // A probation relapse starts the death countdown from the suspect
    // threshold: the node already burned its benefit of the doubt.
    n.consecutive_misses = std::max(n.consecutive_misses,
                                    opts_.suspect_misses);
  }
  if (n.state == NodeLiveness::kAlive &&
      n.consecutive_misses >= opts_.suspect_misses) {
    n.state = NodeLiveness::kSuspect;
  }
  if (n.state == NodeLiveness::kSuspect &&
      n.consecutive_misses >= opts_.dead_misses) {
    n.state = NodeLiveness::kDead;
    return true;  // newly dead: fence and reassign now
  }
  return false;
}

bool HeartbeatMonitor::record_beat(int node) {
  FEVES_CHECK(node >= 0 && node < num_nodes());
  NodeState& n = nodes_[static_cast<std::size_t>(node)];
  n.consecutive_misses = 0;
  switch (n.state) {
    case NodeLiveness::kAlive:
      return false;
    case NodeLiveness::kSuspect:
      n.state = NodeLiveness::kProbation;
      n.probation_clean = 1;
      break;
    case NodeLiveness::kDead:
      n.state = NodeLiveness::kProbation;
      n.probation_clean = 1;
      ++n.incarnation;
      // Check for immediate full re-admission below, then report rejoin.
      if (n.probation_clean >= n.probation_window) {
        n.state = NodeLiveness::kAlive;
        n.probation_clean = 0;
      }
      return true;
    case NodeLiveness::kProbation:
      ++n.probation_clean;
      break;
  }
  if (n.state == NodeLiveness::kProbation &&
      n.probation_clean >= n.probation_window) {
    n.state = NodeLiveness::kAlive;
    n.probation_clean = 0;
  }
  return false;
}

}  // namespace feves::cluster
