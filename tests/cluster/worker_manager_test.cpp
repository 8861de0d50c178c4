// Functional coverage of the cluster tier: dispatch and completion through
// the WorkerManager, two-tier balance across unequal nodes, checkpointed
// resume-elsewhere, and the robustness headline — crash reassignment,
// zombie-reply fencing after hangs, false-positive deaths under heartbeat
// loss — each checked for bit-exact output against a solo encode.
#include "cluster/worker_manager.hpp"

#include "cluster/loopback_worker.hpp"
#include "codec/frame_codec.hpp"
#include "platform/presets.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace feves::cluster {
namespace {

PlatformTopology small_node() {
  PlatformTopology t;
  t.devices.push_back(preset_cpu_nehalem());
  return t;
}

PlatformTopology big_node() { return make_sys_nf(); }

EncoderConfig real_config() {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  return cfg;
}

EncoderConfig virtual_config() {
  EncoderConfig cfg;
  cfg.width = 640;
  cfg.height = 384;
  cfg.search_range = 8;
  return cfg;
}

SyntheticConfig scene_for(const EncoderConfig& cfg, int frames, u64 seed) {
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = frames;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.seed = seed;
  return sc;
}

std::vector<u8> solo_reference(const EncoderConfig& cfg,
                               const SyntheticConfig& sconf, int frames) {
  SyntheticSequence seq(sconf);
  Frame420 frame(cfg.width, cfg.height);
  RefList refs(cfg.num_ref_frames);
  std::vector<u8> bits;
  for (int f = 0; f < frames; ++f) {
    EXPECT_TRUE(seq.read_frame(f, frame));
    refs.push_front(encode_frame_reference(cfg, frame, refs, f, &bits));
  }
  return bits;
}

WorkerManagerOptions fast_opts() {
  WorkerManagerOptions o;
  o.tick_sleep_ms = 0.3;
  o.rpc_retries = 2;
  o.backoff.backoff_initial_ms = 0.1;
  o.backoff.backoff_max_ms = 1.0;
  return o;
}

/// Polls a telemetry predicate until it holds or ~5s pass.
template <typename Pred>
bool eventually(const WorkerManager& mgr, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred(mgr.telemetry())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(WorkerManager, VirtualSessionCompletesOnOneNode) {
  WorkerManager mgr(fast_opts());
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(0, "solo", small_node()));
  ASSERT_EQ(mgr.num_workers(), 1);

  ClusterSessionConfig cfg;
  cfg.cfg = virtual_config();
  cfg.frames = 6;
  cfg.chunk_frames = 2;
  const int id = mgr.submit(cfg);

  const ClusterSessionResult r = mgr.wait(id);
  EXPECT_EQ(r.reason, TerminalReason::kCompleted);
  EXPECT_EQ(r.committed_frames, 6);
  EXPECT_EQ(r.frames.size(), 6u);
  EXPECT_GE(r.final_epoch, 3u) << "one epoch per dispatched quantum";

  const obs::NodeTelemetry t = mgr.telemetry();
  EXPECT_GE(t.dispatches, 3);
  EXPECT_EQ(t.completions, t.dispatches);
  EXPECT_EQ(t.nodes_died, 0);
  EXPECT_EQ(t.fenced_replies, 0);
}

TEST(WorkerManager, ConcurrentSessionsSpreadAcrossNodes) {
  WorkerManager mgr(fast_opts());
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(0, "a", small_node()));
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(1, "b", small_node()));

  ClusterSessionConfig cfg;
  cfg.cfg = virtual_config();
  cfg.frames = 4;
  cfg.chunk_frames = 1;
  std::vector<int> ids;
  for (int k = 0; k < 4; ++k) ids.push_back(mgr.submit(cfg));
  for (int id : ids) {
    EXPECT_EQ(mgr.wait(id).reason, TerminalReason::kCompleted);
  }

  // Equal nodes, four concurrent sessions: capability/(1+outstanding)
  // cannot keep picking one node while the other idles.
  const std::vector<NodeCounters> nc = mgr.node_counters();
  ASSERT_EQ(nc.size(), 2u);
  EXPECT_GT(nc[0].dispatches, 0) << nc[0].name;
  EXPECT_GT(nc[1].dispatches, 0) << nc[1].name;
}

TEST(WorkerManager, CheckpointHandoffAcrossWorkersIsBitIdentical) {
  // The resume-elsewhere contract at worker level, with no timing in play:
  // encode [0,3) on one node, hand its checkpoint to a DIFFERENT node for
  // [3,6), splice the two bitstreams, compare against a solo encode.
  const EncoderConfig cfg = real_config();
  const int frames = 6;
  const SyntheticConfig sconf = scene_for(cfg, frames, /*seed=*/77);
  const std::vector<u8> solo = solo_reference(cfg, sconf, frames);

  auto run_shard = [&](LoopbackWorker& w, const WorkShard& shard) {
    std::mutex mu;
    std::condition_variable cv;
    bool got = false;
    ShardResult out;
    w.set_completion_sink([&](ShardResult r) {
      std::lock_guard<std::mutex> lk(mu);
      out = std::move(r);
      got = true;
      cv.notify_all();
    });
    EXPECT_EQ(w.submit(shard, 1.0), RpcStatus::kOk);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait_for(lk, std::chrono::seconds(60), [&] { return got; });
    EXPECT_TRUE(got);
    return out;
  };

  LoopbackWorker w0(0, "first", big_node());
  LoopbackWorker w1(1, "second", small_node());

  WorkShard s0;
  s0.lease_id = 1;
  s0.epoch = 1;
  s0.session = 0;
  s0.frame_begin = 0;
  s0.frame_end = 3;
  s0.total_frames = frames;
  s0.cfg = cfg;
  s0.source = std::make_shared<SyntheticSequence>(sconf);
  const ShardResult r0 = run_shard(w0, s0);
  ASSERT_TRUE(r0.ok) << r0.error;
  ASSERT_EQ(r0.frames_done, 3);
  ASSERT_TRUE(r0.checkpoint.valid);

  WorkShard s1 = s0;
  s1.lease_id = 2;
  s1.epoch = 2;
  s1.frame_begin = 3;
  s1.frame_end = frames;
  s1.resume = r0.checkpoint;
  const ShardResult r1 = run_shard(w1, s1);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_EQ(r1.frames_done, 3);

  std::vector<u8> spliced = r0.bitstream;
  spliced.insert(spliced.end(), r1.bitstream.begin(), r1.bitstream.end());
  EXPECT_EQ(spliced, solo)
      << "handoff across nodes must be bit-identical to a solo encode";
}

TEST(WorkerManager, CrashedNodeWorkLandsOnSurvivorBitIdentical) {
  // The bigger (attractive) node is crashed from the first beat: every
  // dispatch to it fails, the monitor declares it dead, and the survivor
  // runs the whole session — output must not care.
  NodeFaultSchedule crash;
  crash.add({/*node=*/0, /*beat_begin=*/1, kFaultForever,
             NodeFaultKind::kCrash});

  WorkerManager mgr(fast_opts());
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(0, "doomed", big_node(), crash));
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(1, "survivor", small_node()));

  const EncoderConfig cfg = real_config();
  const int frames = 5;
  const SyntheticConfig sconf = scene_for(cfg, frames, /*seed=*/31);

  ClusterSessionConfig sc;
  sc.cfg = cfg;
  sc.frames = frames;
  sc.chunk_frames = 2;
  sc.source = std::make_shared<SyntheticSequence>(sconf);
  const ClusterSessionResult r = mgr.wait(mgr.submit(sc));

  EXPECT_EQ(r.reason, TerminalReason::kCompleted);
  EXPECT_EQ(r.committed_frames, frames);
  EXPECT_EQ(r.bitstream, solo_reference(cfg, sconf, frames));
  EXPECT_TRUE(eventually(
      mgr, [](const obs::NodeTelemetry& t) { return t.nodes_died >= 1; }));

  const std::vector<NodeCounters> nc = mgr.node_counters();
  EXPECT_EQ(nc[0].completions, 0) << "a crashed node completes nothing";
  EXPECT_GT(nc[1].completions, 0);
}

/// A transport in front of a node that orders its death by construction:
/// the node answers every heartbeat until it holds work (so the manager
/// dispatches to it while it is alive), then its own fault schedule takes
/// over the heartbeats, and its completions are held until the manager has
/// seen more than `dead_misses` misses — it declared the node dead, and
/// fenced its lease, on the last of those. A held reply is released from
/// inside a later heartbeat, before that tick drains the inbox, so it
/// always meets the fence. With late acks, every submit the node accepts
/// lands on it but is answered kDeadlineExceeded: a hung node's uncertain
/// submit, which the manager retries under a fresh epoch each time and
/// never counts as dispatched there.
class RepliesAfterDeath final : public WorkerProxy {
 public:
  enum class Acks { kOnTime, kLate };

  RepliesAfterDeath(std::unique_ptr<WorkerProxy> inner, int dead_misses,
                    Acks acks = Acks::kOnTime)
      : inner_(std::move(inner)), dead_misses_(dead_misses), acks_(acks) {}

  NodeId id() const override { return inner_->id(); }

  RpcStatus heartbeat(double deadline_ms) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!holds_work_) return RpcStatus::kOk;
    }
    const RpcStatus st = inner_->heartbeat(deadline_ms);
    std::vector<ShardResult> release;
    CompletionSink sink;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (st != RpcStatus::kOk) ++misses_;
      if (misses_ > dead_misses_) release.swap(held_);
      sink = sink_;
    }
    for (ShardResult& r : release) sink(std::move(r));
    return st;
  }

  RpcStatus capabilities(double deadline_ms,
                         WorkerCapabilities* out) override {
    return inner_->capabilities(deadline_ms, out);
  }

  RpcStatus submit(const WorkShard& shard, double deadline_ms) override {
    const RpcStatus st = inner_->submit(shard, deadline_ms);
    if (st == RpcStatus::kOk) {
      std::lock_guard<std::mutex> lk(mu_);
      holds_work_ = true;
      if (acks_ == Acks::kLate) return RpcStatus::kDeadlineExceeded;
    }
    return st;
  }

  RpcStatus cancel(u64 lease_id, double deadline_ms) override {
    return inner_->cancel(lease_id, deadline_ms);
  }

  void set_completion_sink(CompletionSink sink) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      sink_ = std::move(sink);
    }
    inner_->set_completion_sink([this](ShardResult r) {
      CompletionSink forward;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (misses_ <= dead_misses_) {
          held_.push_back(std::move(r));
          return;
        }
        forward = sink_;
      }
      forward(std::move(r));
    });
  }

 private:
  std::unique_ptr<WorkerProxy> inner_;
  const int dead_misses_;
  const Acks acks_;
  std::mutex mu_;
  bool holds_work_ = false;
  int misses_ = 0;
  std::vector<ShardResult> held_;
  CompletionSink sink_;
};

TEST(WorkerManager, HeartbeatLossFalsePositiveDeathStaysBitExact) {
  // Node 0 keeps working but its heartbeats vanish: a FALSE-POSITIVE death.
  // The manager fences it and re-runs the work on the survivor; the healthy
  // zombie's completions arrive and must be dropped, not double-committed —
  // bit-exactness against solo proves no frame range landed twice. The
  // transport above makes node 0's reply land after its death declaration
  // however fast its quantum runs.
  NodeFaultSchedule loss;
  loss.add({/*node=*/0, /*beat_begin=*/1, kFaultForever,
            NodeFaultKind::kHeartbeatLoss});

  const WorkerManagerOptions opts = fast_opts();
  WorkerManager mgr(opts);
  mgr.register_worker(std::make_unique<RepliesAfterDeath>(
      std::make_unique<LoopbackWorker>(0, "falsely-dead", big_node(), loss),
      opts.heartbeat.dead_misses));
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(1, "survivor", small_node()));

  const EncoderConfig cfg = real_config();
  const int frames = 6;
  const SyntheticConfig sconf = scene_for(cfg, frames, /*seed=*/93);

  ClusterSessionConfig sc;
  sc.cfg = cfg;
  sc.frames = frames;
  sc.chunk_frames = 6;  // one quantum: the zombie's reply covers every frame
  sc.source = std::make_shared<SyntheticSequence>(sconf);
  const ClusterSessionResult r = mgr.wait(mgr.submit(sc));

  EXPECT_EQ(r.reason, TerminalReason::kCompleted);
  EXPECT_EQ(r.committed_frames, frames);
  EXPECT_EQ(r.bitstream, solo_reference(cfg, sconf, frames));
  EXPECT_TRUE(eventually(
      mgr, [](const obs::NodeTelemetry& t) { return t.nodes_died >= 1; }));
  EXPECT_TRUE(eventually(mgr, [](const obs::NodeTelemetry& t) {
    return t.fenced_replies >= 1;
  })) << "the healthy zombie's reply must be fenced";
}

TEST(WorkerManager, HungZombieRepliesAreFencedNotCommitted) {
  // Node 0 hangs once it holds work: submits to it land but ack late
  // (uncertain), so the manager burns those epochs, and its heartbeats stop,
  // so it is suspected, declared dead, and the survivor encodes everything.
  // The zombie executes its stale queue all the same and replies once it is
  // dead — every reply must be fenced, and the output must still be whole.
  // The transport orders these steps by construction, not by beat timing.
  NodeFaultSchedule hung;
  hung.add({/*node=*/0, /*beat_begin=*/1, kFaultForever,
            NodeFaultKind::kHeartbeatLoss});

  const WorkerManagerOptions opts = fast_opts();
  WorkerManager mgr(opts);
  mgr.register_worker(std::make_unique<RepliesAfterDeath>(
      std::make_unique<LoopbackWorker>(0, "zombie", big_node(), hung),
      opts.heartbeat.dead_misses, RepliesAfterDeath::Acks::kLate));
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(1, "survivor", small_node()));

  ClusterSessionConfig sc;
  sc.cfg = virtual_config();
  sc.frames = 6;
  sc.chunk_frames = 6;
  const ClusterSessionResult r = mgr.wait(mgr.submit(sc));

  EXPECT_EQ(r.reason, TerminalReason::kCompleted);
  EXPECT_EQ(r.frames.size(), 6u);

  // The uncertain acks left stale shards on the zombie; it finishes them
  // and the manager drops every reply by epoch.
  EXPECT_TRUE(eventually(mgr, [](const obs::NodeTelemetry& t) {
    return t.fenced_replies >= 1;
  })) << "zombie replies must surface and be fenced";
  const obs::NodeTelemetry t = mgr.telemetry();
  EXPECT_GE(t.rpc_retries, 1) << "uncertain acks were retried with backoff";
  EXPECT_GE(t.nodes_died, 1);
  EXPECT_EQ(mgr.node_counters()[0].completions, 0);
}

TEST(WorkerManager, AllNodesDeadAttributesNoLiveWorker) {
  NodeFaultSchedule crash;
  crash.add({/*node=*/0, /*beat_begin=*/1, kFaultForever,
             NodeFaultKind::kCrash});

  WorkerManagerOptions opts = fast_opts();
  opts.all_dead_grace_ticks = 40;
  WorkerManager mgr(opts);
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(0, "gone", small_node(), crash));

  ClusterSessionConfig sc;
  sc.cfg = virtual_config();
  sc.frames = 4;
  const ClusterSessionResult r = mgr.wait(mgr.submit(sc));

  EXPECT_EQ(r.reason, TerminalReason::kNoLiveWorker);
  EXPECT_FALSE(r.error.empty()) << "failures carry an attributed error";
  EXPECT_EQ(r.committed_frames, 0);
  EXPECT_EQ(mgr.node_state(0), NodeLiveness::kDead);
}

TEST(WorkerManager, DestructorAbortsUnfinishedSessions) {
  NodeFaultSchedule crash;
  crash.add({/*node=*/0, /*beat_begin=*/1, kFaultForever,
             NodeFaultKind::kCrash});
  auto mgr = std::make_unique<WorkerManager>(fast_opts());
  mgr->register_worker(
      std::make_unique<LoopbackWorker>(0, "gone", small_node(), crash));
  ClusterSessionConfig sc;
  sc.cfg = virtual_config();
  sc.frames = 4;
  mgr->submit(sc);
  // Destroying the manager with the only node dead must not hang and must
  // leave the session attributed, not dangling.
  mgr.reset();
  SUCCEED();
}

}  // namespace
}  // namespace feves::cluster
