// Multi-session encode service: the correctness battery. The anchor
// property is bit-exactness under concurrency — whatever the arbiter
// grants frame to frame, every session's bitstream and reconstruction
// equal the single-device reference encode of its own sequence — plus the
// arbiter's fair-share policy (weighted shares, idle-share rebalancing,
// admission control, abort) and the service-level throughput criterion
// (4 concurrent sessions on the big pool beat one session by >= 2.5x).
#include "service/encode_service.hpp"

#include "codec/bitstream.hpp"
#include "obs/trace.hpp"
#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

namespace feves {
namespace {

EncoderConfig small_config(int refs = 2) {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = refs;
  return cfg;
}

/// Large virtual config: enough MB rows that the big pool saturates a
/// single session (virtual mode never touches pixels, so this is cheap).
EncoderConfig big_virtual_config() {
  EncoderConfig cfg;
  cfg.width = 1920;
  cfg.height = 1088;
  cfg.search_range = 16;
  cfg.num_ref_frames = 1;
  return cfg;
}

/// Each session gets its own scene (distinct seed): cross-session state
/// bleed cannot cancel out between identical inputs.
SyntheticConfig scene(const EncoderConfig& cfg, int frames, int session) {
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = frames;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.seed = 99 + static_cast<u64>(session);
  return sc;
}

PlatformTopology test_topo(int accels) {
  PlatformTopology t;
  t.devices.push_back(preset_cpu_nehalem());
  for (int i = 0; i < accels; ++i) {
    auto g = preset_gpu_fermi();
    g.name = "GPU#" + std::to_string(i);
    t.devices.push_back(g);
  }
  return t;
}

std::vector<Frame420> load_frames(const SyntheticConfig& sconf, int count) {
  SyntheticSequence seq(sconf);
  std::vector<Frame420> frames;
  for (int f = 0; f < count; ++f) {
    frames.emplace_back(sconf.width, sconf.height);
    EXPECT_TRUE(seq.read_frame(f, frames.back()));
  }
  return frames;
}

std::vector<Frame420> reference_encode(const EncoderConfig& cfg,
                                       const std::vector<Frame420>& frames,
                                       std::vector<u8>* bits) {
  RefList refs(cfg.num_ref_frames);
  std::vector<Frame420> recons;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    auto pic = encode_frame_reference(cfg, frames[f], refs,
                                      static_cast<int>(f), bits);
    recons.push_back(pic->recon);
    refs.push_front(std::move(pic));
  }
  return recons;
}

/// Transient faults on two accelerators: the recovery machinery runs under
/// multi-tenancy, and the output must not notice.
FaultSchedule transient_faults() {
  FaultSchedule faults;
  faults.add({/*device=*/1, /*frame_begin=*/2, /*frame_end=*/3,
              FaultKind::kKernelTransient});
  faults.add({/*device=*/2, /*frame_begin=*/3, /*frame_end=*/4,
              FaultKind::kTransferTransient});
  return faults;
}

// ---- Bit-exactness under concurrency --------------------------------------

class ServiceBitExact
    : public ::testing::TestWithParam<std::tuple<int, SchedulingPolicy, bool>> {
};

TEST_P(ServiceBitExact, EverySessionMatchesItsSoloEncode) {
  const auto [nsessions, policy, faulty] = GetParam();
  const auto cfg = small_config();
  const int kFrames = 5;
  const PlatformTopology topo = test_topo(3);

  // Solo references, one per session's distinct sequence.
  std::vector<std::vector<u8>> ref_bits(static_cast<std::size_t>(nsessions));
  std::vector<std::vector<Frame420>> ref_recons;
  for (int s = 0; s < nsessions; ++s) {
    const auto frames = load_frames(scene(cfg, kFrames, s), kFrames);
    ref_recons.push_back(
        reference_encode(cfg, frames, &ref_bits[static_cast<std::size_t>(s)]));
  }

  EncodeService svc(topo);
  std::vector<int> ids;
  for (int s = 0; s < nsessions; ++s) {
    SessionConfig sc;
    sc.cfg = cfg;
    sc.fw.policy = policy;
    sc.fw.lb.probe_rows = 2;  // exercise share-aware probe balancing
    sc.frames = kFrames;
    if (faulty) sc.faults = transient_faults();
    sc.source = std::make_shared<SyntheticSequence>(scene(cfg, kFrames, s));
    const int id = svc.submit(sc);
    ASSERT_GE(id, 0);
    ids.push_back(id);
  }

  for (int s = 0; s < nsessions; ++s) {
    SessionResult r = svc.wait(ids[static_cast<std::size_t>(s)]);
    ASSERT_EQ(r.state, SessionResult::State::kCompleted)
        << "session " << s << ": " << r.error;
    EXPECT_EQ(r.bitstream, ref_bits[static_cast<std::size_t>(s)])
        << "session " << s << " bitstream diverged from its solo encode";

    // Reconstruction check: decode the session's bitstream and compare
    // frame by frame against the reference reconstructions.
    RefList dec_refs(cfg.num_ref_frames);
    BitReader br(r.bitstream);
    for (int f = 0; f < kFrames; ++f) {
      auto pic = decode_frame(cfg, br, dec_refs);
      EXPECT_TRUE(frames_bit_exact(
          pic->recon,
          ref_recons[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)]))
          << "session " << s << " frame " << f << " reconstruction diverged";
      dec_refs.push_front(std::move(pic));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SessionsPoliciesFaults, ServiceBitExact,
    ::testing::Values(
        std::tuple{1, SchedulingPolicy::kAdaptiveLp, false},
        std::tuple{2, SchedulingPolicy::kAdaptiveLp, false},
        std::tuple{4, SchedulingPolicy::kAdaptiveLp, false},
        std::tuple{8, SchedulingPolicy::kAdaptiveLp, false},
        std::tuple{4, SchedulingPolicy::kEquidistant, false},
        std::tuple{2, SchedulingPolicy::kProportional, false},
        std::tuple{4, SchedulingPolicy::kAdaptiveLp, true},
        std::tuple{8, SchedulingPolicy::kEquidistant, true}));

// ---- Throughput scaling (the acceptance criterion) ------------------------

double aggregate_fps(const PlatformTopology& topo, int nsessions, int frames) {
  EncodeService svc(topo);
  for (int s = 0; s < nsessions; ++s) {
    SessionConfig sc;
    sc.cfg = big_virtual_config();
    sc.fw.policy = SchedulingPolicy::kAdaptiveLp;
    sc.fw.lb.probe_rows = 2;
    sc.frames = frames;
    EXPECT_GE(svc.submit(sc), 0);
  }
  for (const SessionResult& r : svc.drain()) {
    EXPECT_EQ(r.state, SessionResult::State::kCompleted) << r.error;
  }
  return svc.stats().aggregate_fps;
}

TEST(ServiceThroughput, FourSessionsScaleAggregateOnBigPool) {
  // The acceptance criterion: one session cannot saturate the big pool
  // (per-accelerator broadcast, serial R*, tau syncs), so four concurrent
  // sessions on fair shares must push aggregate throughput >= 2.5x one
  // session's. Virtual mode: deterministic, no pixels.
  const PlatformTopology topo = make_pool_big();
  const double one = aggregate_fps(topo, 1, 16);
  const double four = aggregate_fps(topo, 4, 16);
  ASSERT_GT(one, 0.0);
  EXPECT_GE(four, 2.5 * one)
      << "aggregate with 4 sessions " << four << " fps vs single " << one;
}

// ---- Arbiter policy -------------------------------------------------------

std::vector<bool> all_usable(int n) {
  return std::vector<bool>(static_cast<std::size_t>(n), true);
}

TEST(PoolArbiter, FairShareSplitsPoolAmongLiveSessions) {
  PoolArbiter arb(8);
  const int a = arb.admit();
  const int b = arb.admit();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  auto grant = arb.acquire(a, all_usable(8));
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->num_devices, 4);  // 8 devices / 2 equal-weight sessions
  arb.release(a, std::move(*grant), 10.0, 4);
  arb.retire(b);
}

TEST(PoolArbiter, IdleSharesRebalanceToSurvivors) {
  PoolArbiter arb(8);
  const int a = arb.admit();
  const int b = arb.admit();
  auto g1 = arb.acquire(a, all_usable(8));
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->num_devices, 4);
  arb.release(a, std::move(*g1), 10.0, 4);
  arb.retire(b);  // b leaves without ever encoding
  auto g2 = arb.acquire(a, all_usable(8));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->num_devices, 8) << "retired session's share must rebalance";
  arb.release(a, std::move(*g2), 10.0, 8);
  arb.retire(a);
}

TEST(PoolArbiter, WeightedSharesAreProportional) {
  PoolArbiter arb(8);
  const int heavy = arb.admit(/*weight=*/3.0);
  const int light = arb.admit(/*weight=*/1.0);
  auto gh = arb.acquire(heavy, all_usable(8));
  ASSERT_TRUE(gh.has_value());
  EXPECT_EQ(gh->num_devices, 6);  // 8 * 3/4
  auto gl = arb.acquire(light, all_usable(8));
  ASSERT_TRUE(gl.has_value());
  EXPECT_EQ(gl->num_devices, 2);  // 8 * 1/4 (also all that is left)
  arb.release(heavy, std::move(*gh), 5.0, 6);
  arb.release(light, std::move(*gl), 5.0, 2);
  arb.retire(heavy);
  arb.retire(light);
}

TEST(PoolArbiter, AdmissionControlBoundsLiveSessions) {
  ArbiterOptions opts;
  opts.max_sessions = 2;
  PoolArbiter arb(4, opts);
  EXPECT_GE(arb.admit(), 0);
  const int b = arb.admit();
  EXPECT_GE(b, 0);
  EXPECT_EQ(arb.admit(), -1) << "third session must be refused";
  arb.retire(b);
  EXPECT_GE(arb.admit(), 0) << "slot must free up after retire";
}

TEST(PoolArbiter, AbortUnblocksParkedAcquire) {
  PoolArbiter arb(2);
  const int a = arb.admit();
  auto ga = arb.acquire(a, all_usable(2));  // only live session: whole pool
  ASSERT_TRUE(ga.has_value());
  ASSERT_EQ(ga->num_devices, 2);
  const int b = arb.admit();
  std::optional<PoolArbiter::Grant> gb;
  std::thread waiter([&] { gb = arb.acquire(b, all_usable(2)); });
  arb.abort(b);
  waiter.join();
  EXPECT_FALSE(gb.has_value());
  arb.release(a, std::move(*ga), 1.0, 2);
  arb.retire(a);
  arb.retire(b);
}

TEST(PoolArbiter, QueueWaitTracksVirtualDeviceContention) {
  // Two sessions sharing one device: the second frame's device is
  // virtually busy for the first's 10ms, so the arbiter must book that
  // wait against the session that was made to queue.
  PoolArbiter arb(1);
  const int a = arb.admit();
  const int b = arb.admit();
  auto ga = arb.acquire(a, all_usable(1));
  ASSERT_TRUE(ga.has_value());
  arb.release(a, std::move(*ga), 10.0, 1);
  auto gb = arb.acquire(b, all_usable(1));
  ASSERT_TRUE(gb.has_value());
  arb.release(b, std::move(*gb), 10.0, 1);

  const SessionStats sa = arb.session_stats(a);
  const SessionStats sb = arb.session_stats(b);
  EXPECT_DOUBLE_EQ(sa.queue_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(sb.queue_wait_ms, 10.0);
  EXPECT_DOUBLE_EQ(sb.virtual_end_ms, 20.0);
  EXPECT_DOUBLE_EQ(arb.makespan_ms(), 20.0);
  arb.retire(a);
  arb.retire(b);
}

TEST(PoolArbiter, QuarantinedDevicesStayGrantableToOthers) {
  // Session a has quarantined device 1 (its usable mask excludes it);
  // device 1 must still be granted to session b.
  PoolArbiter arb(2);
  const int a = arb.admit();
  const int b = arb.admit();
  std::vector<bool> usable_a = {true, false};
  auto ga = arb.acquire(a, usable_a);
  ASSERT_TRUE(ga.has_value());
  EXPECT_TRUE(ga->lease.covers(0));
  EXPECT_FALSE(ga->lease.covers(1));
  auto gb = arb.acquire(b, all_usable(2));
  ASSERT_TRUE(gb.has_value());
  EXPECT_TRUE(gb->lease.covers(1));
  arb.release(a, std::move(*ga), 1.0, 1);
  arb.release(b, std::move(*gb), 1.0, 1);
  arb.retire(a);
  arb.retire(b);
}

TEST(PoolArbiter, ReleasedDevicesAreRegrantedAheadOfIdleOnes) {
  // Session a runs a frame on devices {2, 3}, leaving them virtually busy
  // for 10 ms while {0, 1} sit idle. Its next grant must still be {2, 3}:
  // affinity outranks backlog, so mirrors stay warm and the
  // characterization stays valid.
  PoolArbiter arb(4);
  const int a = arb.admit();
  const int b = arb.admit();  // live, so a's fair share is 2 of 4
  auto g1 = arb.acquire(a, {false, false, true, true});
  ASSERT_TRUE(g1.has_value());
  ASSERT_TRUE(g1->lease.covers(2) && g1->lease.covers(3));
  arb.release(a, std::move(*g1), 10.0, 2);

  auto g2 = arb.acquire(a, all_usable(4));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->num_devices, 2);
  EXPECT_TRUE(g2->lease.covers(2));
  EXPECT_TRUE(g2->lease.covers(3));
  EXPECT_FALSE(g2->lease.covers(0));
  EXPECT_FALSE(g2->lease.covers(1));
  arb.release(a, std::move(*g2), 10.0, 2);
  arb.retire(a);
  arb.retire(b);
}

// ---- Service-level behaviour ----------------------------------------------

TEST(EncodeService, SingleSessionGetsTheWholePoolEveryFrame) {
  // Idle-share rebalancing, service level: with no competitor, every grant
  // is the full pool, so granted device-time == pool size x encode time.
  const PlatformTopology topo = test_topo(3);
  EncodeService svc(topo);
  SessionConfig sc;
  sc.cfg = small_config();
  sc.frames = 4;
  const int id = svc.submit(sc);
  ASSERT_GE(id, 0);
  SessionResult r = svc.wait(id);
  ASSERT_EQ(r.state, SessionResult::State::kCompleted) << r.error;
  EXPECT_DOUBLE_EQ(r.share.queue_wait_ms, 0.0);
  const double encode_ms = r.share.virtual_end_ms - r.share.queue_wait_ms;
  EXPECT_NEAR(r.share.granted_device_ms, 4.0 * encode_ms, 1e-6)
      << "solo session should be granted all 4 devices each frame";
}

TEST(EncodeService, RejectsBeyondMaxSessionsAndCountsIt) {
  ServiceOptions opts;
  opts.arbiter.max_sessions = 1;
  EncodeService svc(test_topo(2), opts);
  SessionConfig sc;
  sc.cfg = big_virtual_config();  // long enough to still be live below
  sc.frames = 500;
  const int first = svc.submit(sc);
  ASSERT_GE(first, 0);
  SessionConfig sc2;
  sc2.cfg = small_config();
  sc2.frames = 2;
  EXPECT_EQ(svc.submit(sc2), -1);
  svc.drain();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_GE(svc.submit(sc2), 0) << "slot must free once the session retired";
  svc.drain();
}

TEST(EncodeService, AbortStopsASessionMidStream) {
  EncodeService svc(test_topo(2));
  SessionConfig sc;
  sc.cfg = big_virtual_config();
  sc.frames = 500;  // long-running: abort lands mid-stream
  const int id = svc.submit(sc);
  ASSERT_GE(id, 0);
  while (svc.arbiter().session_stats(id).frames < 3) {
    std::this_thread::yield();
  }
  svc.abort(id);
  SessionResult r = svc.wait(id);
  EXPECT_EQ(r.state, SessionResult::State::kAborted);
  EXPECT_GE(static_cast<int>(r.frames.size()), 3);
  EXPECT_LT(static_cast<int>(r.frames.size()), 500);
}

TEST(EncodeService, StatsAggregateAcrossSessions) {
  EncodeService svc(test_topo(3));
  SessionConfig sc;
  sc.cfg = small_config();
  sc.frames = 3;
  std::vector<int> ids;
  for (int s = 0; s < 3; ++s) ids.push_back(svc.submit(sc));
  auto results = svc.drain();
  ASSERT_EQ(results.size(), 3u);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.total_frames, 9);
  EXPECT_GT(stats.aggregate_fps, 0.0);
  EXPECT_GT(stats.makespan_ms, 0.0);
  EXPECT_GT(stats.mean_grant_utilization, 0.0);
  EXPECT_LE(stats.mean_grant_utilization, 1.0 + 1e-9);
  ASSERT_EQ(static_cast<int>(stats.device_busy_ms.size()),
            svc.topology().num_devices());
}

TEST(EncodeService, TraceCarriesTheSessionDimension) {
  // A traced session's events are stamped with its id, and the Chrome
  // export splits tracks per (session, device) pair.
  obs::TraceSession trace;
  EncodeService svc(test_topo(2));
  SessionConfig sc;
  sc.cfg = small_config();
  sc.frames = 2;
  sc.fw.trace = &trace;
  const int id = svc.submit(sc);
  ASSERT_GE(id, 0);
  SessionResult r = svc.wait(id);
  ASSERT_EQ(r.state, SessionResult::State::kCompleted) << r.error;

  ASSERT_GT(trace.sink.size(), 0u);
  for (const obs::TraceEvent& e : trace.sink.events()) {
    EXPECT_EQ(e.session, id);
  }
  std::ostringstream os;
  trace.sink.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"session\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("s" + std::to_string(id) + " "), std::string::npos)
      << "process names should carry the session prefix";
}

}  // namespace
}  // namespace feves
