// Chaos harness for the encode service: hundreds of seeded, randomized
// schedules of fault storms, aborts, admission pressure, deadlines and
// restarts, each checked against the resilience invariants —
//
//   * liveness: every submitted session reaches a terminal state (a hang
//     here fails as a ctest timeout);
//   * attribution: every terminal state carries a consistent
//     TerminalReason, and failures carry an error;
//   * no leaks: after the service drains, every pool device is free and no
//     session is live or queued in the arbiter;
//   * bit-exactness: every COMPLETED real session's bitstream equals its
//     solo reference encode, no matter what storms it rode through.
//
// Iteration count comes from FEVES_CHAOS_ITERS (default keeps plain ctest
// fast; tools/chaos.sh drives the full 500, reduced under sanitizers).
#include "service/encode_service.hpp"

#include "codec/frame_codec.hpp"
#include "common/rng.hpp"
#include "platform/presets.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

namespace feves {
namespace {

int chaos_iters(int fallback) {
  const char* env = std::getenv("FEVES_CHAOS_ITERS");
  if (env == nullptr) return fallback;
  const int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

PlatformTopology chaos_topo(int accels) {
  PlatformTopology t;
  t.devices.push_back(preset_cpu_nehalem());
  for (int i = 0; i < accels; ++i) {
    auto g = preset_gpu_fermi();
    g.name = "GPU#" + std::to_string(i);
    t.devices.push_back(g);
  }
  return t;
}

/// Virtual sessions use a mid-size config (frames slow enough for aborts
/// to land mid-stream, fast enough for hundreds of iterations).
EncoderConfig chaos_virtual_config() {
  EncoderConfig cfg;
  cfg.width = 640;
  cfg.height = 384;
  cfg.search_range = 8;
  cfg.num_ref_frames = 1;
  return cfg;
}

EncoderConfig chaos_real_config() {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  return cfg;
}

SyntheticConfig chaos_scene(const EncoderConfig& cfg, int frames, u64 seed) {
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

/// One randomized fault storm: 0-3 events over random devices / windows.
/// Hangs only when the caller armed a watchdog (virtual sessions).
FaultSchedule random_storm(Rng& rng, int num_devices, bool allow_hangs) {
  FaultSchedule storm;
  const int events = static_cast<int>(rng.uniform_int(0, 3));
  for (int e = 0; e < events; ++e) {
    FaultEvent ev;
    ev.device = static_cast<int>(rng.uniform_int(0, num_devices - 1));
    ev.frame_begin = 1 + static_cast<int>(rng.uniform_int(0, 4));
    ev.frame_end = ev.frame_begin + 1 + static_cast<int>(rng.uniform_int(0, 2));
    const int kinds = allow_hangs ? 4 : 3;
    ev.kind = static_cast<FaultKind>(rng.uniform_int(0, kinds - 1));
    storm.add(ev);
  }
  return storm;
}

/// State/reason consistency: the attribution invariant.
void expect_attributed(const SessionResult& r) {
  switch (r.state) {
    case SessionResult::State::kCompleted:
      EXPECT_EQ(r.reason, TerminalReason::kCompleted);
      break;
    case SessionResult::State::kAborted:
      EXPECT_EQ(r.reason, TerminalReason::kAborted);
      break;
    case SessionResult::State::kShed:
      EXPECT_EQ(r.reason, TerminalReason::kShed);
      // A shed session never held a grant, so at most the host-side
      // bootstrap I-frame (real mode, encoded before the first acquire)
      // may have been produced.
      EXPECT_LE(r.frames.size(), 1u);
      break;
    case SessionResult::State::kFailed:
      EXPECT_TRUE(r.reason == TerminalReason::kDeadlineExceeded ||
                  r.reason == TerminalReason::kRestartsExhausted ||
                  r.reason == TerminalReason::kNoUsableDevice ||
                  r.reason == TerminalReason::kProbationChurn ||
                  r.reason == TerminalReason::kError)
          << "failed with reason " << to_string(r.reason);
      EXPECT_FALSE(r.error.empty());
      break;
  }
}

TEST(Chaos, RandomizedFaultStormsAbortsAndOverload) {
  const int iters = chaos_iters(/*fallback=*/25);
  // Real sessions are the expensive minority; their solo references are
  // cached per (scene seed, frame count) across iterations.
  std::map<std::pair<u64, int>, std::vector<u8>> ref_cache;

  for (int iter = 0; iter < iters; ++iter) {
    const u64 seed = 0xC0FFEEull + static_cast<u64>(iter);
    Rng rng(seed);
    const int accels = 2 + static_cast<int>(rng.uniform_int(0, 2));
    const PlatformTopology topo = chaos_topo(accels);

    ServiceOptions opts;
    opts.arbiter.max_sessions = 2 + static_cast<int>(rng.uniform_int(0, 3));
    opts.arbiter.admission_queue = static_cast<int>(rng.uniform_int(0, 2));
    opts.breaker.open_ms = 1.0;
    EncodeService svc(topo, opts);

    struct Submitted {
      int id = -1;
      int requested = 0;
      bool real = false;
      u64 scene_seed = 0;
      bool abort_planned = false;
    };
    std::vector<Submitted> subs;
    int refused = 0;
    const int nsessions = 3 + static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < nsessions; ++k) {
      SessionConfig sc;
      Submitted sub;
      sub.real = rng.uniform01() < 0.25;
      sub.scene_seed = seed * 31 + static_cast<u64>(k);
      sub.requested = 3 + static_cast<int>(rng.uniform_int(0, 5));
      sc.frames = sub.requested;
      sc.weight = 0.5 + rng.uniform01() * 2.5;
      if (sub.real) {
        sc.cfg = chaos_real_config();
        sc.source = std::make_shared<SyntheticSequence>(
            chaos_scene(sc.cfg, sub.requested, sub.scene_seed));
        if (rng.uniform01() < 0.5) {
          sc.faults = random_storm(rng, topo.num_devices(),
                                   /*allow_hangs=*/false);
        }
      } else {
        sc.cfg = chaos_virtual_config();
        if (rng.uniform01() < 0.6) {
          sc.fw.watchdog_ms = 2.0;
          sc.faults = random_storm(rng, topo.num_devices(),
                                   /*allow_hangs=*/true);
        }
      }
      sc.resilience.max_restarts = static_cast<int>(rng.uniform_int(0, 4));
      sc.resilience.checkpoint_interval =
          static_cast<int>(rng.uniform_int(1, 3));
      if (rng.uniform01() < 0.2) {
        sc.resilience.deadline_ms = 5.0 + rng.uniform01() * 30.0;
      }
      sub.abort_planned = rng.uniform01() < 0.3;
      sub.id = svc.submit(sc);
      if (sub.id < 0) {
        ++refused;
        continue;
      }
      subs.push_back(sub);
    }

    // Fire the planned aborts while the storm is in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const Submitted& sub : subs) {
      if (sub.abort_planned) svc.abort(sub.id);
    }

    // Liveness: drain() returning at all is the no-deadlock check (a stuck
    // session turns into this test's ctest TIMEOUT).
    std::vector<SessionResult> results = svc.drain();
    ASSERT_EQ(results.size(), subs.size()) << "seed " << seed;

    int shed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SessionResult& r = results[i];
      const Submitted& sub = subs[i];
      EXPECT_EQ(r.id, sub.id);
      expect_attributed(r);
      EXPECT_LE(static_cast<int>(r.frames.size()), sub.requested)
          << "seed " << seed;
      shed += r.state == SessionResult::State::kShed ? 1 : 0;
      // (A planned abort may land after the session already completed —
      // both terminal states are legitimate, so no expectation on it.)
      // Bit-exactness rides through every storm: completed real sessions
      // must match their solo encode whatever recovery path they took.
      if (sub.real && r.state == SessionResult::State::kCompleted) {
        auto key = std::make_pair(sub.scene_seed, sub.requested);
        auto it = ref_cache.find(key);
        if (it == ref_cache.end()) {
          it = ref_cache
                   .emplace(key, solo_reference(
                                     chaos_real_config(),
                                     chaos_scene(chaos_real_config(),
                                                 sub.requested, sub.scene_seed),
                                     sub.requested))
                   .first;
        }
        EXPECT_EQ(r.bitstream, it->second)
            << "seed " << seed << " session " << sub.id
            << " diverged from its solo encode";
      }
    }

    // No leaked lease, grant, or session: the books must balance after
    // every storm, whatever mix of outcomes it produced.
    EXPECT_EQ(svc.arbiter().free_devices(), topo.num_devices())
        << "seed " << seed << " leaked a device lease";
    EXPECT_EQ(svc.arbiter().live_sessions(), 0) << "seed " << seed;
    EXPECT_EQ(svc.arbiter().queued_sessions(), 0) << "seed " << seed;
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.admitted, static_cast<int>(subs.size()));
    EXPECT_EQ(stats.rejected, refused);
    EXPECT_EQ(stats.shed, shed);

    if ((iter + 1) % 100 == 0) {
      std::cout << "[chaos] " << (iter + 1) << "/" << iters << " schedules\n";
    }
  }
}

TEST(Chaos, AdmissionStormShedsByPriorityAndSettles) {
  // A burst of submissions against a tiny service: live slots and the
  // queue overflow immediately, so the arbiter must shed or refuse the
  // excess by weight — and still leave a balanced pool afterwards.
  const int iters = chaos_iters(/*fallback=*/25) / 5 + 1;
  for (int iter = 0; iter < iters; ++iter) {
    const u64 seed = 0xBEEFull + static_cast<u64>(iter);
    Rng rng(seed);
    const PlatformTopology topo = chaos_topo(2);
    ServiceOptions opts;
    opts.arbiter.max_sessions = 2;
    opts.arbiter.admission_queue = 2;
    EncodeService svc(topo, opts);

    std::vector<int> ids;
    int refused = 0;
    for (int k = 0; k < 12; ++k) {
      SessionConfig sc;
      sc.cfg = chaos_virtual_config();
      sc.frames = 2 + static_cast<int>(rng.uniform_int(0, 3));
      sc.weight = 0.5 + rng.uniform01() * 3.0;
      const int id = svc.submit(sc);
      if (id < 0) {
        ++refused;
      } else {
        ids.push_back(id);
      }
    }
    std::vector<SessionResult> results = svc.drain();
    ASSERT_EQ(results.size(), ids.size());
    int terminal = 0;
    for (const SessionResult& r : results) {
      expect_attributed(r);
      ++terminal;
    }
    EXPECT_EQ(terminal + refused, 12) << "seed " << seed
                                      << ": every submission must resolve";
    EXPECT_EQ(svc.arbiter().free_devices(), topo.num_devices());
    EXPECT_EQ(svc.arbiter().live_sessions(), 0);
    EXPECT_EQ(svc.arbiter().queued_sessions(), 0);
  }
}

TEST(Chaos, RestartStormKeepsRealSessionsBitExact) {
  // Focused variant of the acceptance criterion: real sessions whose fault
  // schedules force grant re-requests and restarts mid-stream must still
  // complete bit-exactly. Total device loss is excluded (those sessions
  // legitimately fail); single-device storms must always be survivable.
  const int iters = chaos_iters(/*fallback=*/25) / 5 + 1;
  const EncoderConfig cfg = chaos_real_config();
  for (int iter = 0; iter < iters; ++iter) {
    const u64 seed = 0xFACEull + static_cast<u64>(iter);
    Rng rng(seed);
    const PlatformTopology topo = chaos_topo(2);
    const int frames = 4 + static_cast<int>(rng.uniform_int(0, 3));
    const auto sconf = chaos_scene(cfg, frames, seed);
    const std::vector<u8> want = solo_reference(cfg, sconf, frames);

    EncodeService svc(topo);
    SessionConfig sc;
    sc.cfg = cfg;
    sc.frames = frames;
    sc.source = std::make_shared<SyntheticSequence>(sconf);
    // Every granted device runs every frame, so the victim's faults fire
    // (the LP would run this shared host's steady state on one device).
    sc.fw.policy = SchedulingPolicy::kEquidistant;
    // One faulty accelerator, repeatedly: kernel, transfer, then loss.
    const int victim = 1 + static_cast<int>(rng.uniform_int(0, 1));
    sc.faults.add({victim, 1, 2, FaultKind::kKernelTransient});
    sc.faults.add({victim, 2, 3, FaultKind::kTransferTransient});
    sc.faults.add({victim, 3, kFaultForever, FaultKind::kDeviceLoss});
    const int id = svc.submit(sc);
    ASSERT_GE(id, 0);
    SessionResult r = svc.wait(id);
    ASSERT_EQ(r.state, SessionResult::State::kCompleted)
        << "seed " << seed << ": " << r.error;
    EXPECT_EQ(r.bitstream, want) << "seed " << seed;
    EXPECT_EQ(svc.arbiter().free_devices(), topo.num_devices());
  }
}

}  // namespace
}  // namespace feves
