// Device-count selection through the Algorithm-1 loop: the balancer picks
// how many devices run a frame, and the devices it leaves out sit the frame
// out entirely — no transfer plan, no ops, no mirror staging. Real mode
// prices its shared host, so on a CPU + accelerators topology it settles on
// one device; when that device is lost the frame moves to one accelerator
// whose stale mirror is restaged, and the output stays bit-exact.
#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"

#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <set>

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

EncoderConfig cif_config() {
  EncoderConfig cfg;
  cfg.width = 352;
  cfg.height = 288;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  return cfg;
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

std::vector<Frame420> load_frames(const EncoderConfig& cfg, int count) {
  SyntheticConfig sc;
  sc.width = cfg.width;
  sc.height = cfg.height;
  sc.frames = count;
  sc.num_objects = 3;
  sc.max_object_speed = 3.0;
  sc.seed = 99;
  SyntheticSequence seq(sc);
  std::vector<Frame420> frames;
  for (int f = 0; f < count; ++f) {
    frames.emplace_back(cfg.width, cfg.height);
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

/// Devices that ran `d`: rows in any module, or R*.
std::vector<bool> ran(const Distribution& d) {
  std::vector<bool> out(static_cast<std::size_t>(d.num_devices()), false);
  for (int i = 0; i < d.num_devices(); ++i) {
    out[i] = d.me[i] + d.intp[i] + d.sme[i] > 0 || i == d.rstar_device;
  }
  return out;
}

TEST(DeviceSelectionReal, SteadyRunSetAndIdleDevicesCostNothing) {
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = test_topo(3);
  const auto frames = load_frames(cfg, 8);

  obs::TraceSession session;
  FrameworkOptions opts;
  opts.trace = &session;
  CollaborativeEncoder enc(cfg, topo, opts);
  std::vector<FrameStats> stats;
  std::vector<std::vector<bool>> staged;
  for (const Frame420& f : frames) {
    stats.push_back(enc.encode_frame(f, nullptr));
    std::vector<bool> s(static_cast<std::size_t>(topo.num_devices()));
    for (int i = 0; i < topo.num_devices(); ++i) s[i] = enc.mirror_staged(i);
    staged.push_back(std::move(s));
  }

  // Frame 1 is the equidistant initialization; from frame 2 the balancer
  // has measurements and its choice of devices holds frame after frame.
  const std::vector<bool> run = ran(stats[2].dist);
  int n_run = 0;
  for (bool r : run) n_run += r ? 1 : 0;
  EXPECT_LT(n_run, topo.num_devices())
      << "on a shared host extra devices add work, not compute";
  for (std::size_t f = 2; f < stats.size(); ++f) {
    EXPECT_EQ(ran(stats[f].dist), run) << "frame " << f;
    EXPECT_EQ(stats[f].active_devices, n_run) << "frame " << f;
    EXPECT_EQ(stats[f].retries, 0) << "frame " << f;
    for (int i = 1; i < topo.num_devices(); ++i) {
      // An accelerator's mirror is staged exactly when it runs.
      EXPECT_EQ(staged[f][i], static_cast<bool>(run[i]))
          << "frame " << f << " device " << i;
    }
  }
  // Devices outside the run set get no ops at all: no RF_in, no SF
  // completion, nothing.
  std::set<std::pair<int, int>> ops;  // (frame, device)
  for (const obs::TraceEvent& e : session.sink.events()) {
    if (e.device >= 0) ops.insert({e.frame, e.device});
  }
  for (int f = 2; f < static_cast<int>(stats.size()); ++f) {
    for (int i = 0; i < topo.num_devices(); ++i) {
      EXPECT_EQ(ops.count({f, i}) > 0, static_cast<bool>(run[i]))
          << "frame " << f << " device " << i;
    }
  }
}

TEST(DeviceSelectionReal, LosingTheRunningCpuMovesTheFrameToOneAccelerator) {
  // The CPU carries the steady state alone; from frame 4 it is lost for
  // good. Once it is quarantined the frame runs on one accelerator, which
  // sat frames 2-3 out: its mirror is stale and must be restaged whole.
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = test_topo(3);
  const auto frames = load_frames(cfg, 8);
  FaultSchedule faults;
  faults.add({/*device=*/0, /*begin=*/4, kFaultForever,
              FaultKind::kDeviceLoss});

  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  CollaborativeEncoder enc(cfg, topo, {}, SimdTier::kAuto, faults);
  std::vector<u8> bits;
  std::vector<FrameStats> stats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    stats.push_back(enc.encode_frame(frames[f], &bits));
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_EQ(bits, ref_bits);

  // Before the loss the CPU hosts everything: the accelerators sit out.
  for (int f = 2; f < 4; ++f) {
    EXPECT_EQ(stats[f].dist.rstar_device, 0) << "frame " << f;
    EXPECT_EQ(stats[f].active_devices, 1) << "frame " << f;
  }
  EXPECT_GE(stats[4].retries, 1);
  EXPECT_EQ(stats[4].devices_quarantined, 1);
  EXPECT_EQ(enc.health().state(0), DeviceHealth::kQuarantined);
  for (std::size_t f = 4; f < stats.size(); ++f) {
    const Distribution& d = stats[f].dist;
    EXPECT_NE(d.rstar_device, 0) << "frame " << f;
    EXPECT_EQ(stats[f].active_devices, 1) << "frame " << f;
    EXPECT_EQ(d.me[d.rstar_device], cfg.num_mb_rows()) << "frame " << f;
  }
  EXPECT_TRUE(enc.mirror_staged(stats.back().dist.rstar_device));
}

TEST(DeviceSelection, LpRunsWithMoreDevicesThanRows) {
  // 24 devices, 18 MB rows: the equidistant initialization leaves 6
  // devices without rows, so they are never measured. The LP must still
  // take over after the initialization frame, over the measured devices.
  const EncoderConfig cfg = cif_config();
  const PlatformTopology topo = make_pool_big();
  ASSERT_GT(topo.num_devices(), cfg.num_mb_rows());

  {
    SCOPED_TRACE("virtual");
    VirtualFramework fw(cfg, topo);
    const std::vector<FrameStats> stats = fw.encode(4);
    EXPECT_EQ(stats[0].telemetry.lp_solves + stats[0].telemetry.lp_skipped, 0);
    for (std::size_t f = 1; f < stats.size(); ++f) {
      const obs::SchedTelemetry& t = stats[f].telemetry;
      EXPECT_GT(t.lp_solves + t.lp_skipped, 0) << "frame " << f;
    }
  }
  {
    SCOPED_TRACE("real");
    const auto frames = load_frames(cfg, 4);
    CollaborativeEncoder enc(cfg, topo);
    std::vector<FrameStats> stats;
    for (const Frame420& f : frames) stats.push_back(enc.encode_frame(f, nullptr));
    // Frame 0 is the intra frame, frame 1 the initialization.
    EXPECT_EQ(stats[1].active_devices, cfg.num_mb_rows());
    for (std::size_t f = 2; f < stats.size(); ++f) {
      const obs::SchedTelemetry& t = stats[f].telemetry;
      EXPECT_GT(t.lp_solves + t.lp_skipped, 0) << "frame " << f;
      EXPECT_EQ(stats[f].active_devices, 1) << "frame " << f;
    }
  }
}

}  // namespace
}  // namespace feves
