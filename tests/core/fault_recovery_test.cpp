// Fault tolerance end to end: device faults quarantine the offender, the LP
// re-balances over the survivors within the same frame, and — the anchor
// property — the real-mode reconstruction stays bit-for-bit identical to the
// single-device reference encoder no matter which devices fail when.
#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"

#include "codec/deblock.hpp"

#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

namespace feves {
namespace {

// ---- shared helpers (mirror collaborative_test.cpp) -----------------------

EncoderConfig small_config(int refs = 2) {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = refs;
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

// ---- Real mode: bit-exactness survives every fault kind -------------------
//
// On a shared host the LP runs the steady state on the CPU alone, so a fault
// on an accelerator would never fire. These tests are about accelerators
// failing mid-frame, so they pin the equidistant split: every device runs
// every frame.

FrameworkOptions all_devices_run() {
  FrameworkOptions opts;
  opts.policy = SchedulingPolicy::kEquidistant;
  return opts;
}

TEST(FaultRecoveryReal, PermanentDeviceLossStaysBitExact) {
  // A 3-device topology loses GPU#1 for good at frame 2. The frame must be
  // retried on the survivors and every reconstruction must still match the
  // reference encoder — including the failed probe around frame 5.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 8);
  FaultSchedule faults;
  faults.add({/*device=*/2, /*begin=*/2, kFaultForever,
              FaultKind::kDeviceLoss});

  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  CollaborativeEncoder enc(cfg, test_topo(2), all_devices_run(), faults);
  std::vector<u8> bits;
  std::vector<FrameStats> stats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    stats.push_back(enc.encode_frame(frames[f], &bits));
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_EQ(bits, ref_bits);

  // Frame 2 needed retries and ended with the device quarantined; later
  // clean frames run on the two survivors without retrying.
  EXPECT_GE(stats[2].retries, 1);
  EXPECT_EQ(stats[2].devices_quarantined, 1);
  EXPECT_EQ(stats[2].dist.me[2], 0);
  EXPECT_EQ(stats[2].dist.sme[2], 0);
  EXPECT_EQ(stats[3].retries, 0);
  EXPECT_EQ(stats[3].active_devices, 2);
  EXPECT_EQ(enc.health().state(2), DeviceHealth::kQuarantined);
  EXPECT_TRUE(enc.health().schedulable(0));
  EXPECT_TRUE(enc.health().schedulable(1));
}

TEST(FaultRecoveryReal, TransientTransferFaultRecoversAndReadmits) {
  // GPU#0's copy engine fails for frames [2, 4); after quarantine and a
  // clean probation the device is fully re-admitted and carries load again.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 10);
  FaultSchedule faults;
  faults.add({/*device=*/1, /*begin=*/2, /*end=*/4,
              FaultKind::kTransferTransient});

  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  CollaborativeEncoder enc(cfg, test_topo(2), all_devices_run(), faults);
  std::vector<u8> bits;
  std::vector<FrameStats> stats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    stats.push_back(enc.encode_frame(frames[f], &bits));
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_EQ(bits, ref_bits);

  EXPECT_GE(stats[2].retries, 1);  // hit, quarantined, re-balanced
  int readmitted = 0;
  for (const auto& s : stats) readmitted += s.devices_readmitted;
  EXPECT_GE(readmitted, 1);
  EXPECT_EQ(enc.health().state(1), DeviceHealth::kActive);
  // Once re-admitted the device gets rows again.
  EXPECT_GT(stats.back().dist.me[1] + stats.back().dist.intp[1] +
                stats.back().dist.sme[1],
            0);
  EXPECT_EQ(stats.back().active_devices, 3);
}

TEST(FaultRecoveryReal, HangIsFencedByWatchdogAndStaysBitExact) {
  // GPU#0 wedges on frame 2: its kernel sleeps past the watchdog, the op is
  // declared dead, dependents are cancelled and the frame re-encodes on the
  // survivors — still bit-exact.
  const auto cfg = small_config();
  const auto frames = load_frames(cfg, 5);
  FaultSchedule faults;
  faults.add({/*device=*/1, /*begin=*/2, /*end=*/3, FaultKind::kHang});

  FrameworkOptions opts = all_devices_run();
  // Generous deadline: every clean op on this tiny config finishes orders
  // of magnitude faster, even under sanitizers.
  opts.watchdog_ms = 2000.0;
  opts.health.failure_threshold = 1;  // one timed-out attempt is enough

  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  CollaborativeEncoder enc(cfg, test_topo(2), opts, faults);
  std::vector<u8> bits;
  std::vector<FrameStats> stats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    stats.push_back(enc.encode_frame(frames[f], &bits));
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_EQ(bits, ref_bits);
  EXPECT_EQ(stats[2].retries, 1);
  EXPECT_EQ(stats[2].devices_quarantined, 1);
}

TEST(FaultRecoveryReal, RstarFailureAfterRowCodingStaysBitExact) {
  // R* entropy codes each MB row into the job's row writers before its
  // deblocking tail. Here the first wavefront of frame 2 throws after every
  // row of that attempt was coded; the retry codes them again. The stream
  // must equal the reference encoder's byte for byte: no row writer of the
  // failed attempt may leak into it.
  EncoderConfig cfg = small_config();
  cfg.width = 352;
  cfg.height = 288;
  const auto frames = load_frames(cfg, 4);
  std::vector<u8> ref_bits;
  const auto ref_recons = reference_encode(cfg, frames, &ref_bits);

  std::atomic<bool> armed{false};
  detail::WavefrontSeam seam;
  seam.before_mb = [&](int, int) {
    if (armed.exchange(false)) throw std::runtime_error("injected DBL failure");
  };
  struct SeamGuard {
    const detail::WavefrontSeam* previous;
    ~SeamGuard() { detail::set_wavefront_seam(previous); }
  } guard{detail::set_wavefront_seam(&seam)};

  CollaborativeEncoder enc(cfg, test_topo(2), all_devices_run());
  std::vector<u8> bits;
  std::vector<FrameStats> stats;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    armed.store(f == 2);
    stats.push_back(enc.encode_frame(frames[f], &bits));
    ASSERT_TRUE(frames_bit_exact(enc.last_recon(), ref_recons[f]))
        << "frame " << f;
  }
  EXPECT_FALSE(armed.load()) << "frame 2's wavefront never ran";
  EXPECT_GE(stats[2].retries, 1);
  EXPECT_EQ(bits, ref_bits);
}

// ---- Virtual mode: graceful degradation and re-admission ------------------

EncoderConfig hd_config(int refs = 1) {
  EncoderConfig cfg;
  cfg.search_range = 16;
  cfg.num_ref_frames = refs;
  return cfg;
}

TEST(FaultRecoveryVirtual, DeviceLossRebalancesWithinOneFrame) {
  FaultSchedule faults;
  faults.add({/*device=*/2, /*begin=*/12, kFaultForever,
              FaultKind::kDeviceLoss});
  VirtualFramework fw(hd_config(), make_sys_nff(), {}, {}, faults);
  const auto stats = fw.encode(20);

  // Frame 12 (index 11): failed attempts, quarantine, then a clean attempt
  // whose distribution excludes the lost device entirely.
  EXPECT_GE(stats[11].retries, 1);
  EXPECT_EQ(stats[11].devices_quarantined, 1);
  EXPECT_EQ(stats[11].dist.me[2], 0);
  EXPECT_EQ(stats[11].dist.intp[2], 0);
  EXPECT_EQ(stats[11].dist.sme[2], 0);
  EXPECT_NE(stats[11].dist.rstar_device, 2);
  // The very next frame is clean: the LP has already converged on the
  // surviving pair.
  EXPECT_EQ(stats[12].retries, 0);
  EXPECT_EQ(stats[12].active_devices, 2);
  // The device cycles quarantine -> failed probe -> longer quarantine; it
  // must never make it back to full health while the loss persists.
  EXPECT_NE(fw.health().state(2), DeviceHealth::kActive);
}

TEST(FaultRecoveryVirtual, SteadyStateAfterLossMatchesReducedTopology) {
  // Degradation quality bar: after losing one of SysNFF's two GPUs, the
  // steady-state throughput (probe frames included, thanks to the backoff)
  // must come within 10% of a from-scratch run on the reduced topology.
  FaultSchedule faults;
  faults.add({/*device=*/2, /*begin=*/12, kFaultForever,
              FaultKind::kDeviceLoss});
  VirtualFramework faulted(hd_config(), make_sys_nff(), {}, {}, faults);
  const auto stats = faulted.encode(60);
  double after_ms = 0.0;
  int count = 0;
  for (int i = 39; i < 60; ++i) {
    after_ms += stats[i].total_ms;
    ++count;
  }
  const double faulted_fps = 1000.0 / (after_ms / count);

  VirtualFramework reduced(hd_config(), make_sys_nf());
  const double reduced_fps = reduced.steady_state_fps(30, 8);

  EXPECT_GT(faulted_fps, reduced_fps * 0.90);
  EXPECT_LT(faulted_fps, reduced_fps * 1.10);
}

TEST(FaultRecoveryVirtual, RecoveredDeviceIsReadmittedAndRegainsLoad) {
  // The GPU disappears for frames [12, 16) and then comes back. After the
  // quarantine window (lengthened once by the failed probe at re-admission)
  // the device must return to probation, re-characterize via an equidistant
  // frame, and end up carrying LP load again at full throughput.
  FaultSchedule faults;
  faults.add({/*device=*/2, /*begin=*/12, /*end=*/16, FaultKind::kDeviceLoss});
  VirtualFramework fw(hd_config(), make_sys_nff(), {}, {}, faults);
  const auto stats = fw.encode(40);

  EXPECT_GE(stats[11].retries, 1);  // the hit
  int first_back = -1;
  for (int i = 16; i < 40; ++i) {
    if (stats[i].dist.me[2] > 0 && stats[i].retries == 0) {
      first_back = i;
      break;
    }
  }
  ASSERT_GE(first_back, 0) << "device 2 never regained load";
  EXPECT_EQ(fw.health().state(2), DeviceHealth::kActive);
  EXPECT_EQ(stats[39].active_devices, 3);
  EXPECT_GT(stats[39].dist.me[2], 0);
  int readmitted = 0;
  for (const auto& s : stats) readmitted += s.devices_readmitted;
  EXPECT_GE(readmitted, 1);
  // Back at full-topology speed: the last frames match the pre-fault
  // steady state closely.
  EXPECT_NEAR(stats[39].total_ms, stats[10].total_ms,
              0.10 * stats[10].total_ms);
}

TEST(FaultRecoveryVirtual, HangConsumesWatchdogTimeThenDegrades) {
  FaultSchedule faults;
  faults.add({/*device=*/1, /*begin=*/12, /*end=*/13, FaultKind::kHang});
  FrameworkOptions opts;
  opts.watchdog_ms = 100.0;  // far above any simulated op duration
  VirtualFramework fw(hd_config(), make_sys_nff(), opts, {}, faults);
  const auto stats = fw.encode(14);
  // Two hung attempts (failure threshold 2) each burn a full watchdog
  // window before the survivors take over.
  EXPECT_EQ(stats[11].retries, 2);
  EXPECT_EQ(stats[11].devices_quarantined, 1);
  EXPECT_GT(stats[11].total_ms, 2 * opts.watchdog_ms);
  EXPECT_EQ(stats[12].retries, 0);
}

TEST(FaultRecoveryVirtual, LosingTheCpuStillEncodes) {
  // Even the host can drop out of the compute pool: R* moves to an
  // accelerator, the RF holder resets, and the GPUs carry the frame.
  FaultSchedule faults;
  faults.add({/*device=*/0, /*begin=*/12, kFaultForever,
              FaultKind::kDeviceLoss});
  VirtualFramework fw(hd_config(), make_sys_nff(), {}, {}, faults);
  const auto stats = fw.encode(20);
  EXPECT_GE(stats[11].retries, 1);
  EXPECT_EQ(stats[11].dist.me[0], 0);
  EXPECT_NE(stats[11].dist.rstar_device, 0);
  EXPECT_EQ(stats[12].retries, 0);
  EXPECT_EQ(stats[12].active_devices, 2);
}

TEST(FaultRecoveryVirtual, AllDevicesLostIsALoudFailure) {
  FaultSchedule faults;
  for (int d = 0; d < 3; ++d) {
    faults.add({d, /*begin=*/5, kFaultForever, FaultKind::kDeviceLoss});
  }
  VirtualFramework fw(hd_config(), make_sys_nff(), {}, {}, faults);
  fw.encode(4);  // fine until the fault window opens
  EXPECT_THROW(fw.encode_frame(), Error);
}

}  // namespace
}  // namespace feves
