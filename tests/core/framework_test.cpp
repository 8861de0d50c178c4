#include "core/framework.hpp"

#include "core/virtual_backend.hpp"
#include "platform/perf_model.hpp"
#include "platform/presets.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace feves {
namespace {

EncoderConfig hd_config(int search_range = 16, int refs = 1) {
  EncoderConfig cfg;
  cfg.search_range = search_range;
  cfg.num_ref_frames = refs;
  return cfg;
}

TEST(VirtualFramework, FirstFrameIsEquidistant) {
  VirtualFramework fw(hd_config(), make_sys_hk());
  const auto s = fw.encode_frame();
  EXPECT_EQ(s.frame_number, 1);
  EXPECT_EQ(s.dist.me, (std::vector<int>{34, 34}));
  EXPECT_EQ(s.dist.me, s.dist.sme);
}

TEST(VirtualFramework, BalancedFramesBeatEquidistant) {
  // The headline adaptive property (Fig 7): frame 2 onward must be faster
  // than the equidistant frame 1 on a heterogeneous system.
  for (const char* name : {"SysNF", "SysNFF", "SysHK"}) {
    VirtualFramework fw(hd_config(), topology_by_name(name));
    const auto stats = fw.encode(6);
    EXPECT_LT(stats[2].total_ms, stats[0].total_ms * 0.95) << name;
    // And the balanced steady state is stable.
    EXPECT_NEAR(stats[4].total_ms, stats[5].total_ms,
                0.05 * stats[4].total_ms)
        << name;
  }
}

TEST(VirtualFramework, SingleDeviceMatchesCostModelSum) {
  // For one device there is nothing to balance: τtot equals the serial sum
  // of the module costs plus the CF upload.
  const auto cfg = hd_config();
  VirtualFramework fw(cfg, topology_by_name("GPU_F"));
  const auto s = fw.encode(3).back();
  const DeviceSpec dev = preset_gpu_fermi();
  const double expect = me_rows_ms(dev, cfg, 68, 1) +
                        int_rows_ms(dev, cfg, 68) +
                        sme_rows_ms(dev, cfg, 68, 1) + rstar_ms(dev, cfg) +
                        dev.link.h2d_ms(68 * cf_row_bytes(cfg));
  EXPECT_NEAR(s.total_ms, expect, 0.02 * expect);
}

TEST(VirtualFramework, RealTimeReachabilityMatchesPaper) {
  // Fig 6(a) at 32x32 SA / 1 RF: both GPUs and all three CPU+GPU systems
  // reach >= 25 fps; neither CPU does.
  auto fps_of = [](const char* name) {
    VirtualFramework fw(hd_config(), topology_by_name(name));
    return fw.steady_state_fps(16, 6);
  };
  EXPECT_LT(fps_of("CPU_N"), 25.0);
  EXPECT_LT(fps_of("CPU_H"), 25.0);
  EXPECT_GT(fps_of("GPU_F"), 25.0);
  EXPECT_GT(fps_of("GPU_K"), 25.0);
  EXPECT_GT(fps_of("SysNF"), 25.0);
  EXPECT_GT(fps_of("SysNFF"), 25.0);
  EXPECT_GT(fps_of("SysHK"), 25.0);
}

TEST(VirtualFramework, CombinedSystemsOutperformTheirParts) {
  const auto cfg = hd_config();
  auto fps_of = [&](const char* name) {
    VirtualFramework fw(cfg, topology_by_name(name));
    return fw.steady_state_fps(16, 6);
  };
  const double gpu_f = fps_of("GPU_F");
  const double gpu_k = fps_of("GPU_K");
  const double cpu_n = fps_of("CPU_N");
  EXPECT_GT(fps_of("SysNF"), gpu_f * 1.05);
  EXPECT_GT(fps_of("SysNFF"), gpu_f * 1.5);
  EXPECT_GT(fps_of("SysNFF"), cpu_n * 4.0);
  EXPECT_GT(fps_of("SysHK"), gpu_k * 1.05);
}

TEST(VirtualFramework, SaGrowthQuadruplesMeLoad) {
  // Fig 6(a)'s x-axis behaviour: doubling the SA edge roughly quadruples
  // ME time, so fps falls steeply between successive SA sizes.
  auto fps_at = [](int range) {
    VirtualFramework fw(hd_config(range), topology_by_name("CPU_N"));
    return fw.steady_state_fps(8, 4);
  };
  const double f32 = fps_at(16);
  const double f64 = fps_at(32);
  EXPECT_GT(f32 / f64, 2.5);
  EXPECT_LT(f32 / f64, 4.5);
}

TEST(VirtualFramework, RefRampUpSlopesThenStabilizes) {
  // Fig 7(b): with R reference frames, the window fills over the first R
  // inter-frames — encode time rises, then flattens.
  VirtualFramework fw(hd_config(16, 5), make_sys_hk());
  const auto stats = fw.encode(12);
  EXPECT_EQ(stats[0].active_refs, 1);
  EXPECT_EQ(stats[3].active_refs, 4);
  EXPECT_EQ(stats[5].active_refs, 5);
  // More references => more ME/SME work => slower frames during ramp-up.
  EXPECT_GT(stats[5].total_ms, stats[1].total_ms);
  // Flat after the window fills and balancing settles.
  EXPECT_NEAR(stats[10].total_ms, stats[11].total_ms,
              0.05 * stats[10].total_ms);
}

TEST(VirtualFramework, RecoversFromPerturbationWithinFrames) {
  // Fig 7's self-adaptation: a sudden slowdown on the GPU must raise the
  // frame time, and the redistribution must claw most of it back within a
  // frame or two.
  PerturbationSchedule sched;
  sched.add({/*device=*/1, /*begin=*/20, /*end=*/26, /*slowdown=*/2.0});
  VirtualFramework fw(hd_config(), make_sys_hk(), {}, sched);
  const auto stats = fw.encode(40);

  const double baseline = stats[15].total_ms;
  EXPECT_GT(stats[19].total_ms, baseline * 1.4);  // hit on first slow frame
  // Re-balanced while still perturbed: better than the unbalanced hit.
  EXPECT_LT(stats[23].total_ms, stats[19].total_ms);
  // Full recovery after the perturbation ends (frame index 26+).
  EXPECT_NEAR(stats[30].total_ms, baseline, 0.08 * baseline);
}

TEST(VirtualFramework, PoliciesRankAsExpected) {
  // Adaptive LP <= proportional <= equidistant in steady-state frame time.
  auto fps_with = [](SchedulingPolicy policy) {
    FrameworkOptions opts;
    opts.policy = policy;
    VirtualFramework fw(hd_config(), make_sys_hk(), opts);
    return fw.steady_state_fps(16, 6);
  };
  const double lp = fps_with(SchedulingPolicy::kAdaptiveLp);
  const double prop = fps_with(SchedulingPolicy::kProportional);
  const double equi = fps_with(SchedulingPolicy::kEquidistant);
  EXPECT_GE(lp, prop * 0.98);  // LP at least matches proportional
  EXPECT_GT(prop, equi);       // both beat the static split
  EXPECT_GT(lp, equi * 1.3);
}

TEST(VirtualFramework, SchedulingOverheadUnderTwoMilliseconds) {
  // The paper's Sec. IV claim: "scheduling overheads take, on average,
  // less than 2 ms per inter-frame".
  VirtualFramework fw(hd_config(16, 4), make_sys_nff());
  const auto stats = fw.encode(20);
  double total = 0.0;
  for (const auto& s : stats) total += s.scheduling_ms;
  EXPECT_LT(total / stats.size(), 2.0);
}

TEST(VirtualFramework, DualCopyEngineNoSlowerThanSingle) {
  auto topo_single = make_sys_hk();
  auto topo_dual = make_sys_hk();
  topo_dual.devices[1] = preset_gpu_kepler_dual();
  VirtualFramework a(hd_config(16, 4), topo_single);
  VirtualFramework b(hd_config(16, 4), topo_dual);
  EXPECT_GE(b.steady_state_fps(14, 6), a.steady_state_fps(14, 6) * 0.999);
}

// Regression (measurement poisoning): ops that did not complete cleanly
// must not fold into the characterization. A hung device's kernels report
// watchdog-truncated spans and its dependents report zero-length spans;
// folding either corrupts the K parameters every later LP consumes.
TEST(AttributeFrameTimes, NonOkOpsDoNotPoisonTheCharacterization) {
  const EncoderConfig cfg = hd_config();
  const PlatformTopology topo = make_sys_nff();  // CPU + 2 accelerators
  const int n = topo.num_devices();
  LoadBalancer balancer(cfg, topo);
  DataAccessManagement dam(cfg, topo, /*enable_reuse=*/true);
  const Distribution dist = balancer.equidistant(/*rstar_device=*/0);
  const auto plans = dam.plan_frame(dist, /*rf_holder=*/-1, /*refs=*/1);
  VirtualBackend backend(cfg, topo, /*active_refs=*/1,
                         std::vector<double>(static_cast<std::size_t>(n), 1.0));
  FrameOpIds ids;
  const OpGraph graph = build_frame_graph(topo, dist, plans, backend, &ids);

  // A clean execution seeds the characterization.
  PerfCharacterization perf(n);
  const ExecutionResult clean = execute_virtual(graph, topo, ExecuteOptions{});
  ASSERT_TRUE(clean.ok());
  attribute_frame_times(cfg, topo, dist, ids, clean, &perf);
  const DeviceParams before = perf.params(2);
  ASSERT_TRUE(before.compute_known());

  // Same graph, device 2 hung: its kernels time out at the watchdog
  // deadline, everything downstream of them is cancelled.
  FaultSchedule faults;
  faults.add({/*device=*/2, /*frame_begin=*/0, kFaultForever,
              FaultKind::kHang});
  ExecuteOptions fault_opts;
  fault_opts.faults = faults.plan(/*frame=*/1, n);
  fault_opts.watchdog_ms = 1.0;
  const ExecutionResult faulted = execute_virtual(graph, topo, fault_opts);
  ASSERT_FALSE(faulted.ok());

  attribute_frame_times(cfg, topo, dist, ids, faulted, &perf);
  const DeviceParams& after = perf.params(2);
  EXPECT_DOUBLE_EQ(after.k_me, before.k_me);
  EXPECT_DOUBLE_EQ(after.k_int, before.k_int);
  EXPECT_DOUBLE_EQ(after.k_sme, before.k_sme);
  EXPECT_DOUBLE_EQ(after.t_rstar_ms, before.t_rstar_ms);
  for (int b = 0; b < 4; ++b) {
    for (int d = 0; d < 2; ++d) {
      EXPECT_DOUBLE_EQ(after.k_xfer[b][d], before.k_xfer[b][d])
          << "buffer " << b << " dir " << d;
    }
  }
}

}  // namespace
}  // namespace feves
