// The two-slot frame pipeline: frame n+1's schedule is solved and its
// mirror buffers prestaged while frame n executes. Scheduling with slightly
// stale parameters only moves WHERE work runs, never WHAT is computed, so
// the output must be bit-identical with the pipeline on or off — including
// under fault injection — while the steady state reports overlap.
#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"

#include "platform/presets.hpp"
#include "video/metrics.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

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

struct EncodeRun {
  std::vector<u8> bits;
  obs::SchedTelemetry total;
};

EncodeRun run_real(const EncoderConfig& cfg, const PlatformTopology& topo,
                   const std::vector<Frame420>& frames, FrameworkOptions opts,
                   FaultSchedule faults = {}) {
  CollaborativeEncoder enc(cfg, topo, opts, std::move(faults));
  EncodeRun run;
  for (const Frame420& f : frames) {
    const FrameStats s = enc.encode_frame(f, &run.bits);
    run.total.pipeline_hits += s.telemetry.pipeline_hits;
    run.total.pipeline_misses += s.telemetry.pipeline_misses;
    run.total.lp_warm_solves += s.telemetry.lp_warm_solves;
    run.total.lp_skipped += s.telemetry.lp_skipped;
    run.total.lp_solves += s.telemetry.lp_solves;
    run.total.sched_critical_ms += s.telemetry.sched_critical_ms;
    run.total.sched_overlapped_ms += s.telemetry.sched_overlapped_ms;
  }
  return run;
}

TEST(FramePipeline, RealModeOnOffBitstreamsIdentical) {
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = test_topo(2);
  const auto frames = load_frames(cfg, 8);

  FrameworkOptions on;
  ASSERT_TRUE(on.enable_pipeline) << "pipeline must default on";
  // Host-thread timing on a 96x64 frame is unboundedly noisy on a loaded
  // CI box, so disable the drift gate to make slot consumption
  // deterministic here (bit-exactness never depends on it; the drift
  // gating itself is exercised by the deterministic virtual-mode tests).
  on.lb.convergence_epsilon = 1e9;
  // R* on an accelerator keeps mirror prestaging in the shadow (the LP
  // alone would run this shared host's frames on the CPU).
  on.force_rstar_device = 1;
  FrameworkOptions off;
  off.enable_pipeline = false;
  off.lb.enable_warm_start = false;
  off.force_rstar_device = 1;

  const EncodeRun with = run_real(cfg, topo, frames, on);
  const EncodeRun without = run_real(cfg, topo, frames, off);
  EXPECT_EQ(with.bits, without.bits);
  EXPECT_GT(with.total.pipeline_hits, 0)
      << "steady state should consume speculated schedules";
  EXPECT_GT(with.total.sched_overlapped_ms, 0.0);
  EXPECT_EQ(without.total.pipeline_hits, 0);
  EXPECT_DOUBLE_EQ(without.total.sched_overlapped_ms, 0.0);
}

TEST(FramePipeline, BitExactUnderFaultInjection) {
  // A device loss mid-stream invalidates the speculated slot (the active
  // mask changed): the pipeline must re-solve synchronously and keep the
  // stream identical to the unpipelined encoder under the same faults.
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = test_topo(2);
  const auto frames = load_frames(cfg, 8);

  FaultSchedule faults;
  faults.add({/*device=*/2, /*begin=*/3, kFaultForever,
              FaultKind::kDeviceLoss});

  // Every device runs every frame, so the lost accelerator's fault fires.
  FrameworkOptions on;
  on.policy = SchedulingPolicy::kEquidistant;
  FrameworkOptions off = on;
  off.enable_pipeline = false;
  off.lb.enable_warm_start = false;

  const EncodeRun with = run_real(cfg, topo, frames, on, faults);
  const EncodeRun without = run_real(cfg, topo, frames, off, faults);
  EXPECT_EQ(with.bits, without.bits);
  EXPECT_GT(with.total.pipeline_misses, 0)
      << "the quarantine transition must discard a speculated slot";
}

TEST(FramePipeline, VirtualModeOverlapAccounting) {
  const EncoderConfig cfg = []() {
    EncoderConfig c;
    c.search_range = 16;
    c.num_ref_frames = 1;
    return c;
  }();
  VirtualFramework fw(cfg, topology_by_name("SysNFF"), FrameworkOptions{});
  const auto stats = fw.encode(12);

  obs::SchedTelemetry total;
  for (const FrameStats& s : stats) {
    total.pipeline_hits += s.telemetry.pipeline_hits;
    total.pipeline_misses += s.telemetry.pipeline_misses;
    total.lp_warm_solves += s.telemetry.lp_warm_solves;
    total.lp_skipped += s.telemetry.lp_skipped;
    total.sched_critical_ms += s.telemetry.sched_critical_ms;
    total.sched_overlapped_ms += s.telemetry.sched_overlapped_ms;
    const double r = s.telemetry.pipeline_overlap_ratio();
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  // Virtual mode re-characterizes exactly, so the steady state converges:
  // slots get consumed and the LP is warm-started or skipped outright.
  EXPECT_GT(total.pipeline_hits, 0);
  EXPECT_GT(total.lp_warm_solves + total.lp_skipped, 0);
  EXPECT_GT(total.sched_overlapped_ms, 0.0);
}

TEST(FramePipeline, DisabledPipelineNeverOverlaps) {
  EncoderConfig cfg;
  cfg.search_range = 16;
  cfg.num_ref_frames = 1;
  FrameworkOptions opts;
  opts.enable_pipeline = false;
  VirtualFramework fw(cfg, topology_by_name("SysNFF"), opts);
  const auto stats = fw.encode(8);
  for (const FrameStats& s : stats) {
    EXPECT_EQ(s.telemetry.pipeline_hits, 0);
    EXPECT_DOUBLE_EQ(s.telemetry.sched_overlapped_ms, 0.0);
    EXPECT_DOUBLE_EQ(s.telemetry.pipeline_overlap_ratio(), 0.0);
  }
}

}  // namespace
}  // namespace feves
