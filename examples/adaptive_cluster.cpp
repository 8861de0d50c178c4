// Adaptive-cluster demo: the virtual framework driving a 1080p encode on a
// busy, non-dedicated workstation. Random background jobs repeatedly steal
// throughput from individual devices; the demo prints an ASCII strip chart
// of per-frame encode time together with the ME row split, making the
// paper's self-adaptation (Fig 7) visible at a glance: every disturbance
// bends the split away from the afflicted device within a frame.
//
//   ./adaptive_cluster [frames] [seed]
#include "cli_main.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "platform/presets.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int run(int argc, char** argv) {
  using namespace feves;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 60;
  const u64 seed = argc > 2 ? static_cast<u64>(std::atoll(argv[2])) : 7;

  EncoderConfig cfg;
  cfg.width = 1920;
  cfg.height = 1088;
  cfg.search_range = 16;
  cfg.num_ref_frames = 2;

  const PlatformTopology topo = make_sys_nff();

  // Random interference: 1-4 frame bursts of 1.5-3x slowdown on a random
  // device, covering ~20% of the timeline.
  PerturbationSchedule sched;
  Rng rng(seed);
  for (int f = 8; f < frames;) {
    if (rng.uniform01() < 0.12) {
      const int dev = static_cast<int>(rng.uniform_int(0, 2));
      const int len = static_cast<int>(rng.uniform_int(1, 4));
      const double slow = rng.uniform_real(1.5, 3.0);
      sched.add({dev, f, f + len, slow});
      std::printf("background job: device %d, frames %d-%d, %.1fx slower\n",
                  dev, f, f + len - 1, slow);
      f += len + 1;
    } else {
      ++f;
    }
  }

  VirtualFramework fw(cfg, topo, {}, sched);
  std::printf("\n%-6s %-46s %-8s %-18s\n", "frame", "encode time", "[ms]",
              "ME rows (N,F1,F2)");
  for (int f = 1; f <= frames; ++f) {
    const FrameStats s = fw.encode_frame();
    const int bar = static_cast<int>(s.total_ms);
    std::string strip(static_cast<std::size_t>(std::min(bar, 44)), '#');
    std::printf("%-6d %-46s %-8.1f [%d %d %d]\n", f, strip.c_str(),
                s.total_ms, s.dist.me[0], s.dist.me[1], s.dist.me[2]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv, "[frames] [seed]", run);
}
