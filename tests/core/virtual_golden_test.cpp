// Golden per-frame results of one virtual-mode run: SysNFF over 40
// inter-frames with a device loss, a transient kernel fault and a
// perturbation. Virtual mode is fully deterministic, so every scheduling
// decision, recovery count and modelled frame time is pinned exactly —
// a change to the Algorithm-1 attempt loop that alters virtual-mode
// behaviour (for example, resetting the Data Access state after a failed
// attempt, which only real mode does) fails here even when every property
// test still holds.
#include "core/framework.hpp"

#include "platform/presets.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace feves {
namespace {

struct GoldenFrame {
  std::vector<int> me, intp, sme, sigma;
  int rstar_device;
  int retries;
  int devices_quarantined;
  int devices_readmitted;
  int active_devices;
  double total_ms;
};

// Recorded from the run below; regenerate only for an intended behaviour
// change, and say which one.
const std::vector<GoldenFrame> kGolden = {
    {{23, 23, 22}, {23, 23, 22}, {23, 23, 22}, {0, 0, 46},
     1, 0, 0, 0, 3, 17.758696543746545},
    {{65, 3, 0}, {0, 32, 36}, {11, 25, 32}, {0, 0, 0},
     0, 0, 0, 0, 3, 21.607990977443606},
    {{68, 0, 0}, {4, 0, 64}, {19, 0, 49}, {0, 0, 4},
     0, 2, 1, 0, 2, 39.240956394921724},
    {{68, 0, 0}, {4, 0, 64}, {19, 0, 49}, {0, 0, 4},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 0, 64}, {19, 0, 49}, {0, 0, 4},
     0, 0, 0, 1, 2, 25.306359149020089},
    {{23, 23, 22}, {23, 23, 22}, {23, 23, 22}, {0, 45, 46},
     0, 0, 0, 0, 3, 27.848575550351288},
    {{55, 0, 13}, {0, 48, 20}, {11, 31, 26}, {0, 20, 41},
     0, 0, 0, 0, 3, 20.364499398496239},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 2, 1, 0, 2, 37.108346517441142},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 1, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 1, 1, 0, 2, 33.689330952298775},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 0, 2, 25.306359149020089},
    {{68, 0, 0}, {4, 64, 0}, {19, 49, 0}, {0, 4, 0},
     0, 0, 0, 1, 2, 25.306359149020089},
    {{23, 23, 22}, {23, 23, 22}, {23, 23, 22}, {0, 45, 46},
     0, 0, 0, 0, 3, 27.848575550351288},
    {{55, 0, 13}, {0, 48, 20}, {12, 29, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.357810546037221},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 29.366085714285717},
    {{57, 11, 0}, {0, 19, 49}, {15, 15, 38}, {0, 37, 19},
     0, 0, 0, 0, 3, 26.059742435597187},
    {{59, 0, 9}, {0, 35, 33}, {15, 16, 37}, {0, 33, 30},
     0, 0, 0, 0, 3, 22.151551964501415},
    {{59, 0, 9}, {0, 35, 33}, {15, 17, 36}, {0, 33, 31},
     0, 0, 0, 0, 3, 22.222528030075189},
    {{59, 0, 9}, {0, 35, 33}, {15, 17, 36}, {0, 33, 31},
     0, 0, 0, 0, 3, 22.151551964501415},
    {{55, 0, 13}, {0, 48, 20}, {12, 29, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.357810546037221},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
    {{55, 0, 13}, {0, 48, 20}, {11, 30, 27}, {0, 20, 40},
     0, 0, 0, 0, 3, 20.190279398496237},
};

TEST(VirtualGolden, SysNffFaultsAndPerturbationPerFrame) {
  EncoderConfig cfg;
  // A small search area keeps the accelerators' copy engines busy, so SF
  // rows deferred by a failed attempt's plan reach the retry's critical
  // path (frame 3) and the Data Access state after a failure shows.
  cfg.search_range = 4;
  cfg.num_ref_frames = 2;
  FaultSchedule faults;
  faults.add({/*device=*/1, /*begin=*/3, /*end=*/4,
              FaultKind::kKernelTransient});
  faults.add({/*device=*/2, /*begin=*/8, /*end=*/14, FaultKind::kDeviceLoss});
  PerturbationSchedule perturbations;
  perturbations.add({/*device=*/1, /*begin=*/30, /*end=*/34,
                     /*slowdown=*/2.5});
  VirtualFramework fw(cfg, make_sys_nff(), {}, perturbations, faults);
  const std::vector<FrameStats> stats = fw.encode(40);

  ASSERT_EQ(stats.size(), kGolden.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(stats[i].frame_number));
    const FrameStats& s = stats[i];
    const GoldenFrame& g = kGolden[i];
    EXPECT_EQ(s.dist.me, g.me);
    EXPECT_EQ(s.dist.intp, g.intp);
    EXPECT_EQ(s.dist.sme, g.sme);
    EXPECT_EQ(s.dist.sigma, g.sigma);
    EXPECT_EQ(s.dist.rstar_device, g.rstar_device);
    EXPECT_EQ(s.retries, g.retries);
    EXPECT_EQ(s.devices_quarantined, g.devices_quarantined);
    EXPECT_EQ(s.devices_readmitted, g.devices_readmitted);
    EXPECT_EQ(s.active_devices, g.active_devices);
    EXPECT_LE(std::abs(s.total_ms - g.total_ms), 1e-9 * g.total_ms)
        << s.total_ms << " vs " << g.total_ms;
  }
}

}  // namespace
}  // namespace feves
