#include "sched/perf_char.hpp"

#include <gtest/gtest.h>

namespace feves {
namespace {

TEST(PerfChar, FirstObservationSetsDirectly) {
  PerfCharacterization perf(2);
  perf.observe_compute(0, ComputeModule::kMe, 10, 20.0);
  EXPECT_DOUBLE_EQ(perf.params(0).k_me, 2.0);
}

TEST(PerfChar, EwmaBlendsSubsequentObservations) {
  // The moving average gives the newest observation weight 1 (Algorithm 1:
  // frame n's times parameterize frame n+1), so it replaces the old one.
  PerfCharacterization perf(1);
  perf.observe_compute(0, ComputeModule::kSme, 10, 10.0);  // 1.0 ms/row
  perf.observe_compute(0, ComputeModule::kSme, 10, 30.0);  // 3.0 ms/row
  EXPECT_DOUBLE_EQ(perf.params(0).k_sme, 3.0);
}

TEST(PerfChar, ZeroRowsKeepsOldEstimate) {
  PerfCharacterization perf(1);
  perf.observe_compute(0, ComputeModule::kInt, 5, 10.0);
  perf.observe_compute(0, ComputeModule::kInt, 0, 999.0);
  EXPECT_DOUBLE_EQ(perf.params(0).k_int, 2.0);
}

TEST(PerfChar, InitializedNeedsAllDevicesAllModules) {
  PerfCharacterization perf(2);
  EXPECT_FALSE(perf.initialized());
  for (int d = 0; d < 2; ++d) {
    perf.observe_compute(d, ComputeModule::kMe, 1, 1.0);
    perf.observe_compute(d, ComputeModule::kInt, 1, 1.0);
  }
  EXPECT_FALSE(perf.initialized());  // SME missing
  perf.observe_compute(0, ComputeModule::kSme, 1, 1.0);
  EXPECT_FALSE(perf.initialized());  // device 1 SME missing
  perf.observe_compute(1, ComputeModule::kSme, 1, 1.0);
  EXPECT_TRUE(perf.initialized());
}

TEST(PerfChar, TransferDirectionsIndependent) {
  PerfCharacterization perf(1);
  perf.observe_transfer(0, BufferKind::kSf, Direction::kHostToDevice, 10, 5.0);
  perf.observe_transfer(0, BufferKind::kSf, Direction::kDeviceToHost, 10, 8.0);
  EXPECT_DOUBLE_EQ(perf.params(0).k_xfer[2][0], 0.5);
  EXPECT_DOUBLE_EQ(perf.params(0).k_xfer[2][1], 0.8);
}

TEST(PerfChar, TracksDriftingDevice) {
  // The adaptation property behind Fig 7: a device that slows down must be
  // re-characterized within a few frames.
  PerfCharacterization perf(1);
  for (int f = 0; f < 5; ++f) perf.observe_compute(0, ComputeModule::kMe, 10, 10.0);
  EXPECT_NEAR(perf.params(0).k_me, 1.0, 1e-9);
  // Device suddenly 3x slower.
  perf.observe_compute(0, ComputeModule::kMe, 10, 30.0);
  perf.observe_compute(0, ComputeModule::kMe, 10, 30.0);
  perf.observe_compute(0, ComputeModule::kMe, 10, 30.0);
  EXPECT_GT(perf.params(0).k_me, 2.5);  // converged most of the way in 3
}

TEST(PerfChar, RejectsBadIndices) {
  PerfCharacterization perf(1);
  EXPECT_THROW(perf.observe_compute(1, ComputeModule::kMe, 1, 1.0), Error);
  EXPECT_THROW(perf.params(-1), Error);
  EXPECT_THROW(PerfCharacterization(0), Error);
}

}  // namespace
}  // namespace feves
