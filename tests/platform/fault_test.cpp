// Fault-injection machinery: PerturbationSchedule edge cases, FaultSchedule
// determinism, and the executors' failure semantics — error capture,
// dependent cancellation, watchdog timeouts, and virtual/real status parity.
#include "platform/fault.hpp"

#include "platform/op_graph.hpp"
#include "platform/perturbation.hpp"
#include "platform/presets.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace feves {
namespace {

PlatformTopology two_device_topo() {
  PlatformTopology t = make_sys_nf();
  t.devices[1].copy_engines = CopyEngines::kSingle;
  return t;
}

Op make_op(int device, OpResource res, double ms, std::vector<int> deps = {}) {
  Op op;
  op.device = device;
  op.resource = res;
  op.virtual_ms = ms;
  op.deps = std::move(deps);
  return op;
}

// ---- PerturbationSchedule edge cases --------------------------------------

TEST(PerturbationSchedule, OverlappingWindowsMultiply) {
  PerturbationSchedule s;
  s.add({/*device=*/1, /*begin=*/5, /*end=*/10, /*slowdown=*/2.0});
  s.add({/*device=*/1, /*begin=*/8, /*end=*/12, /*slowdown=*/3.0});
  EXPECT_DOUBLE_EQ(s.factor(1, 4), 1.0);   // before both
  EXPECT_DOUBLE_EQ(s.factor(1, 5), 2.0);   // first only
  EXPECT_DOUBLE_EQ(s.factor(1, 8), 6.0);   // overlap: factors compose
  EXPECT_DOUBLE_EQ(s.factor(1, 9), 6.0);
  EXPECT_DOUBLE_EQ(s.factor(1, 10), 3.0);  // second only (end exclusive)
  EXPECT_DOUBLE_EQ(s.factor(1, 12), 1.0);  // after both
  EXPECT_DOUBLE_EQ(s.factor(0, 8), 1.0);   // other devices untouched
}

TEST(PerturbationSchedule, EmptyRangeIsInert) {
  PerturbationSchedule s;
  s.add({/*device=*/0, /*begin=*/7, /*end=*/7, /*slowdown=*/5.0});
  for (int f = 5; f < 10; ++f) EXPECT_DOUBLE_EQ(s.factor(0, f), 1.0);
  EXPECT_FALSE(s.empty());  // the event exists; it just never matches
}

TEST(PerturbationSchedule, RejectsInvalidEvents) {
  PerturbationSchedule s;
  EXPECT_THROW(s.add({0, 5, 4, 2.0}), Error);   // begin > end
  EXPECT_THROW(s.add({0, 0, 1, 0.0}), Error);   // non-positive slowdown
}

// ---- FaultSchedule --------------------------------------------------------

TEST(FaultSchedule, PlanIsDeterministic) {
  FaultSchedule s;
  s.add({/*device=*/1, /*begin=*/3, /*end=*/5, FaultKind::kKernelTransient});
  s.add({/*device=*/2, /*begin=*/4, /*end=*/kFaultForever,
         FaultKind::kDeviceLoss});
  const FaultPlan a = s.plan(4, 3);
  const FaultPlan b = s.plan(4, 3);
  ASSERT_EQ(a.dev.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.dev[i].kernel_error, b.dev[i].kernel_error) << i;
    EXPECT_EQ(a.dev[i].transfer_error, b.dev[i].transfer_error) << i;
    EXPECT_EQ(a.dev[i].lost, b.dev[i].lost) << i;
    EXPECT_EQ(a.dev[i].hang, b.dev[i].hang) << i;
  }
  EXPECT_TRUE(a.dev[1].kernel_error);
  EXPECT_TRUE(a.dev[2].lost);
  EXPECT_FALSE(a.dev[0].kernel_error || a.dev[0].lost);
}

TEST(FaultSchedule, WindowsAreHalfOpenAndForeverPersists) {
  FaultSchedule s;
  s.add({1, 3, 5, FaultKind::kTransferTransient});
  s.add({0, 10, kFaultForever, FaultKind::kDeviceLoss});
  EXPECT_FALSE(s.plan(2, 2).any());
  EXPECT_TRUE(s.plan(3, 2).dev[1].transfer_error);
  EXPECT_TRUE(s.plan(4, 2).dev[1].transfer_error);
  EXPECT_FALSE(s.plan(5, 2).any());  // end exclusive
  EXPECT_TRUE(s.plan(10, 2).dev[0].lost);
  EXPECT_TRUE(s.plan(1000000, 2).dev[0].lost);
}

TEST(FaultSchedule, EmptyScheduleYieldsFaultFreePlan) {
  const FaultPlan p = FaultSchedule{}.plan(7, 4);
  EXPECT_TRUE(p.dev.empty());
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p.action(2, OpResource::kCompute), FaultPlan::Action::kNone);
}

TEST(FaultSchedule, ActionMapping) {
  FaultSchedule s;
  s.add({0, 0, 1, FaultKind::kKernelTransient});
  s.add({1, 0, 1, FaultKind::kTransferTransient});
  s.add({2, 0, 1, FaultKind::kDeviceLoss});
  s.add({3, 0, 1, FaultKind::kHang});
  const FaultPlan p = s.plan(0, 4);
  // Kernel faults hit only compute; transfer faults only the copy engines.
  EXPECT_EQ(p.action(0, OpResource::kCompute), FaultPlan::Action::kError);
  EXPECT_EQ(p.action(0, OpResource::kCopyH2D), FaultPlan::Action::kNone);
  EXPECT_EQ(p.action(1, OpResource::kCompute), FaultPlan::Action::kNone);
  EXPECT_EQ(p.action(1, OpResource::kCopyH2D), FaultPlan::Action::kError);
  EXPECT_EQ(p.action(1, OpResource::kCopyD2H), FaultPlan::Action::kError);
  // Device loss takes the whole device down.
  EXPECT_EQ(p.action(2, OpResource::kCompute), FaultPlan::Action::kError);
  EXPECT_EQ(p.action(2, OpResource::kCopyD2H), FaultPlan::Action::kError);
  // A hang wedges the kernel lane; DMA still errors-free.
  EXPECT_EQ(p.action(3, OpResource::kCompute), FaultPlan::Action::kHang);
  EXPECT_EQ(p.action(3, OpResource::kCopyH2D), FaultPlan::Action::kNone);
}

// ---- Executor failure semantics -------------------------------------------

ExecuteOptions fault_on(int device, FaultKind kind, double watchdog_ms = 0.0) {
  FaultSchedule s;
  s.add({device, 0, kFaultForever, kind});
  ExecuteOptions opts;
  opts.faults = s.plan(0, 3);
  opts.watchdog_ms = watchdog_ms;
  return opts;
}

/// A diamond spanning both devices: CF upload -> kernel -> MV download on
/// device 1, plus an independent op on device 0 that must survive any
/// device-1 fault.
OpGraph diamond_graph(int* independent_id) {
  OpGraph g;
  const int up = g.add(make_op(1, OpResource::kCopyH2D, 1.0));
  const int kern = g.add(make_op(1, OpResource::kCompute, 2.0, {up}));
  g.add(make_op(1, OpResource::kCopyD2H, 1.0, {kern}));
  *independent_id = g.add(make_op(0, OpResource::kCompute, 3.0));
  return g;
}

TEST(VirtualExecutorFaults, ErrorCancelsDependentsOnly) {
  const auto topo = two_device_topo();
  int indep = -1;
  const OpGraph g = diamond_graph(&indep);
  const auto r = execute_virtual(g, topo,
                                 fault_on(1, FaultKind::kTransferTransient));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status[0], OpStatus::kFailed);     // the faulted upload
  EXPECT_EQ(r.status[1], OpStatus::kCancelled);  // kernel never runs
  EXPECT_EQ(r.status[2], OpStatus::kCancelled);  // nor the download
  EXPECT_EQ(r.status[indep], OpStatus::kOk);     // device 0 unaffected
  // Cancelled ops consume no time; the failure list has exactly the upload.
  EXPECT_DOUBLE_EQ(r.times[1].end_ms, 0.0);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].status, OpStatus::kFailed);
  EXPECT_EQ(r.failed_devices(), std::vector<int>{1});
  // Makespan covers the surviving work.
  EXPECT_DOUBLE_EQ(r.makespan_ms, 3.0);
}

TEST(RealExecutorFaults, CancelsDependentsWithoutRunningThem) {
  const auto topo = two_device_topo();
  std::atomic<bool> dependent_ran{false};
  std::atomic<bool> independent_ran{false};
  OpGraph g;
  Op bad = make_op(1, OpResource::kCompute, 0.0);
  bad.work = [] { throw Error("boom"); };
  const int bad_id = g.add(std::move(bad));
  Op dep = make_op(1, OpResource::kCopyD2H, 0.0, {bad_id});
  dep.work = [&] { dependent_ran = true; };
  const int dep_id = g.add(std::move(dep));
  Op indep = make_op(0, OpResource::kCompute, 0.0);
  indep.work = [&] { independent_ran = true; };
  const int indep_id = g.add(std::move(indep));

  const auto r = execute_real(g, topo);
  EXPECT_EQ(r.status[bad_id], OpStatus::kFailed);
  EXPECT_EQ(r.status[dep_id], OpStatus::kCancelled);
  EXPECT_EQ(r.status[indep_id], OpStatus::kOk);
  EXPECT_FALSE(dependent_ran.load());  // poisoned inputs never touched
  EXPECT_TRUE(independent_ran.load());
}

TEST(RealExecutorFaults, InjectedFaultSkipsTheWorkEntirely) {
  const auto topo = two_device_topo();
  std::atomic<bool> ran{false};
  OpGraph g;
  Op op = make_op(1, OpResource::kCompute, 0.0);
  op.work = [&] { ran = true; };
  g.add(std::move(op));
  const auto r =
      execute_real(g, topo, fault_on(1, FaultKind::kKernelTransient));
  EXPECT_EQ(r.status[0], OpStatus::kFailed);
  EXPECT_FALSE(ran.load());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].message, "injected fault");
}

TEST(ExecutorFaults, VirtualAndRealReportIdenticalStatuses) {
  // The parity property the degradation logic relies on: for the same graph
  // and the same fault plan, both executors settle every op in the same
  // terminal state — only the timestamps differ.
  const auto topo = two_device_topo();
  const FaultKind kinds[] = {FaultKind::kKernelTransient,
                             FaultKind::kTransferTransient,
                             FaultKind::kDeviceLoss, FaultKind::kHang};
  for (FaultKind kind : kinds) {
    int indep = -1;
    const OpGraph g = diamond_graph(&indep);
    // Hang semantics need a watchdog (real mode's injected sleep overshoots
    // it). A generous deadline keeps this stable under sanitizers.
    const auto opts = fault_on(1, kind, /*watchdog_ms=*/150.0);
    const auto rv = execute_virtual(g, topo, opts);
    const auto rr = execute_real(g, topo, opts);
    ASSERT_EQ(rv.status.size(), rr.status.size());
    for (std::size_t i = 0; i < rv.status.size(); ++i) {
      EXPECT_EQ(rv.status[i], rr.status[i])
          << "op " << i << " diverged for fault kind "
          << static_cast<int>(kind);
    }
    EXPECT_EQ(rv.failed_devices(), rr.failed_devices());
  }
}

TEST(ExecutorFaults, HangTimesOutAtWatchdogAndCancelsDependents) {
  const auto topo = two_device_topo();
  int indep = -1;
  const OpGraph g = diamond_graph(&indep);
  const auto opts = fault_on(1, FaultKind::kHang, /*watchdog_ms=*/10.0);
  const auto r = execute_virtual(g, topo, opts);
  EXPECT_EQ(r.status[0], OpStatus::kOk);        // the upload is fine
  EXPECT_EQ(r.status[1], OpStatus::kTimedOut);  // the kernel hangs
  EXPECT_EQ(r.status[2], OpStatus::kCancelled);
  EXPECT_EQ(r.status[indep], OpStatus::kOk);
  // Virtual time: the hung op occupies its lane for exactly the watchdog.
  EXPECT_DOUBLE_EQ(r.times[1].end_ms, r.times[1].start_ms + 10.0);
}

TEST(ExecutorFaults, SlowOpTripsTheWatchdogInVirtualMode) {
  const auto topo = two_device_topo();
  OpGraph g;
  g.add(make_op(0, OpResource::kCompute, 50.0));
  ExecuteOptions opts;
  opts.watchdog_ms = 20.0;
  const auto r = execute_virtual(g, topo, opts);
  EXPECT_EQ(r.status[0], OpStatus::kTimedOut);
  EXPECT_DOUBLE_EQ(r.times[0].end_ms, 20.0);
}

TEST(ExecutorFaults, HangWithoutWatchdogIsRejected) {
  const auto topo = two_device_topo();
  OpGraph g;
  g.add(make_op(1, OpResource::kCompute, 1.0));
  const auto opts = fault_on(1, FaultKind::kHang);  // no watchdog
  EXPECT_THROW(execute_virtual(g, topo, opts), Error);
  EXPECT_THROW(execute_real(g, topo, opts), Error);
}

}  // namespace
}  // namespace feves
