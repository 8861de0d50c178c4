#include "platform/op_graph.hpp"

#include "common/thread_pool.hpp"
#include "platform/presets.hpp"
#include "platform/perturbation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace feves {
namespace {

PlatformTopology two_device_topo(CopyEngines engines) {
  PlatformTopology t = make_sys_nf();
  t.devices[1].copy_engines = engines;
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

TEST(VirtualExecutor, SequentialOnOneLane) {
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  g.add(make_op(0, OpResource::kCompute, 5.0));
  g.add(make_op(0, OpResource::kCompute, 3.0));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.times[0].end_ms, 5.0);
  EXPECT_DOUBLE_EQ(r.times[1].start_ms, 5.0);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 8.0);
}

TEST(VirtualExecutor, IndependentDevicesOverlap) {
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  g.add(make_op(0, OpResource::kCompute, 5.0));
  g.add(make_op(1, OpResource::kCompute, 7.0));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.times[0].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.times[1].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 7.0);
}

TEST(VirtualExecutor, DependenciesSerializeAcrossDevices) {
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  const int a = g.add(make_op(0, OpResource::kCompute, 4.0));
  g.add(make_op(1, OpResource::kCompute, 2.0, {a}));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.times[1].start_ms, 4.0);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 6.0);
}

TEST(VirtualExecutor, ComputeOverlapsTransfer) {
  // The whole point of copy engines: a kernel and a DMA run concurrently.
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  g.add(make_op(1, OpResource::kCompute, 10.0));
  g.add(make_op(1, OpResource::kCopyH2D, 6.0));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 10.0);
}

TEST(VirtualExecutor, SingleCopyEngineSerializesBothDirections) {
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  g.add(make_op(1, OpResource::kCopyH2D, 6.0));
  g.add(make_op(1, OpResource::kCopyD2H, 4.0));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 10.0);  // serialized on one DMA unit
}

TEST(VirtualExecutor, DualCopyEngineOverlapsDirections) {
  auto topo = two_device_topo(CopyEngines::kDual);
  OpGraph g;
  g.add(make_op(1, OpResource::kCopyH2D, 6.0));
  g.add(make_op(1, OpResource::kCopyD2H, 4.0));
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.makespan_ms, 6.0);  // paper Sec. III-A dual engines
}

TEST(VirtualExecutor, FifoHeadOfLineBlocking) {
  // CUDA-stream semantics: an op queued first on a lane blocks later ops on
  // the same lane even when the later op's deps are already met.
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  const int slow = g.add(make_op(0, OpResource::kCompute, 10.0));
  const int blocked =
      g.add(make_op(1, OpResource::kCopyH2D, 1.0, {slow}));  // waits
  const int behind = g.add(make_op(1, OpResource::kCopyH2D, 1.0));  // free
  const auto r = execute_virtual(g, topo);
  EXPECT_DOUBLE_EQ(r.times[blocked].start_ms, 10.0);
  EXPECT_DOUBLE_EQ(r.times[behind].start_ms, 11.0);  // stuck behind head
}

TEST(OpGraph, RejectsForwardDependencies) {
  // Lane queues execute in issue order, so a dependency on a not-yet-added
  // op (the only way to build a cross-lane deadlock) is rejected at
  // construction.
  OpGraph g;
  const int first = g.add(make_op(0, OpResource::kCompute, 1.0));
  Op bad = make_op(0, OpResource::kCompute, 1.0);
  bad.deps = {first + 5};
  EXPECT_THROW(g.add(std::move(bad)), Error);
}

TEST(RealExecutor, RunsWorkAndHonoursDeps) {
  auto topo = two_device_topo(CopyEngines::kSingle);
  std::atomic<int> stage{0};
  OpGraph g;
  Op first = make_op(0, OpResource::kCompute, 0.0);
  first.work = [&] {
    int expect = 0;
    EXPECT_TRUE(stage.compare_exchange_strong(expect, 1));
  };
  const int id0 = g.add(std::move(first));
  Op second = make_op(1, OpResource::kCompute, 0.0, {id0});
  second.work = [&] {
    int expect = 1;
    EXPECT_TRUE(stage.compare_exchange_strong(expect, 2));
  };
  g.add(std::move(second));
  const auto r = execute_real(g, topo);
  EXPECT_EQ(stage.load(), 2);
  EXPECT_GE(r.times[1].start_ms, r.times[0].end_ms);
}

TEST(RealExecutor, CapturesWorkExceptionsWithAttribution) {
  // A throwing work closure no longer tears down the frame: the executor
  // returns a partial result attributing the failure to the op's label,
  // device and resource lane.
  auto topo = two_device_topo(CopyEngines::kSingle);
  OpGraph g;
  Op op = make_op(1, OpResource::kCopyH2D, 0.0);
  op.label = "SF_in";
  op.work = [] { throw Error("dma fault"); };
  g.add(std::move(op));
  const auto r = execute_real(g, topo);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.status[0], OpStatus::kFailed);
  EXPECT_EQ(r.failures[0].label, "SF_in");
  EXPECT_EQ(r.failures[0].device, 1);
  EXPECT_EQ(r.failures[0].resource, OpResource::kCopyH2D);
  EXPECT_NE(r.failures[0].message.find("dma fault"), std::string::npos);
  EXPECT_EQ(r.failed_devices(), std::vector<int>{1});
  try {
    r.throw_if_failed();
    FAIL() << "throw_if_failed did not throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("SF_in"), std::string::npos);
    EXPECT_NE(msg.find("device 1"), std::string::npos);
    EXPECT_NE(msg.find(resource_name(OpResource::kCopyH2D)), std::string::npos);
  }
}

/// Start and end tickets of every op of one graph, from one shared clock.
struct OrderLog {
  explicit OrderLog(int ops)
      : start(static_cast<std::size_t>(ops), -1),
        end(static_cast<std::size_t>(ops), -1) {}
  std::atomic<int> tick{0};
  std::vector<int> start;  ///< written by the op's own lane only
  std::vector<int> end;
};

/// A frame-shaped graph over every device of `topo`, the shape
/// build_frame_graph gives PoolBig: per device a stage-in on its H2D lane,
/// a kernel after it and after the previous device's stage-in (a
/// cross-lane edge), and a gather on its D2H lane; a last kernel on device
/// 0 joins every gather. Every op logs its start and end ticket.
OpGraph frame_shaped_graph(const PlatformTopology& topo,
                           std::unique_ptr<OrderLog>* log) {
  const int n = topo.num_devices();
  *log = std::make_unique<OrderLog>(3 * n + 1);
  OrderLog* l = log->get();
  OpGraph g;
  auto add = [&](int device, OpResource res, std::vector<int> deps) {
    Op op = make_op(device, res, 0.0, std::move(deps));
    const int id = g.size();
    op.work = [l, id] {
      l->start[static_cast<std::size_t>(id)] = l->tick.fetch_add(1);
      l->end[static_cast<std::size_t>(id)] = l->tick.fetch_add(1);
    };
    return g.add(std::move(op));
  };
  std::vector<int> gathers;
  int prev_in = -1;
  for (int d = 0; d < n; ++d) {
    const int in = add(d, OpResource::kCopyH2D, {});
    std::vector<int> kdeps{in};
    if (prev_in >= 0) kdeps.push_back(prev_in);
    const int kernel = add(d, OpResource::kCompute, kdeps);
    gathers.push_back(add(d, OpResource::kCopyD2H, {kernel}));
    prev_in = in;
  }
  add(0, OpResource::kCompute, gathers);
  return g;
}

/// Every op ran, and each one started after all its dependencies ended.
bool ran_in_dependency_order(const OpGraph& g, const OrderLog& log,
                             const ExecutionResult& r) {
  if (!r.ok()) return false;
  for (int id = 0; id < g.size(); ++id) {
    const int start = log.start[static_cast<std::size_t>(id)];
    if (start < 0) return false;
    for (int d : g.ops()[id].deps) {
      if (log.end[static_cast<std::size_t>(d)] >= start) return false;
    }
  }
  return true;
}

TEST(RealExecutor, BackToBackCallsStartNoThreadAfterTheFirst) {
  // The lanes run on the process-wide lane runtime's parked threads: the
  // first call grows it to the graph's width, later calls of the same
  // width reuse those threads instead of spawning their own.
  const PlatformTopology topo = make_pool_big();
  std::unique_ptr<OrderLog> log;
  const OpGraph g = frame_shaped_graph(topo, &log);
  ASSERT_TRUE(ran_in_dependency_order(g, *log, execute_real(g, topo)));
  const std::size_t started = lane_runtime().threads_started();
  EXPECT_GT(started, 0u);
  for (int call = 1; call < 200; ++call) {
    const OpGraph again = frame_shaped_graph(topo, &log);
    ASSERT_TRUE(ran_in_dependency_order(again, *log, execute_real(again, topo)))
        << "call " << call;
  }
  EXPECT_EQ(lane_runtime().threads_started(), started);
}

TEST(RealExecutor, ConcurrentCallersCompleteInDependencyOrder) {
  // Four callers share the runtime, each executing its own graph over and
  // over: every call completes and honours its own dependencies.
  const PlatformTopology topo = make_pool_big();
  constexpr int kCallers = 4;
  constexpr int kCalls = 25;
  std::vector<int> good(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&topo, &good, c] {
      for (int call = 0; call < kCalls; ++call) {
        std::unique_ptr<OrderLog> log;
        const OpGraph g = frame_shaped_graph(topo, &log);
        const ExecutionResult r = execute_real(g, topo);
        good[static_cast<std::size_t>(c)] +=
            ran_in_dependency_order(g, *log, r) ? 1 : 0;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(good[static_cast<std::size_t>(c)], kCalls) << "caller " << c;
  }
}

TEST(Presets, CalibratedRelationships) {
  // The preset family must respect the paper's quoted single-device ratios.
  const auto cn = preset_cpu_nehalem();
  const auto ch = preset_cpu_haswell();
  const auto gf = preset_gpu_fermi();
  const auto gk = preset_gpu_kepler();
  EXPECT_NEAR(ch.tput.me_ops_per_ms / cn.tput.me_ops_per_ms, 1.7, 1e-9);
  EXPECT_NEAR(gk.tput.me_ops_per_ms / gf.tput.me_ops_per_ms, 2.0, 1e-9);
  EXPECT_TRUE(gf.is_accelerator());
  EXPECT_FALSE(cn.is_accelerator());
  EXPECT_EQ(make_sys_nff().num_accelerators(), 2);
  EXPECT_EQ(make_sys_hk().cpu_index(), 0);
  EXPECT_THROW(topology_by_name("SysXYZ"), Error);
  EXPECT_EQ(all_config_names().size(), 7u);
}

TEST(Perturbation, FactorsComposeAndWindow) {
  PerturbationSchedule sched;
  sched.add({/*device=*/1, /*begin=*/10, /*end=*/12, /*slowdown=*/2.0});
  sched.add({1, 11, 13, 1.5});
  EXPECT_DOUBLE_EQ(sched.factor(1, 9), 1.0);
  EXPECT_DOUBLE_EQ(sched.factor(1, 10), 2.0);
  EXPECT_DOUBLE_EQ(sched.factor(1, 11), 3.0);  // overlap composes
  EXPECT_DOUBLE_EQ(sched.factor(1, 12), 1.5);
  EXPECT_DOUBLE_EQ(sched.factor(0, 11), 1.0);  // other device untouched
}

}  // namespace
}  // namespace feves
