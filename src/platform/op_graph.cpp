#include "platform/op_graph.hpp"

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "platform/pool.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace feves {

namespace {

/// Maps (device, resource) to a serial execution lane. Single-copy-engine
/// devices fold H2D and D2H into one lane (the hardware has one DMA unit);
/// dual-copy devices get independent lanes per direction.
int lane_of(const PlatformTopology& topo, int device, OpResource res) {
  FEVES_CHECK(device >= 0 && device < topo.num_devices());
  const int base = device * 3;
  switch (res) {
    case OpResource::kCompute:
      return base + 0;
    case OpResource::kCopyH2D:
      return base + 1;
    case OpResource::kCopyD2H:
      return topo.devices[device].copy_engines == CopyEngines::kDual
                 ? base + 2
                 : base + 1;
  }
  return base;
}

/// Builds per-lane FIFO queues in op insertion order.
std::vector<std::vector<int>> build_lanes(const OpGraph& graph,
                                          const PlatformTopology& topo) {
  std::vector<std::vector<int>> lanes(
      static_cast<std::size_t>(topo.num_devices()) * 3);
  for (int i = 0; i < graph.size(); ++i) {
    const Op& op = graph.ops()[i];
    lanes[lane_of(topo, op.device, op.resource)].push_back(i);
  }
  return lanes;
}

/// Hangs are only meaningful with a watchdog to end them; fail loudly when
/// a schedule injects one into an executor that could never detect it.
/// Lease guard shared by both executors: the whole graph is vetted before
/// anything runs, so a grant violation can never leave a frame half-executed.
void validate_lease(const OpGraph& graph, const ExecuteOptions& opts) {
  if (opts.lease == nullptr) return;
  FEVES_CHECK_MSG(opts.lease->active(), "execution under an inactive lease");
  for (const Op& op : graph.ops()) {
    FEVES_CHECK_MSG(opts.lease->covers(op.device),
                    "op '" << op.label << "' targets device " << op.device
                           << " outside the session's device lease");
  }
}

void validate_fault_options(const ExecuteOptions& opts, bool real_mode) {
  bool any_hang = false;
  for (const auto& d : opts.faults.dev) any_hang |= d.hang;
  if (!any_hang) return;
  FEVES_CHECK_MSG(opts.watchdog_ms > 0.0,
                  "hang fault injected but the watchdog is disabled");
  if (real_mode) {
    FEVES_CHECK_MSG(opts.hang_sleep_ms > opts.watchdog_ms,
                    "injected hang must sleep past the watchdog deadline");
  }
}

/// Builds the ordered failure list from per-op terminal states.
void collect_failures(const OpGraph& graph,
                      const std::vector<std::string>& messages,
                      ExecutionResult* result) {
  for (int i = 0; i < graph.size(); ++i) {
    const OpStatus s = result->status[i];
    if (s != OpStatus::kFailed && s != OpStatus::kTimedOut) continue;
    const Op& op = graph.ops()[i];
    result->failures.push_back(
        {i, op.label, op.device, op.resource, s, messages[i]});
  }
}

void finish_makespan(ExecutionResult* result) {
  for (std::size_t i = 0; i < result->times.size(); ++i) {
    if (result->status[i] == OpStatus::kCancelled) continue;
    result->makespan_ms = std::max(result->makespan_ms, result->times[i].end_ms);
  }
}

obs::EventStatus event_status(OpStatus s) {
  switch (s) {
    case OpStatus::kOk:
      return obs::EventStatus::kOk;
    case OpStatus::kFailed:
      return obs::EventStatus::kFailed;
    case OpStatus::kTimedOut:
      return obs::EventStatus::kTimedOut;
    case OpStatus::kCancelled:
      return obs::EventStatus::kCancelled;
  }
  return obs::EventStatus::kFailed;
}

/// Trace lane within the device (0..2) — the same folding as lane_of, so
/// single-copy-engine devices show D2H traffic on their one copy track.
int trace_lane(const PlatformTopology& topo, int device, OpResource res) {
  return lane_of(topo, device, res) - device * 3;
}

obs::TraceEvent op_event(const PlatformTopology& topo,
                         const ExecuteOptions& opts, const Op& op,
                         const OpTimes& t, OpStatus s) {
  obs::TraceEvent e;
  e.set_name(op.label.c_str());
  e.kind = op.resource == OpResource::kCompute ? obs::EventKind::kKernel
                                               : obs::EventKind::kTransfer;
  e.frame = opts.trace_frame;
  e.device = op.device;
  e.lane = trace_lane(topo, op.device, op.resource);
  e.rows = op.rows;
  e.bytes = op.bytes;
  e.t_start_ms = t.start_ms;
  e.t_end_ms = t.end_ms;
  e.status = event_status(s);
  return e;
}

/// Hands a finished execution to the attached trace session: one event per
/// op id, built from the graph and the result on the calling thread once
/// every lane has joined, so nothing traces while the ops run.
void trace_execution(const OpGraph& graph, const PlatformTopology& topo,
                     const ExecuteOptions& opts,
                     const ExecutionResult& result) {
  if (opts.trace == nullptr || !opts.trace->enabled()) return;
  std::vector<obs::TraceEvent> events;
  events.reserve(static_cast<std::size_t>(graph.size()));
  for (int id = 0; id < graph.size(); ++id) {
    events.push_back(op_event(topo, opts, graph.ops()[id], result.times[id],
                              result.status[id]));
  }
  opts.trace->add_execution(events);
}

/// Shared state of one execute_real call. Every lane drains its FIFO on
/// its own thread and parks only when its head op has unsettled
/// dependencies. Each op carries a count of them; settling an op counts
/// its dependents down and wakes exactly the lanes parked on a dependent
/// that reached zero — no lane wakes to find it still has to wait.
class RealRun {
 public:
  RealRun(const RealRun&) = delete;
  RealRun& operator=(const RealRun&) = delete;

  RealRun(const OpGraph& graph, const PlatformTopology& topo,
          const ExecuteOptions& opts, ExecutionResult* result)
      : graph_(graph),
        opts_(opts),
        result_(*result),
        lanes_(build_lanes(graph, topo)),
        sync_(std::make_unique<LaneSync[]>(lanes_.size())),
        lane_of_(static_cast<std::size_t>(graph.size())),
        unsettled_(static_cast<std::size_t>(graph.size())),
        dependents_begin_(static_cast<std::size_t>(graph.size()) + 1, 0),
        messages_(static_cast<std::size_t>(graph.size())) {
    const std::vector<Op>& ops = graph.ops();
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (lanes_[lane].empty()) continue;
      busy_.push_back(static_cast<int>(lane));
      for (int id : lanes_[lane]) lane_of_[id] = static_cast<int>(lane);
    }
    // Reverse edges in CSR form: dependents of op i are
    // dependents_[dependents_begin_[i], dependents_begin_[i + 1]).
    for (std::size_t i = 0; i < ops.size(); ++i) {
      unsettled_[i] = static_cast<int>(ops[i].deps.size());
      for (int d : ops[i].deps) ++dependents_begin_[d + 1];
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      dependents_begin_[i + 1] += dependents_begin_[i];
    }
    dependents_.resize(static_cast<std::size_t>(dependents_begin_.back()));
    std::vector<int> fill(dependents_begin_.begin(),
                          dependents_begin_.end() - 1);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (int d : ops[i].deps) dependents_[fill[d]++] = static_cast<int>(i);
    }
    clock_.reset();  // op times and the makespan start here
  }

  /// Indices of the lanes with at least one op.
  const std::vector<int>& busy_lanes() const { return busy_; }

  /// Runs `lane`'s ops in FIFO order, each once its dependencies settled.
  /// noexcept: an op's own failure is caught and recorded, but a throw from
  /// anything else here (the fault plan, allocation) would leave this
  /// lane's ops unsettled and every lane parked on them waiting forever —
  /// terminate loudly instead.
  void drain(int lane) noexcept {
    for (int id : lanes_[static_cast<std::size_t>(lane)]) {
      wait_ready(lane, id);
      const Op& op = graph_.ops()[id];
      bool deps_ok = true;
      for (int d : op.deps) deps_ok &= result_.status[d] == OpStatus::kOk;
      if (!deps_ok) {
        // A dependency did not complete: cancel instead of running on
        // poisoned inputs, and keep draining this lane.
        result_.status[id] = OpStatus::kCancelled;
        settle(id);
        continue;
      }

      const FaultPlan::Action action =
          opts_.faults.action(op.device, op.resource);
      const double t0 = clock_.elapsed_ms();
      OpStatus status = OpStatus::kOk;
      std::string message;
      if (action == FaultPlan::Action::kError) {
        status = OpStatus::kFailed;
        message = "injected fault";
      } else if (action == FaultPlan::Action::kHang) {
        // The hung op holds its lane past the watchdog deadline, then the
        // executor declares it dead; its (never produced) outputs stay
        // unusable, so dependents are cancelled.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(opts_.hang_sleep_ms));
        status = OpStatus::kTimedOut;
        message = "injected hang exceeded watchdog deadline";
      } else if (op.work) {
        try {
          op.work();
        } catch (const std::exception& e) {
          status = OpStatus::kFailed;
          message = e.what();
        } catch (...) {
          status = OpStatus::kFailed;
          message = "unknown exception";
        }
      }
      const double t1 = clock_.elapsed_ms();
      if (status == OpStatus::kOk && opts_.watchdog_ms > 0.0 &&
          t1 - t0 > opts_.watchdog_ms) {
        status = OpStatus::kTimedOut;
        message = "exceeded watchdog deadline";
      }
      result_.times[id] = {t0, t1};
      result_.status[id] = status;
      messages_[id] = std::move(message);
      settle(id);
    }
  }

  /// Failure list, once every lane is drained.
  void collect(ExecutionResult* result) const {
    collect_failures(graph_, messages_, result);
  }

 private:
  /// Per-lane parking spot. `mutex` guards `parked_on` and the unsettled_
  /// counts of the lane's ops.
  struct LaneSync {
    std::mutex mutex;
    std::condition_variable cv;
    int parked_on = -1;  ///< op the lane waits for
  };

  void wait_ready(int lane, int id) {
    LaneSync& s = sync_[static_cast<std::size_t>(lane)];
    std::unique_lock lock(s.mutex);
    if (unsettled_[id] == 0) return;
    s.parked_on = id;
    s.cv.wait(lock, [&] { return unsettled_[id] == 0; });
    s.parked_on = -1;
  }

  /// Publishes op `id`'s outcome (written before this call) to its
  /// dependents: each count drops under the dependent's lane mutex, which
  /// orders every settled dependency's outcome before the lane reads it.
  /// A lane wakes only when the op it is parked on reaches zero.
  void settle(int id) {
    for (int k = dependents_begin_[id]; k < dependents_begin_[id + 1]; ++k) {
      const int dep = dependents_[static_cast<std::size_t>(k)];
      LaneSync& s = sync_[static_cast<std::size_t>(lane_of_[dep])];
      bool wake;
      {
        std::lock_guard lock(s.mutex);
        wake = --unsettled_[dep] == 0 && s.parked_on == dep;
      }
      if (wake) s.cv.notify_one();
    }
  }

  const OpGraph& graph_;
  const ExecuteOptions& opts_;
  ExecutionResult& result_;
  std::vector<std::vector<int>> lanes_;
  std::unique_ptr<LaneSync[]> sync_;
  std::vector<int> lane_of_;
  std::vector<int> busy_;
  std::vector<int> unsettled_;  ///< per op; guarded by its lane's mutex
  std::vector<int> dependents_begin_;
  std::vector<int> dependents_;
  std::vector<std::string> messages_;
  Timer clock_;
};

}  // namespace

const char* to_string(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return "ok";
    case OpStatus::kFailed:
      return "failed";
    case OpStatus::kTimedOut:
      return "timed-out";
    case OpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

const char* resource_name(OpResource res) {
  switch (res) {
    case OpResource::kCompute:
      return "compute";
    case OpResource::kCopyH2D:
      return "copyH2D";
    case OpResource::kCopyD2H:
      return "copyD2H";
  }
  return "?";
}

std::vector<int> ExecutionResult::failed_devices() const {
  std::vector<int> out;
  for (const OpFailure& f : failures) out.push_back(f.device);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ExecutionResult::throw_if_failed() const {
  if (failures.empty()) return;
  std::ostringstream os;
  os << failures.size() << " op(s) failed:";
  for (const OpFailure& f : failures) {
    os << " [op '" << f.label << "' on device " << f.device << " ("
       << resource_name(f.resource) << " lane): " << to_string(f.status);
    if (!f.message.empty()) os << " — " << f.message;
    os << ']';
  }
  throw Error(os.str());
}

ExecutionResult execute_virtual(const OpGraph& graph,
                                const PlatformTopology& topo,
                                const ExecuteOptions& opts) {
  topo.validate();
  validate_fault_options(opts, /*real_mode=*/false);
  validate_lease(graph, opts);
  ExecutionResult result;
  result.times.assign(graph.size(), OpTimes{});
  result.status.assign(graph.size(), OpStatus::kOk);
  if (graph.empty()) return result;

  auto lanes = build_lanes(graph, topo);
  std::vector<std::size_t> head(lanes.size(), 0);
  std::vector<double> lane_free(lanes.size(), 0.0);
  std::vector<bool> settled(graph.size(), false);
  std::vector<std::string> messages(graph.size());

  int remaining = graph.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      while (head[lane] < lanes[lane].size()) {
        const int id = lanes[lane][head[lane]];
        const Op& op = graph.ops()[id];
        double ready = lane_free[lane];
        bool deps_settled = true;
        bool deps_ok = true;
        for (int d : op.deps) {
          if (!settled[d]) {
            deps_settled = false;
            break;
          }
          deps_ok &= result.status[d] == OpStatus::kOk;
          ready = std::max(ready, result.times[d].end_ms);
        }
        if (!deps_settled) break;  // FIFO: later ops in this lane must wait

        if (!deps_ok) {
          // A dependency did not complete: never run, consume no lane time.
          result.status[id] = OpStatus::kCancelled;
          result.times[id] = OpTimes{};
        } else {
          const FaultPlan::Action action =
              opts.faults.action(op.device, op.resource);
          if (action == FaultPlan::Action::kError) {
            result.status[id] = OpStatus::kFailed;
            result.times[id] = {ready, ready};
            messages[id] = "injected fault";
            lane_free[lane] = ready;
          } else if (action == FaultPlan::Action::kHang) {
            // Modelled as an op that never completes; the watchdog ends it.
            result.status[id] = OpStatus::kTimedOut;
            result.times[id] = {ready, ready + opts.watchdog_ms};
            messages[id] = "injected hang; watchdog fired";
            lane_free[lane] = result.times[id].end_ms;
          } else if (opts.watchdog_ms > 0.0 && op.virtual_ms > opts.watchdog_ms) {
            result.status[id] = OpStatus::kTimedOut;
            result.times[id] = {ready, ready + opts.watchdog_ms};
            messages[id] = "exceeded watchdog deadline";
            lane_free[lane] = result.times[id].end_ms;
          } else {
            result.times[id] = {ready, ready + op.virtual_ms};
            lane_free[lane] = result.times[id].end_ms;
          }
        }
        settled[id] = true;
        ++head[lane];
        --remaining;
        progressed = true;
      }
    }
    FEVES_CHECK_MSG(progressed,
                    "op graph deadlocked: circular dependency across lanes");
  }

  collect_failures(graph, messages, &result);
  finish_makespan(&result);
  trace_execution(graph, topo, opts, result);
  return result;
}

ExecutionResult execute_real(const OpGraph& graph,
                             const PlatformTopology& topo,
                             const ExecuteOptions& opts) {
  topo.validate();
  validate_fault_options(opts, /*real_mode=*/true);
  validate_lease(graph, opts);
  ExecutionResult result;
  result.times.assign(graph.size(), OpTimes{});
  result.status.assign(graph.size(), OpStatus::kOk);
  if (graph.empty()) return result;

  RealRun run(graph, topo, opts, &result);
  {
    // The caller drains the first lane itself; every other lane gets a
    // parked runtime thread. The batch joins before `run` goes away.
    const std::vector<int>& busy = run.busy_lanes();
    LaneRuntime::Batch others(
        lane_runtime(), static_cast<int>(busy.size()) - 1,
        [&run, &busy](int k) {
          run.drain(busy[static_cast<std::size_t>(k) + 1]);
        });
    run.drain(busy.front());
    others.join();
  }
  run.collect(&result);
  finish_makespan(&result);
  trace_execution(graph, topo, opts, result);
  return result;
}

}  // namespace feves
