// Operation graph: the unit of orchestration the Video Coding Manager emits
// per frame (Fig 4 of the paper). Each op is a kernel or a DMA transfer,
// bound to a device resource (compute queue or copy engine) with explicit
// dependencies. Ops issued to the same resource execute FIFO in issue order
// — the same semantics as CUDA streams, and the mechanism by which single-
// vs dual-copy-engine concurrency (Sec. III-A) is expressed.
//
// The same graph runs on two executors:
//   * execute_virtual — discrete-event simulation over the calibrated cost
//     model (figure benches; no pixels touched);
//   * execute_real    — host threads running the actual kernel closures with
//     wall-clock measurement (correctness tests, examples). Its lanes run
//     on lane_runtime()'s parked threads (common/thread_pool.hpp), shared
//     by every caller in the process.
#pragma once

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "platform/device.hpp"

#include <functional>
#include <string>
#include <vector>

namespace feves {

enum class OpResource {
  kCompute,  ///< the device's kernel queue
  kCopyH2D,  ///< host-to-device engine
  kCopyD2H,  ///< device-to-host engine (same engine as H2D when single-copy)
};

struct Op {
  std::string label;
  int device = 0;
  OpResource resource = OpResource::kCompute;
  double virtual_ms = 0.0;           ///< modelled duration (virtual mode)
  std::function<void()> work;        ///< real-mode payload (may be empty)
  std::vector<int> deps;             ///< op ids that must finish first
  int rows = 0;      ///< MB rows the op covers (trace/attribution metadata)
  double bytes = 0.0;  ///< transfer payload bytes (0 for kernels)
};

class OpGraph {
 public:
  /// Adds an op; `op.deps` must reference previously added ops.
  int add(Op op) {
    for (int d : op.deps) {
      FEVES_CHECK_MSG(d >= 0 && d < static_cast<int>(ops_.size()),
                      "op '" << op.label << "' depends on unknown op " << d);
    }
    FEVES_CHECK(op.virtual_ms >= 0.0);
    ops_.push_back(std::move(op));
    return static_cast<int>(ops_.size()) - 1;
  }

  const std::vector<Op>& ops() const { return ops_; }
  int size() const { return static_cast<int>(ops_.size()); }
  bool empty() const { return ops_.empty(); }

 private:
  std::vector<Op> ops_;
};

struct OpTimes {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Terminal state of one op after execution.
enum class OpStatus {
  kOk = 0,     ///< ran to completion
  kFailed,     ///< its work threw, or a fault was injected
  kTimedOut,   ///< exceeded the per-op watchdog deadline (or injected hang)
  kCancelled,  ///< never ran: a (transitive) dependency did not complete
};

const char* to_string(OpStatus status);
const char* resource_name(OpResource res);

/// One failed or timed-out op, with enough attribution to pick the device
/// to quarantine and to produce an actionable error message.
struct OpFailure {
  int op = -1;
  std::string label;
  int device = 0;
  OpResource resource = OpResource::kCompute;
  OpStatus status = OpStatus::kFailed;
  std::string message;  ///< exception text / injected-fault description
};

struct ExecutionResult {
  std::vector<OpTimes> times;    ///< per op id ({0,0} for cancelled ops)
  std::vector<OpStatus> status;  ///< per op id
  std::vector<OpFailure> failures;  ///< kFailed/kTimedOut ops, by op id
  double makespan_ms = 0.0;  ///< max end time over attempted ops (tau_tot)

  bool ok() const {
    for (OpStatus s : status) {
      if (s != OpStatus::kOk) return false;
    }
    return true;
  }

  /// Devices owning at least one kFailed/kTimedOut op (cancellations are
  /// collateral, not evidence against their device). Sorted, unique.
  std::vector<int> failed_devices() const;

  /// Throws Error summarizing every failure with op label, device and
  /// resource lane. No-op when ok().
  void throw_if_failed() const;
};

/// Per-device fault actions for one frame (built by FaultSchedule::plan).
/// Default-constructed: no faults.
struct FaultPlan {
  struct DeviceFaults {
    bool kernel_error = false;
    bool transfer_error = false;
    bool lost = false;
    bool hang = false;
  };
  std::vector<DeviceFaults> dev;  ///< empty = fault-free

  enum class Action { kNone, kError, kHang };

  Action action(int device, OpResource res) const {
    if (device < 0 || device >= static_cast<int>(dev.size())) {
      return Action::kNone;
    }
    const DeviceFaults& f = dev[device];
    if (f.lost) return Action::kError;
    if (res == OpResource::kCompute) {
      if (f.hang) return Action::kHang;
      if (f.kernel_error) return Action::kError;
    } else if (f.transfer_error) {
      return Action::kError;
    }
    return Action::kNone;
  }

  bool any() const {
    for (const DeviceFaults& f : dev) {
      if (f.kernel_error || f.transfer_error || f.lost || f.hang) return true;
    }
    return false;
  }
};

struct ExecuteOptions {
  FaultPlan faults;  ///< injected faults for this execution
  /// Per-op deadline; 0 disables. Virtual mode: an op modelled (or hung)
  /// past the deadline is marked kTimedOut at start + watchdog. Real mode:
  /// the check is post-hoc — an op whose wall time exceeds the deadline is
  /// marked kTimedOut and its results are treated as unusable (dependents
  /// cancelled), matching a system that already moved on when the op
  /// finally returned. Injecting kHang requires watchdog_ms > 0.
  double watchdog_ms = 0.0;
  /// Real mode: how long an injected hang sleeps before the executor
  /// declares it timed out. Must exceed watchdog_ms.
  double hang_sleep_ms = 20.0;
  /// When non-null and enabled, the executor adds one TraceEvent per op to
  /// this session after its lanes joined, built from the graph and the
  /// ExecutionResult on the calling thread (see obs/trace.hpp). Null — the
  /// default — costs one pointer test per execution.
  obs::TraceSession* trace = nullptr;
  /// Frame number stamped into the op trace events.
  int trace_frame = 0;
  /// Pool reservation guard (multi-session encode service): when non-null,
  /// every op in the graph must run on a device the lease covers — an op
  /// outside it means a scheduler handed work to another tenant's device,
  /// and both executors refuse the whole graph up front (FEVES_CHECK)
  /// rather than run it.
  const class DeviceLease* lease = nullptr;
};

/// Discrete-event execution against the devices' cost/link models. Fully
/// deterministic. Throws on a graph whose FIFO queues deadlock. Failed or
/// timed-out ops cancel their transitive dependents; independent ops still
/// execute, and the partial result is returned (never thrown).
ExecutionResult execute_virtual(const OpGraph& graph,
                                const PlatformTopology& topo,
                                const ExecuteOptions& opts = {});

/// Threaded execution running each op's `work` closure, measuring wall
/// time. Resource FIFO order and dependencies are honoured exactly as in
/// virtual mode, and fault/cancellation semantics mirror execute_virtual:
/// the same injected fault yields the same per-op statuses in both modes.
/// The caller drains one lane; every other non-empty lane runs on a thread
/// of lane_runtime(), parked between ops until the settling of its head
/// op's last dependency wakes it. Safe to call from several threads at
/// once; the runtime grows to the widest concurrent demand and no further.
ExecutionResult execute_real(const OpGraph& graph,
                             const PlatformTopology& topo,
                             const ExecuteOptions& opts = {});

}  // namespace feves
