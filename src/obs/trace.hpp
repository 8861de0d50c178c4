// Orchestration tracing: every op the executors run (kernels, DMA
// transfers), every LP solve and every scheduling phase becomes a
// TraceEvent in a TraceSession's sink, which serializes them to Chrome
// trace-event JSON (chrome://tracing / Perfetto), one track per
// device×lane, so the compute/PCIe overlap of the paper's Figs. 4-5 is
// visually checkable.
//
// Op events are built after the fact: once an executor has joined its
// lanes, it turns the graph plus its ExecutionResult into one event per op
// on the calling thread (platform/op_graph.cpp). Nothing is emitted while
// lanes run, so the session needs no synchronization: every add happens on
// the frame loop's thread.
//
// Cost contract: tracing is compiled in but runtime-gated. With no session
// attached an execution pays one pointer test; with a session attached but
// disabled, one more flag test. Enabled, the executor copies one event per
// op into the sink after the join — off the lanes' critical path.
#pragma once

#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

namespace feves::obs {

enum class EventKind : unsigned char {
  kKernel,    ///< compute op (ME/INT/SME/R*)
  kTransfer,  ///< DMA transfer on a copy engine
  kLpSolve,   ///< one lp::solve call inside the load balancer
  kSched,     ///< host-side scheduling/planning phase
  kMark,      ///< frame boundary / annotation
};

/// Terminal state of a traced op — mirrors OpStatus (obs sits below the
/// platform layer in the link order, so it cannot include op_graph.hpp).
enum class EventStatus : unsigned char { kOk, kFailed, kTimedOut, kCancelled };

const char* to_string(EventKind kind);
const char* to_string(EventStatus status);

/// Serial execution lanes per device, matching the executors' FIFO queues.
/// Single-copy-engine devices fold D2H into the H2D lane (one DMA unit).
inline constexpr int kLaneCompute = 0;
inline constexpr int kLaneCopyH2D = 1;
inline constexpr int kLaneCopyD2H = 2;
inline constexpr int kLaneHost = 3;  ///< orchestration (LP, planning, marks)
inline constexpr int kLanePipeline = 4;  ///< scheduling overlapped with the
                                         ///< previous frame's execution
inline constexpr int kLaneResilience = 5;  ///< checkpoint / restart / backoff
                                           ///< activity of the encode service
inline constexpr int kLaneCluster = 6;  ///< cluster tier: dispatch / fence /
                                        ///< reassign / node-death marks

/// One traced interval. Fixed-size (no heap): the name is a truncated copy.
struct TraceEvent {
  static constexpr int kNameCapacity = 23;

  char name[kNameCapacity + 1] = {};  ///< NUL-terminated, truncated label
  double t_start_ms = 0.0;
  double t_end_ms = 0.0;
  double bytes = 0.0;  ///< transfer payload (0 for kernels/host events)
  int frame = 0;       ///< inter-frame number the event belongs to
  int device = -1;     ///< owning device; -1 = host orchestration
  int lane = kLaneHost;
  int rows = 0;        ///< MB rows the op covers (0 when not row-shaped)
  int session = -1;    ///< encode-service session id; -1 = standalone run
  EventKind kind = EventKind::kMark;
  EventStatus status = EventStatus::kOk;

  void set_name(const char* s) {
    std::strncpy(name, s == nullptr ? "" : s, kNameCapacity);
    name[kNameCapacity] = '\0';
  }
  double duration_ms() const { return t_end_ms - t_start_ms; }
};

/// Frame-oriented event store with Chrome trace-event JSON export. One
/// track per device×lane: pid = device + 1 (pid 0 is the host), tid = lane.
class TraceSink {
 public:
  void add_event(const TraceEvent& e) { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Track naming in the exported JSON ("dev0 CPU_N" etc.).
  void set_device_name(int device, std::string name);

  /// Serializes everything collected so far as Chrome trace-event JSON.
  void write_chrome_trace(std::ostream& os) const;

  /// write_chrome_trace to `path`; returns false when the file won't open.
  bool save(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> device_names_;
};

/// Everything a framework needs to trace one encode run: the sink that
/// accumulates frames, the runtime gate, and the timeline origin that
/// rebases each execution's local t=0 clock so consecutive frames (and
/// retried attempts) tile one global timeline instead of overlapping at
/// zero. Not thread-safe: every add runs on the frame loop's thread.
class TraceSession {
 public:
  explicit TraceSession(bool enabled = true) : enabled_(enabled) {}

  TraceSink sink;

  /// Runtime gate: while disabled, every add is a no-op.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double origin_ms() const { return origin_ms_; }

  /// Session dimension for multi-tenant runs: when >= 0, every event added
  /// to the sink is stamped with this id, and the Chrome export gives each
  /// (session, device) pair its own process track. Set once, before the
  /// framework using this session starts encoding.
  void set_session(int id) { session_ = id; }
  int session() const { return session_; }

  /// Records a host-side orchestration interval of `dur_ms`. On the default
  /// kLaneHost lane the event starts at the current origin and advances the
  /// origin past it (host phases serialize). On kLanePipeline the event is
  /// placed ENDING at the current origin — it models work that ran in the
  /// shadow of the execution just added, so it starts no earlier than that
  /// execution — and the origin does not move, so overlapped scheduling
  /// never inflates the timeline.
  void add_host_event(int frame, const char* name, EventKind kind,
                      double dur_ms, int lane = kLaneHost);

  /// Adds one finished execution's events (times relative to its t=0):
  /// rebases them at the current origin, stamps the session id, hands them
  /// to the sink and advances the origin to the rebased span's end.
  void add_execution(const std::vector<TraceEvent>& events);

 private:
  bool enabled_;
  double origin_ms_ = 0.0;
  double execution_start_ms_ = 0.0;  ///< origin when the last execution
                                     ///< was added
  int session_ = -1;
};

}  // namespace feves::obs
