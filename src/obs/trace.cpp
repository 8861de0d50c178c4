#include "obs/trace.hpp"

#include <algorithm>

namespace feves::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kKernel:
      return "kernel";
    case EventKind::kTransfer:
      return "transfer";
    case EventKind::kLpSolve:
      return "lp_solve";
    case EventKind::kSched:
      return "sched";
    case EventKind::kMark:
      return "mark";
  }
  return "?";
}

const char* to_string(EventStatus status) {
  switch (status) {
    case EventStatus::kOk:
      return "ok";
    case EventStatus::kFailed:
      return "failed";
    case EventStatus::kTimedOut:
      return "timed-out";
    case EventStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

void TraceSession::add_host_event(int frame, const char* name, EventKind kind,
                                  double dur_ms, int lane) {
  if (!enabled_) return;
  TraceEvent e;
  e.set_name(name);
  e.kind = kind;
  e.frame = frame;
  e.device = -1;
  e.lane = lane;
  e.session = session_;
  if (lane == kLanePipeline) {
    // Overlapped scheduling: backdated into the execution span just added,
    // origin untouched. The shadow started with that execution, so a
    // measured cost longer than the span (virtual spans are modelled, not
    // wall time) must not spill into earlier frames.
    e.t_end_ms = origin_ms_;
    e.t_start_ms =
        std::max(execution_start_ms_, origin_ms_ - std::max(0.0, dur_ms));
    sink.add_event(e);
    return;
  }
  e.t_start_ms = origin_ms_;
  e.t_end_ms = origin_ms_ + std::max(0.0, dur_ms);
  sink.add_event(e);
  origin_ms_ = e.t_end_ms;
}

void TraceSession::add_execution(const std::vector<TraceEvent>& events) {
  if (!enabled_) return;
  execution_start_ms_ = origin_ms_;
  double span_end = origin_ms_;
  for (TraceEvent e : events) {
    e.t_start_ms += origin_ms_;
    e.t_end_ms += origin_ms_;
    e.session = session_;
    span_end = std::max(span_end, e.t_end_ms);
    sink.add_event(e);
  }
  origin_ms_ = span_end;
}

}  // namespace feves::obs
