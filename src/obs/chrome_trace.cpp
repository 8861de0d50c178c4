// Chrome trace-event JSON export (the "JSON Array Format" both
// chrome://tracing and Perfetto load). Every event becomes a complete ("X")
// slice; metadata events name the tracks so the UI shows one process per
// device and one thread per resource lane.
#include "obs/trace.hpp"

#include "common/check.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace feves::obs {

namespace {

/// Minimal JSON string escaping (labels are ASCII op names, but stay safe).
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

/// pid 0 is the host/orchestrator; devices map to pid = device + 1. Events
/// carrying a session id (multi-tenant encode-service runs) get a disjoint
/// pid block per session so one merged export shows every session's view of
/// the shared devices side by side.
constexpr int kSessionPidStride = 100;
int pid_of(const TraceEvent& e) {
  const int base = e.device + 1;
  return e.session < 0 ? base : (e.session + 1) * kSessionPidStride + base;
}

/// Microsecond timestamps at fixed nanosecond resolution. The default
/// ostream 6-significant-digit float formatting loses absolute precision as
/// the timeline grows, which shows up as phantom sub-ns lane overlaps in
/// round-trip consumers.
void write_us(std::ostream& os, double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  os << buf;
}

const char* lane_name(int lane) {
  switch (lane) {
    case kLaneCompute:
      return "compute";
    case kLaneCopyH2D:
      return "copyH2D";
    case kLaneCopyD2H:
      return "copyD2H";
    case kLaneHost:
      return "host";
    case kLanePipeline:
      return "pipeline";
    case kLaneResilience:
      return "resilience";
    case kLaneCluster:
      return "cluster";
  }
  return "lane?";
}

void write_metadata(std::ostream& os, int pid, int tid, const char* what,
                    const std::string& name, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "  {\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"";
  write_escaped(os, name.c_str());
  os << "\"}}";
}

}  // namespace

void TraceSink::set_device_name(int device, std::string name) {
  FEVES_CHECK(device >= 0);
  if (device >= static_cast<int>(device_names_.size())) {
    device_names_.resize(static_cast<std::size_t>(device) + 1);
  }
  device_names_[device] = std::move(name);
}

void TraceSink::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Track naming: which (pid, tid) pairs actually carry events.
  std::vector<std::pair<int, int>> tracks;
  for (const TraceEvent& e : events_) {
    const std::pair<int, int> key{pid_of(e), e.lane};
    bool seen = false;
    for (const auto& t : tracks) seen |= t == key;
    if (!seen) tracks.push_back(key);
  }
  std::vector<int> named_pids;
  for (const auto& [pid, tid] : tracks) {
    bool seen = false;
    for (int p : named_pids) seen |= p == pid;
    if (!seen) {
      named_pids.push_back(pid);
      const int session = pid >= kSessionPidStride ? pid / kSessionPidStride - 1 : -1;
      const int device = pid % kSessionPidStride - 1;
      std::string pname = "host";
      if (device >= 0) {
        pname = "dev" + std::to_string(device);
        if (device < static_cast<int>(device_names_.size()) &&
            !device_names_[device].empty()) {
          pname += " " + device_names_[device];
        }
      }
      if (session >= 0) pname = "s" + std::to_string(session) + " " + pname;
      write_metadata(os, pid, -1, "process_name", pname, &first);
      // Sorting by pid keeps the host track on top and devices in order.
      if (!first) os << ",\n";
      os << "  {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"args\":{\"sort_index\":" << pid << "}}";
    }
    write_metadata(os, pid, tid, "thread_name", lane_name(tid), &first);
  }

  for (const TraceEvent& e : events_) {
    if (!first) os << ",\n";
    first = false;
    // Chrome trace timestamps are in microseconds.
    const double ts_us = e.t_start_ms * 1000.0;
    const double dur_us = std::max(0.0, e.duration_ms()) * 1000.0;
    os << "  {\"name\":\"";
    write_escaped(os, e.name);
    os << "\",\"ph\":\"X\",\"pid\":" << pid_of(e) << ",\"tid\":" << e.lane
       << ",\"ts\":";
    write_us(os, ts_us);
    os << ",\"dur\":";
    write_us(os, dur_us);
    if (e.status != EventStatus::kOk) {
      // Highlight non-ok ops in the viewer (cname is a Chrome legacy hint;
      // Perfetto keeps it in args).
      os << ",\"cname\":\""
         << (e.status == EventStatus::kCancelled ? "grey" : "terrible")
         << "\"";
    }
    os << ",\"args\":{\"frame\":" << e.frame << ",\"session\":" << e.session
       << ",\"rows\":" << e.rows << ",\"bytes\":" << e.bytes << ",\"kind\":\""
       << to_string(e.kind) << "\",\"status\":\"" << to_string(e.status)
       << "\"}}";
  }
  os << "\n]}\n";
}

bool TraceSink::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return static_cast<bool>(os);
}

}  // namespace feves::obs
