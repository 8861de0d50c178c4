// In-memory span log for the traced run. Spans are recorded by the
// benchmark around its calls into the program (encode_frame, the service
// and manager submit/wait, its own VideoSource::read_frame, the codec
// replay); nothing inside the program is instrumented. The log is written
// out as Chrome trace-event JSON when the run ends.
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  double start_ms = 0.0;
  double end_ms = -1.0;   ///< < start_ms while the span is still open
  int parent = -1;        ///< index of the enclosing span, -1 = root
  int session = -1;       ///< encode session, -1 = benchmark thread
};

class SpanLog {
 public:
  /// Opens a span and returns its id (for close() and as a parent).
  int open(const char* name, double start_ms, int parent, int session);
  void close(int id, double end_ms);
  /// Records a complete span.
  int add(const char* name, double start_ms, double end_ms, int parent,
          int session);

  std::vector<Span> snapshot() const;

  /// Writes the closed spans as Chrome trace JSON (one track per session),
  /// with `metadata_json` (a JSON object) under "otherData".
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its (closed) children, overlapping children counted once.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
