#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int SpanLog::open(const char* name, double start_ms, int parent,
                  int session) {
  std::lock_guard lock(mu_);
  spans_.push_back({name, start_ms, start_ms - 1.0, parent, session});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id, double end_ms) {
  std::lock_guard lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = end_ms;
}

int SpanLog::add(const char* name, double start_ms, double end_ms, int parent,
                 int session) {
  std::lock_guard lock(mu_);
  spans_.push_back({name, start_ms, end_ms, parent, session});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& metadata_json) const {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,",
               metadata_json.c_str());
  std::fprintf(f, "\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ms < s.start_ms) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"session\":%d}}",
                 first ? "" : ",", s.name, s.session + 1, s.start_ms * 1e3,
                 (s.end_ms - s.start_ms) * 1e3, i, s.parent, s.session);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end_ms < s.start_ms) continue;
    children.at(static_cast<std::size_t>(s.parent))
        .emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (p.end_ms < p.start_ms) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = p.start_ms;  // covered up to here
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, p.end_ms);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (p.end_ms - p.start_ms) - covered;
  }
  return self;
}

}  // namespace perfbench
