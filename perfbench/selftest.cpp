// Self-tests of the benchmark's own arithmetic and input generation:
// percentiles and their sample-count rule, Jain's index, span self time,
// and that one seed generates identical inputs twice.
//
//   python3 perfbench/run.py --self-test
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

bool same_plane(const feves::PlaneU8& a, const feves::PlaneU8& b) {
  for (int y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row(y), b.row(y), static_cast<std::size_t>(a.width()))) {
      return false;
    }
  }
  return true;
}

bool same_clip(const perfbench::Clip& a, const perfbench::Clip& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_plane(a[i].y, b[i].y) || !same_plane(a[i].u, b[i].u) ||
        !same_plane(a[i].v, b[i].v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(near(quantile({5, 1, 4, 2, 3}, 0.5), 3.0), "median of 1..5 is 3");
  expect(near(quantile({0, 10}, 0.25), 2.5), "quantile interpolates");
  expect(near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0),
         "p90 of 1..11 is 10");
  expect(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");

  expect(!percentile_has_support(99, 90), "p90 needs 100 samples (99 fail)");
  expect(percentile_has_support(100, 90), "p90 with 100 samples");
  expect(!percentile_has_support(999, 99), "p99 needs 1000 samples");
  expect(percentile_has_support(1000, 99), "p99 with 1000 samples");
  expect(percentile_has_support(20, 50) && !percentile_has_support(19, 50),
         "p50 needs 20 samples");

  expect(near(jain_index({3, 3, 3, 3}), 1.0), "Jain: equal shares give 1");
  expect(near(jain_index({5, 0, 0, 0}), 0.25), "Jain: one of four gives 1/4");
  expect(near(jain_index({1, 2}), 0.9), "Jain: (1+2)^2 / (2*(1+4)) = 0.9");
  expect(jain_index({}) == 0.0, "Jain of nothing is 0");

  {
    std::vector<Span> s;
    s.push_back({"parent", 0, 10, -1, 0});
    s.push_back({"a", 1, 3, 0, 0});
    s.push_back({"b", 2, 5, 0, 0});       // overlaps a: [1,5] counted once
    s.push_back({"c", 7, 8, 0, 0});
    s.push_back({"late", 9, 12, 0, 0});   // clipped to the parent: [9,10]
    s.push_back({"grand", 7.2, 7.7, 3, 0});
    s.push_back({"open", 4, 3, 0, 0});    // never closed: ignored
    const std::vector<double> self = self_times(s);
    expect(near(self[0], 10 - 4 - 1 - 1), "self time: overlap and clipping");
    expect(near(self[3], 1 - 0.5), "self time: grandchild charged to child");
    expect(near(self[1], 2), "self time: leaf is its duration");
  }

  {
    feves::SyntheticConfig cfg = clip_config(64, 48, 42);
    cfg.frames = 5;
    const auto a = render_clip(cfg, 1);
    const auto b = render_clip(cfg, 3);
    expect(same_clip(*a, *b), "same seed renders identical inputs twice");
    feves::SyntheticConfig other = clip_config(64, 48, 43);
    other.frames = 5;
    expect(!same_clip(*a, *render_clip(other, 1)),
           "another seed renders other inputs");
  }

  const int order[] = {0, 1, 2, 1, 0, 1, 2};
  bool pp = true;
  for (int f = 0; f < 7; ++f) pp = pp && pingpong(f, 3) == order[f];
  expect(pp, "ping-pong order over a 3-frame clip");

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
