// feves_perf: one timed run of one benchmark workload against the real-mode
// encoder, followed by the bit-exactness gate.
//
//   feves_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--source-id <text>] [--trace-out <file.json>]
//              [--busy-cpus <n>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from spans the benchmark records around its calls into the program, the
// program's own FrameStats/telemetry, and a single-threaded codec replay).
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every session's output is bit-exact.
#include "env_stamp.hpp"
#include "platform/perf_model.hpp"
#include "platform/presets.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string trace_out;
  int busy_cpus = 0;  ///< CPUs the caller keeps busy (for the stamp)
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(v);
      if (a.seconds < 1 || a.seconds > 120) {
        throw std::invalid_argument("--seconds out of [1,120]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--busy-cpus") {
      a.busy_cpus = std::stoi(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / base / n/a, printed, not in JSON
};

/// Per-layer times that read 0 on some workload whatever the program does
/// (no encode_frame call to span inside the service) or on every workload
/// today (the real-mode
/// frame pipeline never overlaps a solve; PoolBig grants never wait). A time
/// that reads the same on every run is no measurement, so they are printed
/// with the others but kept out of the result line;
/// service.session_gap_ms (session-seen latency - tau_tot) carries the
/// off-loop time on every workload instead. Counts and ratios that do not
/// apply to a workload read 0 there.
bool printed_only(const std::string& name) {
  return name == "core.frame_ms" || name == "core.off_loop_ms" ||
         name == "sched.overlapped_ms" ||
         name == "service.grant_wait_ms_per_frame";
}

/// One session's frames inside the timed region.
struct Timeline {
  std::vector<int> index;         ///< stream frame numbers
  std::vector<double> pull_ms;    ///< when the program pulled each frame
  std::vector<double> latency_ms; ///< gap to the next pull (or stream end)
};

/// The session's committed frames pulled after the clock armed; with
/// `past_warmup`, only those past the session's own warm-up.
Timeline timeline(const SessionRun& s, const RunClock& clock,
                  bool past_warmup) {
  Timeline tl;
  const std::vector<Pull> pulls = s.source->pulls();
  const double armed = clock.armed_at();
  const double end = s.source->end_ms();
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    const Pull& p = pulls[i];
    if (armed < 0.0 || p.t_ms < armed) continue;
    if (past_warmup && p.index < clock.warmup()) continue;
    if (p.index >= static_cast<int>(s.frames.size())) continue;  // uncommitted
    const double next = i + 1 < pulls.size() ? pulls[i + 1].t_ms : end;
    if (next < p.t_ms) continue;
    tl.index.push_back(p.index);
    tl.pull_ms.push_back(p.t_ms);
    tl.latency_ms.push_back(next - p.t_ms);
  }
  return tl;
}

/// Frames committed per second in each of `slices` equal slices of
/// [t0, t1). Every frame counts the fraction of its pull-to-pull interval
/// that lies in a slice, so a slice need not hold whole frames.
std::vector<double> slice_rates(const std::vector<const Timeline*>& tls,
                                double t0, double t1, int slices) {
  const double d = (t1 - t0) / slices;
  std::vector<double> frames(static_cast<std::size_t>(slices), 0.0);
  for (const Timeline* tl : tls) {
    for (std::size_t i = 0; i < tl->index.size(); ++i) {
      const double b = tl->pull_ms[i], e = b + tl->latency_ms[i];
      if (e <= b) continue;
      for (int j = 0; j < slices; ++j) {
        const double lo = std::max(b, t0 + j * d);
        const double hi = std::min(e, t0 + (j + 1) * d);
        if (hi > lo) frames[static_cast<std::size_t>(j)] += (hi - lo) / (e - b);
      }
    }
  }
  for (double& f : frames) f *= 1e3 / d;
  return frames;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string fmt_short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void print_metric(const Metric& m) {
  std::printf("  %-32s %14s %-8s %s%s\n", m.name.c_str(),
              fmt_short(m.value).c_str(), m.unit.c_str(), m.note.c_str(),
              printed_only(m.name) ? " [printed only]" : "");
}

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;
};

int hw_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n == 0 ? 1u : n, 1u, 4u));
}

// ---- End-to-end metrics ---------------------------------------------------

constexpr int kSlices = 5;
/// Seconds of back-to-back set-ups timed before and again after the run.
constexpr double kSetupBatchSeconds = 1.5;

std::vector<Metric> end_to_end(const RunResult& run,
                               const std::vector<Timeline>& tls,
                               const RunClock& clock, int rss_frame,
                               const std::vector<double>& setup,
                               const Outcome& outcome) {
  std::vector<Metric> m;
  std::vector<double> lat;
  for (const Timeline& tl : tls) {
    lat.insert(lat.end(), tl.latency_ms.begin(), tl.latency_ms.end());
  }
  // Throughput counts every frame committed in the timed region, warm-up
  // frames of sessions that reached it late included.
  std::vector<Timeline> region;
  std::vector<const Timeline*> all;
  long frames = 0;
  for (const SessionRun& s : run.sessions) {
    region.push_back(timeline(s, clock, false));
    frames += static_cast<long>(region.back().index.size());
  }
  for (const Timeline& tl : region) all.push_back(&tl);
  // Rates are medians over slices of the timed region, so a burst of
  // interference in one slice does not move them.
  const double t0 = clock.armed_at();
  const double t1 = t0 + clock.seconds() * 1e3;
  const std::vector<double> agg = slice_rates(all, t0, t1, kSlices);
  const double fps = median(agg);
  double fps_min = -1.0;
  std::printf("fps by slice:");
  for (double r : agg) std::printf(" %.3f", r);
  std::printf("\nsession fps (median of slices):");
  for (const Timeline& tl : region) {
    const double r = median(slice_rates({&tl}, t0, t1, kSlices));
    fps_min = fps_min < 0.0 ? r : std::min(fps_min, r);
    std::printf(" %.3f", r);
  }
  std::printf("\n");
  const std::string n_sessions =
      std::to_string(tls.size()) + " session" + (tls.size() > 1 ? "s" : "");
  const std::string n_frames = "n=" + std::to_string(lat.size()) + " frames";
  m.push_back({"fps", fps, "1/s",
               "sum over " + n_sessions + ", median of " +
                   std::to_string(kSlices) + " slices, " + n_frames});
  m.push_back({"frame_ms_p50", median(lat), "ms", n_frames});
  m.push_back({"frame_ms_p90", quantile(lat, 0.9), "ms",
               n_frames + (percentile_has_support(lat.size(), 90.0)
                               ? ""
                               : "; under 100 samples, fewer than ten beyond "
                                 "p90: read as a tail estimate")});
  m.push_back({"session_fps_min", std::max(0.0, fps_min), "1/s",
               tls.size() > 1
                   ? "slowest of " + n_sessions + ", median of slices"
                   : "one session, so it equals fps"});
  const double cpu = run.cpu_end_ms - clock.cpu_at_arm_ms();
  m.push_back({"cpu_ms_per_frame",
               frames > 0 ? cpu / static_cast<double>(frames) : 0.0, "ms",
               "user+sys " + fmt_short(cpu) + " ms / " +
                   std::to_string(frames) + " frames"});
  const double rss_mark = clock.rss_at_mark_mb(static_cast<int>(tls.size()));
  m.push_back({"peak_rss_mb", rss_mark > 0 ? rss_mark : run.peak_rss_mb, "MB",
               rss_mark > 0 ? "when every session pulled frame " +
                                  std::to_string(rss_frame)
                            : "at end of timed run (a session ended before "
                              "frame " + std::to_string(rss_frame) + ")"});
  m.push_back({"setup_s", median(setup), "s",
               "median of " + std::to_string(setup.size()) +
                   " set-ups to first frame, timed for " +
                   fmt_short(kSetupBatchSeconds) +
                   " s before and again after the timed run"});
  m.push_back({"bitexact_frac",
               outcome.attempted > 0
                   ? static_cast<double>(outcome.attempted - outcome.failed) /
                         static_cast<double>(outcome.attempted)
                   : 0.0,
               "fraction",
               "failed_frac " +
                   fmt_short(outcome.attempted > 0
                                 ? static_cast<double>(outcome.failed) /
                                       static_cast<double>(outcome.attempted)
                                 : 1.0) +
                   " (" + std::to_string(outcome.failed) + "/" +
                   std::to_string(outcome.attempted) + " frames)"});
  return m;
}

// ---- Per-layer metrics ----------------------------------------------------

void print_calibration(const WorkloadSpec& spec, const ReplayTimes& r) {
  if (r.frames == 0 || r.ref_frame_ms <= 0.0) return;
  const double ref = r.ref_frame_ms;
  std::printf(
      "calibration (replay, %% of codec.ref_frame_ms = %.1f ms, %d frames): "
      "ME %.1f%%  INT %.1f%%  SME %.1f%%  R* %.1f%%  CAVLC %.1f%%  "
      "job set-up %.1f%%  ME+INT+SME %.1f%% (paper: ~90%%)\n",
      ref, r.frames, 100 * r.me_ms / ref, 100 * r.int_ms / ref,
      100 * r.sme_ms / ref, 100 * r.rstar_ms / ref, 100 * r.entropy_ms / ref,
      100 * r.prepare_ms / ref, 100 * (r.me_ms + r.int_ms + r.sme_ms) / ref);
  const feves::EncoderConfig& cfg = spec.sessions[0].cfg;
  const int rows = cfg.num_mb_rows();
  const int refs = cfg.num_ref_frames;
  std::map<std::string, bool> seen;
  const feves::PlatformTopology topo = feves::topology_by_name(spec.topology);
  for (const feves::DeviceSpec& d : topo.devices) {
    const std::string kind = d.name.substr(0, d.name.find('#'));  // GPU_K#2
    if (seen[kind]) continue;
    seen[kind] = true;
    const double me = feves::me_rows_ms(d, cfg, rows, refs);
    const double in = feves::int_rows_ms(d, cfg, rows);
    const double sme = feves::sme_rows_ms(d, cfg, rows, refs);
    const double rs = feves::rstar_ms(d, cfg);
    const double tot = me + in + sme + rs;
    std::printf(
        "calibration (virtual %s, session 0 config): ME %.1f%%  INT %.1f%%  "
        "SME %.1f%%  R* %.1f%%\n",
        kind.c_str(), 100 * me / tot, 100 * in / tot, 100 * sme / tot,
        100 * rs / tot);
  }
}

std::vector<Metric> per_layer(const WorkloadSpec& spec, const RunResult& run,
                              const std::vector<Timeline>& tls,
                              const RunClock& clock, const ReplayTimes& rep,
                              const std::vector<Span>& spans) {
  const bool direct = spec.entry == EntryPoint::kDirect;
  const bool service = spec.entry == EntryPoint::kService;
  const std::string na = "n/a on this workload";
  std::vector<Metric> m;

  // codec: single-thread replay of the workload's own frames.
  const std::string rep_n = "median of " + std::to_string(rep.frames) +
                            " replayed frames";
  m.push_back({"codec.me_ms", rep.me_ms, "ms", rep_n});
  m.push_back({"codec.sme_ms", rep.sme_ms, "ms", rep_n});
  m.push_back({"codec.int_ms", rep.int_ms, "ms", rep_n});
  m.push_back({"codec.rstar_ms", rep.rstar_ms, "ms", rep_n});
  m.push_back({"codec.entropy_ms", rep.entropy_ms, "ms", rep_n});
  m.push_back({"codec.prepare_ms", rep.prepare_ms, "ms",
               "EncodeJob set-up and release, " + rep_n});
  m.push_back({"codec.ref_frame_ms", rep.ref_frame_ms, "ms",
               "encode_frame_reference, " + rep_n});
  m.push_back({"codec.me_gops", rep.me_gops, "Gop/s",
               "computed: (2R+1)^2*256*MBs*RF / ME time, over the replay"});
  m.push_back({"codec.bytes_per_frame", rep.bytes, "bytes",
               "mean of " + std::to_string(rep.frames) + " replayed frames"});

  // Per timed frame: program-reported FrameStats next to the benchmark's
  // own timings.
  std::vector<double> frame_ms, tau, tau1, tau2, off_loop, gap, critical,
      overlapped, mispred, active;
  double retries = 0, lp_solves = 0, lp_skipped = 0, hits = 0, misses = 0;
  double busy_ms = 0, capacity_ms = 0;
  long n = 0;
  std::vector<double> lat_traced, lat_untraced;
  for (std::size_t k = 0; k < tls.size(); ++k) {
    const SessionRun& s = run.sessions[k];
    const Timeline& tl = tls[k];
    for (std::size_t i = 0; i < tl.index.size(); ++i) {
      const std::size_t f = static_cast<std::size_t>(tl.index[i]);
      const feves::FrameStats& fs = s.frames[f];
      const feves::obs::SchedTelemetry& t = fs.telemetry;
      ++n;
      tau.push_back(fs.total_ms);
      tau1.push_back(fs.tau1_ms);
      tau2.push_back(fs.tau2_ms);
      gap.push_back(tl.latency_ms[i] - fs.total_ms);
      if (direct) {
        frame_ms.push_back(s.encode_ms[f]);
        off_loop.push_back(s.encode_ms[f] - fs.total_ms);
      }
      retries += fs.retries;
      active.push_back(fs.active_devices);
      for (const feves::obs::DeviceTelemetry& d : t.dev) {
        busy_ms += d.me.measured_ms + d.interp.measured_ms + d.sme.measured_ms;
      }
      capacity_ms += fs.active_devices * fs.total_ms;
      critical.push_back(t.sched_critical_ms);
      overlapped.push_back(t.sched_overlapped_ms);
      lp_solves += t.lp_solves;
      lp_skipped += t.lp_skipped;
      hits += t.pipeline_hits;
      misses += t.pipeline_misses;
      mispred.push_back(t.misprediction());
      (clock.traced(tl.pull_ms[i]) ? lat_traced : lat_untraced)
          .push_back(tl.latency_ms[i]);
    }
  }
  const std::string nf = "median of " + std::to_string(n) + " timed frames";
  const double core_frame = median(frame_ms);
  m.push_back({"core.frame_ms", core_frame, "ms",
               direct ? "span around encode_frame, " + nf : na});
  m.push_back({"core.tau_tot_ms", median(tau), "ms", nf});
  m.push_back({"core.tau1_ms", median(tau1), "ms", nf});
  m.push_back({"core.tau2_ms", median(tau2), "ms", nf});
  m.push_back({"core.off_loop_ms", median(off_loop), "ms",
               direct ? "encode_frame span - tau_tot, " + nf : na});
  m.push_back({"core.speedup_vs_ref",
               direct && core_frame > 0 ? rep.ref_frame_ms / core_frame : 0.0,
               "ratio",
               direct ? "codec.ref_frame_ms " + fmt_short(rep.ref_frame_ms) +
                            " / core.frame_ms " + fmt_short(core_frame)
                      : na});
  m.push_back({"core.retries", retries, "count", "sum over timed frames"});
  m.push_back({"platform.active_devices", mean(active), "count",
               "mean over timed frames"});
  m.push_back({"platform.lane_idle_frac",
               capacity_ms > 0 ? 1.0 - busy_ms / capacity_ms : 0.0, "fraction",
               "1 - ME+INT+SME device-ms " + fmt_short(busy_ms) +
                   " / (devices x tau_tot) " + fmt_short(capacity_ms)});
  m.push_back({"sched.critical_ms", median(critical), "ms", nf});
  m.push_back({"sched.overlapped_ms", median(overlapped), "ms", nf});
  const double frames_n = static_cast<double>(n);
  m.push_back({"sched.lp_solves", n ? lp_solves / frames_n : 0.0, "1/frame",
               "mean over timed frames"});
  m.push_back({"sched.lp_skipped", n ? lp_skipped / frames_n : 0.0, "1/frame",
               "mean over timed frames"});
  m.push_back({"sched.pipeline_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction",
               "hits " + fmt_short(hits) + " / (hits+misses) " +
                   fmt_short(hits + misses)});
  m.push_back({"sched.misprediction", median(mispred), "fraction", nf});

  // service: arbiter accounting (virtual clocks) and recovery.
  double wait = 0, granted = 0, used = 0, restarts = 0;
  long share_frames = 0;
  std::vector<double> per_weight;
  for (std::size_t k = 0; k < run.sessions.size(); ++k) {
    const SessionRun& s = run.sessions[k];
    wait += s.share.queue_wait_ms;
    share_frames += s.share.frames;
    granted += s.share.granted_device_ms;
    used += s.share.used_device_ms;
    restarts += s.restarts;
    per_weight.push_back(s.share.granted_device_ms / spec.sessions[k].weight);
  }
  m.push_back({"service.grant_wait_ms_per_frame",
               service && share_frames
                   ? wait / static_cast<double>(share_frames)
                   : 0.0,
               "ms",
               service ? "arbiter queue_wait_ms / " +
                             std::to_string(share_frames) + " frames"
                       : na});
  m.push_back({"service.grant_utilization",
               service && granted > 0 ? used / granted : 0.0, "fraction",
               service ? "used / granted device-ms " + fmt_short(granted)
                       : na});
  m.push_back({"service.session_gap_ms", median(gap), "ms",
               "session-seen frame latency - tau_tot, " + nf});
  m.push_back({"service.share_jain", service ? jain_index(per_weight) : 0.0,
               "index",
               service ? "over granted_device_ms / weight, " +
                             std::to_string(per_weight.size()) + " sessions"
                       : na});
  m.push_back({"service.restarts", restarts, "count",
               service ? "sum over sessions" : na});

  // obs: traced quarters against the untraced ones around them.
  const double lt = mean(lat_traced), lu = mean(lat_untraced);
  m.push_back({"obs.trace_overhead_pct",
               lu > 0 && lt > 0 ? 100.0 * (lt / lu - 1.0) : 0.0, "%",
               "mean frame latency traced (" +
                   std::to_string(lat_traced.size()) + ") vs untraced (" +
                   std::to_string(lat_untraced.size()) + ") quarters"});

  // video: the benchmark's own VideoSource::read_frame, by span self time.
  const std::vector<double> self = self_times(spans);
  std::vector<double> reads;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "video.read_frame") == 0) {
      reads.push_back(self[i]);
    }
  }
  m.push_back({"video.read_ms", median(reads), "ms",
               "self time of read_frame spans, median of " +
                   std::to_string(reads.size())});
  return m;
}

/// Self time by span name: what the traced run spent in each layer's calls.
void print_span_summary(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::array<double, 3>> by_name;  // count, total, self
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ms < spans[i].start_ms) continue;
    auto& e = by_name[spans[i].name];
    e[0] += 1;
    e[1] += spans[i].end_ms - spans[i].start_ms;
    e[2] += self[i];
  }
  std::printf("spans (name, count, total ms, self ms):\n");
  for (const auto& [name, e] : by_name) {
    std::printf("  %-24s %8.0f %12.2f %12.2f\n", name.c_str(), e[0], e[1],
                e[2]);
  }
}

/// Layer accounting on the direct workloads. Every traced session-seen
/// frame (pull to next pull, timed by the benchmark's VideoSource) must be
/// covered within 5% by the parts timed independently inside it: the
/// read_frame span and the span around encode_frame. The replayed codec
/// modules must add up to encode_frame_reference within 5% as well.
void accounting_checks(const std::vector<Span>& spans, const ReplayTimes& rep) {
  std::vector<double> parts(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ms >= s.start_ms) {
      parts[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  double seen = 0.0, covered = 0.0;
  int frames = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.name, "session.frame") != 0 || s.end_ms < s.start_ms) {
      continue;
    }
    seen += s.end_ms - s.start_ms;
    covered += parts[i];
    ++frames;
  }
  const double e1 = seen > 0 ? std::abs(covered - seen) / seen : 1.0;
  if (frames == 0) {
    std::printf("check skipped: no traced frame to account for\n");
  } else {
    std::printf("%s: read_frame + encode_frame spans = %.2f ms vs "
                "session-seen frame time %.2f ms, summed over %d traced "
                "frames (%.1f%%, limit 5%%)\n",
                e1 <= 0.05 ? "check ok" : "WARNING", covered, seen, frames,
                100 * e1);
  }
  const double e2 = std::abs(rep.module_to_ref - 1.0);
  if (rep.frames == 0) {
    std::printf("check skipped: no replayed frame\n");
    return;
  }
  std::printf("%s: codec module sum (incl. job set-up) / codec.ref_frame_ms "
              "= %.3f, ratio of totals over %d frames (%.1f%%, limit 5%%)\n",
              e2 <= 0.05 ? "check ok" : "WARNING", rep.module_to_ref,
              rep.frames, 100 * e2);
}

/// Folds the stream checks and session states into the run's verdict.
Outcome gate(const RunResult& run, const std::vector<StreamCheck>& checks) {
  Outcome outcome;
  for (std::size_t k = 0; k < run.sessions.size(); ++k) {
    const SessionRun& s = run.sessions[k];
    const long pulled = static_cast<long>(s.source->pulls().size());
    if (!s.completed) {
      // A failed or shed session counts every frame it was given.
      outcome.attempted += std::max<long>(pulled, 1);
      outcome.failed += std::max<long>(pulled, 1);
      outcome.problems.push_back("session " + std::to_string(k) +
                                 " did not complete: " + s.error);
      continue;
    }
    outcome.attempted += checks[k].frames_checked;
    outcome.failed += checks[k].frames_failed;
    if (!checks[k].ok()) {
      outcome.problems.push_back("session " + std::to_string(k) + ": " +
                                 checks[k].error);
    }
    if (pulled != static_cast<long>(s.frames.size())) {
      outcome.problems.push_back(
          "session " + std::to_string(k) + " pulled " + std::to_string(pulled) +
          " frames, committed " + std::to_string(s.frames.size()));
    }
  }
  if (run.last_recon != nullptr && !checks.empty() &&
      !checks[0].decoded.recon.empty() &&
      !same_pixels(checks[0].decoded.recon.back(), *run.last_recon)) {
    outcome.problems.push_back(
        "decode_frame round trip differs from the encoder's last_recon()");
  }
  if (outcome.attempted == 0) outcome.problems.push_back("no frame encoded");
  outcome.correct = outcome.problems.empty() && outcome.failed == 0;
  return outcome;
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload, args.seed);
  const int threads = hw_threads();
  const std::string env =
      env_stamp_json(args.source_id, args.workload, args.seed, args.seconds,
                     args.trace, args.busy_cpus);
  std::printf("feves_perf %s seed=%llu seconds=%d trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("env: %s\n", env.c_str());

  // Inputs: generated from the seed, rendered before anything is timed.
  std::vector<std::shared_ptr<const Clip>> clips;
  for (const SessionSpec& s : spec.sessions) {
    feves::SyntheticConfig sc = clip_config(s.cfg.width, s.cfg.height, s.seed);
    sc.frames = spec.clip_frames;
    clips.push_back(render_clip(sc, threads));
  }

  // Set-up is timed in two batches, before and after the timed run. The
  // host's single-thread speed shifts by up to half over tens to hundreds
  // of milliseconds on a shared virtual machine, so a set-up of a few
  // milliseconds is sampled over seconds, not once.
  const double probe_before = host_probe_ms();
  std::vector<double> setup = measure_setup(spec, clips, kSetupBatchSeconds);

  SpanLog spans;
  RunClock clock(spec.warmup, args.seconds, args.trace, spec.rss_frame);
  const RunResult run =
      run_workload(spec, clips, &clock, args.trace ? &spans : nullptr);
  const std::vector<double> setup_after =
      measure_setup(spec, clips, kSetupBatchSeconds);
  std::printf("setup before the run: median %.3f ms of %zu; after: median "
              "%.3f ms of %zu\n",
              median(setup) * 1e3, setup.size(), median(setup_after) * 1e3,
              setup_after.size());
  setup.insert(setup.end(), setup_after.begin(), setup_after.end());
  std::printf("host probe (fixed benchmark-owned loop, moves with the host's "
              "speed only): %.3f ms before the run, %.3f ms after\n",
              probe_before, host_probe_ms());

  // Correctness gate.
  std::vector<StreamToVerify> streams;
  for (std::size_t k = 0; k < run.sessions.size(); ++k) {
    const SessionRun& s = run.sessions[k];
    streams.push_back({spec.sessions[k].cfg, clips[k], &s.bitstream,
                       static_cast<int>(s.frames.size())});
  }
  const std::vector<StreamCheck> checks = verify_streams(streams, threads);
  Outcome outcome = gate(run, checks);
  std::printf("correctness: %ld of %ld frames bit-exact against "
              "encode_frame_reference%s\n",
              outcome.attempted - outcome.failed, outcome.attempted,
              run.last_recon != nullptr ? "; decode round trip checked" : "");
  for (const std::string& p : outcome.problems) {
    std::printf("FAIL: %s\n", p.c_str());
  }

  std::vector<Timeline> tls;
  for (const SessionRun& s : run.sessions) {
    tls.push_back(timeline(s, clock, true));
  }
  for (std::size_t k = 0; k < tls.size(); ++k) {
    std::printf("session %zu: %zu timed frames\n", k, tls[k].index.size());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(run, tls, clock, spec.rss_frame, setup, outcome);
    std::printf("end-to-end metrics:\n");
  } else {
    // Codec replay: session 0's first timed frames, after one untimed
    // pass that brings caches and page tables back from the parallel
    // correctness gate.
    ReplaySamples samples;
    std::vector<int> frames;
    for (int i = 0; i < spec.replay_frames; ++i) {
      const int f = spec.warmup + i;
      if (f < streams[0].frames) frames.push_back(f);
    }
    if (checks[0].ok() && run.sessions[0].completed && !frames.empty()) {
      ReplaySamples discard;
      replay_frames(streams[0], checks[0].decoded, {frames[0]}, nullptr,
                    &discard);
      replay_frames(streams[0], checks[0].decoded, frames, &spans, &samples);
    }
    const ReplayTimes rep = summarize(samples);
    if (rep.mismatches > 0) {
      outcome.correct = false;
      std::printf("FAIL: %d replayed frames differ from the session bytes\n",
                  rep.mismatches);
    }
    const std::vector<Span> all = spans.snapshot();
    metrics = per_layer(spec, run, tls, clock, rep, all);
    print_calibration(spec, rep);
    print_span_summary(all);
    if (spec.entry == EntryPoint::kDirect) accounting_checks(all, rep);
    if (!args.trace_out.empty()) {
      if (!spans.write_chrome_trace(args.trace_out, env)) {
        std::printf("WARNING: could not write %s\n", args.trace_out.c_str());
      } else {
        std::printf("trace: %s (%zu spans)\n", args.trace_out.c_str(),
                    all.size());
      }
    }
    std::printf("per-layer metrics:\n");
  }
  for (const Metric& m : metrics) print_metric(m);

  std::string json = std::string("{\"correct\": ") +
                     (outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (printed_only(m.name)) continue;
    json += sep;
    json += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feves_perf: %s\n", e.what());
    return 2;
  }
}
