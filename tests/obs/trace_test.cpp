// Observability layer: session mechanics, the executors' after-the-join op
// events, Chrome trace-event export, and the full round trip in both modes
// — encode frames with a fault injected, export the trace, parse it back,
// and check the timeline invariants the executors guarantee (serial lanes
// never overlap, failed ops carry their status, frames tile the global
// timeline in order).
#include "obs/trace.hpp"

#include "core/collaborative_encoder.hpp"
#include "core/framework.hpp"
#include "obs/telemetry.hpp"
#include "platform/op_graph.hpp"
#include "platform/presets.hpp"
#include "video/sequence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace feves {
namespace {

EncoderConfig small_config(int refs = 2) {
  EncoderConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.search_range = 8;
  cfg.num_ref_frames = refs;
  return cfg;
}

// Enough MB rows (45) that the LP's continuous split is not dominated by
// integer-row quantization — needed when asserting prediction accuracy.
// Virtual mode never touches pixels, so the resolution costs nothing.
EncoderConfig hd_ish_config(int refs = 2) {
  EncoderConfig cfg;
  cfg.width = 1280;
  cfg.height = 720;
  cfg.search_range = 8;
  cfg.num_ref_frames = refs;
  return cfg;
}

PlatformTopology test_topo(int accels) {
  PlatformTopology t;
  t.devices.push_back(preset_cpu_nehalem());
  for (int i = 0; i < accels; ++i) {
    auto g = preset_gpu_fermi();
    g.name = "GPU#" + std::to_string(i);
    t.devices.push_back(g);
  }
  return t;
}

// ---- TraceEvent / TraceSession mechanics ---------------------------------

TEST(TraceEvent, NameIsTruncatedAndTerminated) {
  obs::TraceEvent e;
  e.set_name("a_very_long_op_label_well_past_the_fixed_capacity");
  EXPECT_EQ(std::string(e.name).size(), obs::TraceEvent::kNameCapacity);
  e.set_name(nullptr);
  EXPECT_STREQ(e.name, "");
}

TEST(TraceSession, SessionDimensionStampsFoldedEvents) {
  obs::TraceSession session;
  session.set_session(3);
  session.add_host_event(1, "sched", obs::EventKind::kSched, 1.0);
  obs::TraceEvent e;
  e.device = 0;
  e.t_end_ms = 2.0;
  session.add_execution({e});
  ASSERT_EQ(session.sink.size(), 2u);
  for (const auto& ev : session.sink.events()) {
    EXPECT_EQ(ev.session, 3);
  }
  // The execution was rebased past the host event and moved the origin.
  EXPECT_DOUBLE_EQ(session.sink.events()[1].t_start_ms, 1.0);
  EXPECT_DOUBLE_EQ(session.origin_ms(), 3.0);
}

TEST(TraceSession, HostEventsSerializeOnTheHostLane) {
  obs::TraceSession session;
  session.add_host_event(1, "lp_solve", obs::EventKind::kLpSolve, 2.0);
  session.add_host_event(1, "sched", obs::EventKind::kSched, 1.0);
  EXPECT_DOUBLE_EQ(session.origin_ms(), 3.0);
  ASSERT_EQ(session.sink.size(), 2u);
  const auto& ev = session.sink.events();
  EXPECT_EQ(ev[0].device, -1);
  EXPECT_EQ(ev[0].lane, obs::kLaneHost);
  EXPECT_DOUBLE_EQ(ev[0].t_start_ms, 0.0);
  EXPECT_DOUBLE_EQ(ev[0].t_end_ms, 2.0);
  EXPECT_DOUBLE_EQ(ev[1].t_start_ms, 2.0);
  EXPECT_DOUBLE_EQ(ev[1].t_end_ms, 3.0);
}

// ---- op events built from the finished ExecutionResult --------------------

/// A SysNFF-shaped frame: the CPU runs a kernel in place; each accelerator
/// uploads, runs a kernel and downloads; an R* kernel on the CPU needs
/// every download. Labels are unique, so an event names its op.
struct NffFrame {
  OpGraph graph;
  int kernel2 = -1;    ///< device 2's kernel
  int download2 = -1;  ///< device 2's download (depends on kernel2)
  int rstar = -1;      ///< CPU merge (depends on every download)
};

NffFrame nff_frame(const PlatformTopology& topo) {
  const auto op = [](std::string label, int device, OpResource res,
                     double ms, std::vector<int> deps) {
    Op o;
    o.label = std::move(label);
    o.device = device;
    o.resource = res;
    o.virtual_ms = ms;
    o.deps = std::move(deps);
    o.rows = res == OpResource::kCompute ? 4 : 0;
    o.bytes = res == OpResource::kCompute ? 0.0 : 2048.0;
    return o;
  };
  NffFrame f;
  const int cpu = f.graph.add(op("me0", 0, OpResource::kCompute, 3.0, {}));
  std::vector<int> merge_deps = {cpu};
  for (int d = 1; d < topo.num_devices(); ++d) {
    const std::string dev = std::to_string(d);
    const int up =
        f.graph.add(op("up" + dev, d, OpResource::kCopyH2D, 0.5, {}));
    const int kern =
        f.graph.add(op("me" + dev, d, OpResource::kCompute, 1.5, {up}));
    const int down =
        f.graph.add(op("down" + dev, d, OpResource::kCopyD2H, 0.5, {kern}));
    merge_deps.push_back(down);
    if (d == 2) {
      f.kernel2 = kern;
      f.download2 = down;
    }
  }
  f.rstar = f.graph.add(op("rstar", 0, OpResource::kCompute, 2.0, merge_deps));
  return f;
}

TEST(ExecutorTrace, OneEventPerOpFromTheResultInBothExecutors) {
  const PlatformTopology topo = make_sys_nff();
  const NffFrame f = nff_frame(topo);
  FaultSchedule faults;
  faults.add({/*device=*/2, 0, kFaultForever, FaultKind::kKernelTransient});
  std::map<std::string, int> id_of;
  for (int id = 0; id < f.graph.size(); ++id) {
    id_of[f.graph.ops()[id].label] = id;
  }

  for (const bool real : {false, true}) {
    SCOPED_TRACE(real ? "execute_real" : "execute_virtual");
    obs::TraceSession session;
    ExecuteOptions opts;
    opts.faults = faults.plan(0, topo.num_devices());
    opts.trace = &session;
    opts.trace_frame = 7;
    const ExecutionResult result = real ? execute_real(f.graph, topo, opts)
                                        : execute_virtual(f.graph, topo, opts);

    // Exactly one event per op id, each a copy of that op's outcome.
    ASSERT_EQ(static_cast<int>(session.sink.size()), f.graph.size());
    std::vector<int> seen(static_cast<std::size_t>(f.graph.size()), 0);
    for (const obs::TraceEvent& e : session.sink.events()) {
      const auto it = id_of.find(e.name);
      ASSERT_NE(it, id_of.end()) << e.name;
      const int id = it->second;
      const Op& op = f.graph.ops()[id];
      const OpTimes& t = result.times[id];
      ++seen[id];
      EXPECT_STREQ(obs::to_string(e.status), to_string(result.status[id]))
          << e.name;
      EXPECT_DOUBLE_EQ(e.t_start_ms, t.start_ms) << e.name;
      EXPECT_DOUBLE_EQ(e.duration_ms(), t.end_ms - t.start_ms) << e.name;
      EXPECT_EQ(e.device, op.device) << e.name;
      EXPECT_EQ(e.lane == obs::kLaneCompute,
                op.resource == OpResource::kCompute)
          << e.name;
      EXPECT_EQ(e.kind, op.resource == OpResource::kCompute
                            ? obs::EventKind::kKernel
                            : obs::EventKind::kTransfer)
          << e.name;
      EXPECT_EQ(e.rows, op.rows) << e.name;
      EXPECT_DOUBLE_EQ(e.bytes, op.bytes) << e.name;
      EXPECT_EQ(e.frame, 7) << e.name;
    }
    for (int id = 0; id < f.graph.size(); ++id) {
      EXPECT_EQ(seen[id], 1) << f.graph.ops()[id].label;
    }

    // Device 2's kernel failed; its download and the R* merge that needs
    // it were cancelled and show as such.
    EXPECT_EQ(result.status[f.kernel2], OpStatus::kFailed);
    EXPECT_EQ(result.status[f.download2], OpStatus::kCancelled);
    EXPECT_EQ(result.status[f.rstar], OpStatus::kCancelled);
    int cancelled = 0;
    for (const obs::TraceEvent& e : session.sink.events()) {
      if (e.status == obs::EventStatus::kCancelled) ++cancelled;
      if (e.status == obs::EventStatus::kFailed) {
        EXPECT_EQ(e.device, 2) << e.name;
      }
    }
    EXPECT_EQ(cancelled, 2);
    // The session origin moved to the end of the execution's span.
    EXPECT_DOUBLE_EQ(session.origin_ms(), result.makespan_ms);
  }
}

TEST(ExecutorTrace, DisabledSessionGetsNoOpEvents) {
  const PlatformTopology topo = make_sys_nff();
  const NffFrame f = nff_frame(topo);
  for (const bool real : {false, true}) {
    obs::TraceSession session(/*enabled=*/false);
    ExecuteOptions opts;
    opts.trace = &session;
    const ExecutionResult result = real ? execute_real(f.graph, topo, opts)
                                        : execute_virtual(f.graph, topo, opts);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(session.sink.size(), 0u);
    EXPECT_DOUBLE_EQ(session.origin_ms(), 0.0);
  }
}

// ---- minimal Chrome trace JSON parser (format under test is ours) ---------

/// Splits the top-level objects of the first JSON array in `json`, honoring
/// strings and escapes, so the test re-parses what the sink wrote rather
/// than trusting line layout.
std::vector<std::string> split_objects(const std::string& json) {
  std::vector<std::string> out;
  const std::size_t start = json.find('[');
  if (start == std::string::npos) return out;
  int depth = 0;
  bool in_str = false, esc = false;
  std::size_t obj_begin = 0;
  for (std::size_t i = start + 1; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{') {
      if (depth == 0) obj_begin = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) out.push_back(json.substr(obj_begin, i - obj_begin + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

std::string str_field(const std::string& obj, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  std::size_t p = obj.find(pat);
  if (p == std::string::npos) return {};
  p += pat.size();
  std::string out;
  for (; p < obj.size(); ++p) {
    if (obj[p] == '\\' && p + 1 < obj.size()) {
      out += obj[++p];
      continue;
    }
    if (obj[p] == '"') break;
    out += obj[p];
  }
  return out;
}

double num_field(const std::string& obj, const std::string& key,
                 double def = -1.0) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = obj.find(pat);
  if (p == std::string::npos) return def;
  return std::strtod(obj.c_str() + p + pat.size(), nullptr);
}

struct ParsedEvent {
  std::string name, ph, kind, status;
  int pid = -1, tid = -1, frame = -1;
  double ts = 0.0, dur = 0.0;
};

std::vector<ParsedEvent> parse_trace(const std::string& json,
                                     std::vector<std::string>* metadata) {
  std::vector<ParsedEvent> events;
  for (const std::string& obj : split_objects(json)) {
    ParsedEvent e;
    e.ph = str_field(obj, "ph");
    if (e.ph == "M") {
      if (metadata != nullptr) metadata->push_back(obj);
      continue;
    }
    e.name = str_field(obj, "name");
    e.kind = str_field(obj, "kind");
    e.status = str_field(obj, "status");
    e.pid = static_cast<int>(num_field(obj, "pid"));
    e.tid = static_cast<int>(num_field(obj, "tid"));
    e.frame = static_cast<int>(num_field(obj, "frame"));
    e.ts = num_field(obj, "ts");
    e.dur = num_field(obj, "dur");
    events.push_back(e);
  }
  return events;
}

// ---- the round trip -------------------------------------------------------

// The export writes ts and dur each rounded to 1e-3 us, so two slices that
// abut exactly can read as overlapping by up to 1.5e-3 us after parsing.
constexpr double kExportSlackUs = 2e-3;

/// Exports `session`, parses the JSON back and checks the timeline
/// invariants of a run over inter-frames [1, frames] whose only fault is a
/// kernel fault on `faulted_device`.
void check_round_trip(obs::TraceSession& session,
                      const PlatformTopology& topo, int frames,
                      int faulted_device, const std::string& file) {
  for (int i = 0; i < topo.num_devices(); ++i) {
    session.sink.set_device_name(i, topo.devices[i].name);
  }
  const std::string path = testing::TempDir() + "/" + file;
  ASSERT_TRUE(session.sink.save(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  std::vector<std::string> metadata;
  const std::vector<ParsedEvent> events = parse_trace(json, &metadata);
  ASSERT_FALSE(events.empty());

  // Track naming covers the host (pid 0) and every device.
  auto named = [&](const std::string& what, const std::string& value) {
    for (const std::string& m : metadata) {
      if (str_field(m, "name") == what && m.find(value) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(named("process_name", "host"));
  EXPECT_TRUE(named("process_name", "dev0"));
  EXPECT_TRUE(named("process_name", topo.devices[faulted_device].name));
  EXPECT_TRUE(named("thread_name", "compute"));
  EXPECT_TRUE(named("thread_name", "copyH2D"));

  int failed = 0, cancelled = 0, lp_solves = 0;
  std::map<int, std::pair<double, double>> frame_span;  // frame -> [min, max]
  std::map<std::pair<int, int>, std::vector<ParsedEvent>> lanes;
  for (const ParsedEvent& e : events) {
    ASSERT_EQ(e.ph, "X") << e.name;
    ASSERT_GE(e.frame, 1);
    ASSERT_LE(e.frame, frames);
    ASSERT_GE(e.dur, 0.0) << e.name;
    failed += e.status == "failed" ? 1 : 0;
    cancelled += e.status == "cancelled" ? 1 : 0;
    lp_solves += e.kind == "lp_solve" ? 1 : 0;
    auto it = frame_span.find(e.frame);
    if (it == frame_span.end()) {
      frame_span[e.frame] = {e.ts, e.ts + e.dur};
    } else {
      it->second.first = std::min(it->second.first, e.ts);
      it->second.second = std::max(it->second.second, e.ts + e.dur);
    }
    lanes[{e.pid, e.tid}].push_back(e);
  }

  // The injected fault shows up as failed ops on the faulted device only
  // (pid = device + 1) and cancelled dependents; the LP solves show on the
  // host track.
  EXPECT_GE(failed, 1);
  EXPECT_GE(cancelled, 1);
  EXPECT_GE(lp_solves, 1);
  for (const ParsedEvent& e : events) {
    if (e.status == "failed") {
      EXPECT_EQ(e.pid, faulted_device + 1) << e.name;
    }
    if (e.kind == "lp_solve" || e.kind == "sched") {
      EXPECT_EQ(e.pid, 0) << e.name;
    }
  }

  // Lanes are serial resources: within one (pid, tid) track, events that
  // occupied the lane must not overlap (the executors' FIFO-per-lane
  // invariant). Zero-duration events — failed and cancelled ops — consume
  // no lane time and are exempt.
  for (auto& [key, lane] : lanes) {
    std::sort(lane.begin(), lane.end(),
              [](const ParsedEvent& a, const ParsedEvent& b) {
                return a.ts < b.ts;
              });
    double busy_until = -1.0;
    std::string prev_name;
    for (const ParsedEvent& e : lane) {
      if (e.dur <= 0.0) continue;
      EXPECT_GE(e.ts, busy_until - kExportSlackUs)
          << "overlap on pid " << key.first << " tid " << key.second
          << " between '" << prev_name << "' and '" << e.name << "'";
      busy_until = e.ts + e.dur;
      prev_name = e.name;
    }
  }

  // Frames tile the global timeline in order (the session rebases each
  // attempt past everything already recorded).
  ASSERT_EQ(static_cast<int>(frame_span.size()), frames);
  for (int f = 2; f <= frames; ++f) {
    EXPECT_GE(frame_span[f].first, frame_span[f - 1].second - kExportSlackUs)
        << "frame " << f;
  }
}

TEST(TraceRoundTrip, FaultedEncodeExportsConsistentChromeTrace) {
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = test_topo(2);
  // GPU#1's kernels fault on frame 2: two failed attempts (streak reaches
  // the quarantine threshold), then a clean attempt on the survivors.
  FaultSchedule faults;
  faults.add({/*device=*/2, /*frame_begin=*/2, /*frame_end=*/3,
              FaultKind::kKernelTransient});

  obs::TraceSession session;
  FrameworkOptions opts;
  opts.trace = &session;
  VirtualFramework fw(cfg, topo, opts, {}, faults);
  for (int f = 0; f < 3; ++f) fw.encode_frame();
  check_round_trip(session, topo, /*frames=*/3, /*faulted_device=*/2,
                   "feves_roundtrip.trace.json");
}

TEST(TraceRoundTrip, FaultedRealEncodeExportsConsistentChromeTrace) {
  // The same invariants on measured time: CollaborativeEncoder on SysNFF,
  // the second GPU's kernels faulting on inter-frame 1. That frame's split
  // is the equidistant initialization, so the GPU surely has kernels to
  // fail; later splits follow measured times and may leave it idle.
  const EncoderConfig cfg = small_config();
  const PlatformTopology topo = make_sys_nff();
  FaultSchedule faults;
  faults.add({/*device=*/2, /*frame_begin=*/1, /*frame_end=*/2,
              FaultKind::kKernelTransient});

  SyntheticConfig scene;
  scene.width = cfg.width;
  scene.height = cfg.height;
  scene.frames = 4;
  SyntheticSequence source(scene);
  Frame420 frame(cfg.width, cfg.height);

  obs::TraceSession session;
  FrameworkOptions opts;
  opts.trace = &session;
  CollaborativeEncoder enc(cfg, topo, opts, SimdTier::kAuto, faults);
  // The bootstrap I frame runs on the host; inter-frames 1..3 follow.
  std::vector<FrameStats> stats;
  for (int f = 0; f < scene.frames; ++f) {
    ASSERT_TRUE(source.read_frame(f, frame));
    stats.push_back(enc.encode_frame(frame, nullptr));
  }
  EXPECT_GE(stats[1].retries, 1);
  check_round_trip(session, topo, /*frames=*/3, /*faulted_device=*/2,
                   "feves_real_roundtrip.trace.json");
}

TEST(TraceRoundTrip, DisabledSessionCollectsNothing) {
  const EncoderConfig cfg = small_config();
  obs::TraceSession session(/*enabled=*/false);
  FrameworkOptions opts;
  opts.trace = &session;
  VirtualFramework fw(cfg, test_topo(2), opts);
  for (int f = 0; f < 2; ++f) fw.encode_frame();
  // Host events and op events are both suppressed while disabled.
  EXPECT_EQ(session.sink.size(), 0u);
}

// ---- scheduler telemetry through FrameStats -------------------------------

TEST(SchedTelemetry, LpEffortAndPredictionErrorAreExposed) {
  const EncoderConfig cfg = hd_ish_config();
  VirtualFramework fw(cfg, test_topo(2), FrameworkOptions{});
  const std::vector<FrameStats> stats = fw.encode(6);

  // Frame 1 is the equidistant initialization: no LP runs.
  EXPECT_EQ(stats[0].telemetry.lp_solves, 0);
  EXPECT_DOUBLE_EQ(stats[0].telemetry.predicted_tau_tot_ms, 0.0);

  for (std::size_t f = 1; f < stats.size(); ++f) {
    const obs::SchedTelemetry& t = stats[f].telemetry;
    // Once the warm cache converges, a frame may skip the LP entirely and
    // reuse the cached distribution — but it always reports one or the
    // other.
    EXPECT_GE(t.lp_solves + t.lp_skipped, 1) << "frame " << f;
    if (t.lp_solves > 0) {
      EXPECT_GT(t.lp_solve_ms, 0.0) << "frame " << f;
      EXPECT_GE(t.delta_iterations, 1) << "frame " << f;
    }
    EXPECT_GT(t.predicted_tau_tot_ms, 0.0) << "frame " << f;
    EXPECT_GT(t.measured_tau_tot_ms, 0.0) << "frame " << f;
    ASSERT_EQ(static_cast<int>(t.dev.size()), 3) << "frame " << f;
  }

  // Virtual mode re-characterizes exactly, so once the reference window has
  // filled (refs = 2) the LP's predictions track the DES measurements
  // closely — the convergence Algorithm 1 promises, now as a metric.
  const obs::SchedTelemetry& last = stats.back().telemetry;
  EXPECT_LT(last.misprediction(), 0.1);
  EXPECT_LT(last.worst_module_error(), 0.05);
  EXPECT_GT(last.measured_tau1_ms, 0.0);
  EXPECT_GE(last.measured_tau2_ms, last.measured_tau1_ms);
}

}  // namespace
}  // namespace feves
