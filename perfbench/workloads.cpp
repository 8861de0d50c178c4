#include "workloads.hpp"

#include "core/collaborative_encoder.hpp"
#include "platform/presets.hpp"
#include "service/encode_service.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {
namespace {

/// Session length handed to the program; the benchmark's source ends each
/// stream at the deadline long before it.
constexpr int kUnboundedFrames = 1 << 24;

feves::EncoderConfig cif(int search_range) {
  feves::EncoderConfig cfg;
  cfg.width = 352;
  cfg.height = 288;
  cfg.search_range = search_range;
  cfg.num_ref_frames = 2;
  return cfg;
}

std::vector<std::shared_ptr<ClipSource>> make_sources(
    const std::vector<std::shared_ptr<const Clip>>& clips, RunClock* clock,
    SpanLog* spans) {
  std::vector<std::shared_ptr<ClipSource>> out;
  for (std::size_t k = 0; k < clips.size(); ++k) {
    out.push_back(std::make_shared<ClipSource>(clips[k], clock,
                                               static_cast<int>(k), spans));
  }
  return out;
}

/// Opens the session's whole-life span (before its first pull can happen).
int open_session_span(SpanLog* spans, const char* name, ClipSource& src,
                      int session) {
  if (spans == nullptr) return -1;
  const int id = spans->open(name, now_ms(), -1, session);
  src.set_session_span(id);
  return id;
}

/// Records a benchmark-thread span around `call`.
template <typename F>
auto spanned(SpanLog* spans, const char* name, int parent, int session,
             F&& call) {
  const double t0 = now_ms();
  auto r = call();
  if (spans != nullptr) spans->add(name, t0, now_ms(), parent, session);
  return r;
}

void run_direct(const WorkloadSpec& spec, ClipSource& src, SessionRun* s,
                RunResult* out, SpanLog* spans) {
  const feves::EncoderConfig& cfg = spec.sessions[0].cfg;
  feves::CollaborativeEncoder enc(cfg,
                                  feves::topology_by_name(spec.topology));
  feves::Frame420 frame(cfg.width, cfg.height);
  for (int f = 0; src.read_frame(f, frame); ++f) {
    const int parent = src.current_frame_span();
    const double t0 = now_ms();
    s->frames.push_back(enc.encode_frame(frame, &s->bitstream));
    const double t1 = now_ms();
    s->encode_ms.push_back(t1 - t0);
    if (parent >= 0) spans->add("core.encode_frame", t0, t1, parent, 0);
  }
  s->completed = true;
  if (out != nullptr) {
    out->last_recon = std::make_unique<feves::Frame420>(enc.last_recon());
  }
}

void run_service(const WorkloadSpec& spec,
                 const std::vector<std::shared_ptr<ClipSource>>& sources,
                 std::vector<SessionRun>* runs, SpanLog* spans) {
  feves::EncodeService svc(feves::topology_by_name(spec.topology));
  std::vector<int> ids, life;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    feves::SessionConfig sc;
    sc.cfg = spec.sessions[k].cfg;
    sc.weight = spec.sessions[k].weight;
    sc.frames = kUnboundedFrames;
    sc.source = sources[k];
    const int session = static_cast<int>(k);
    life.push_back(
        open_session_span(spans, "service.session", *sources[k], session));
    ids.push_back(spanned(spans, "service.submit", life.back(), session,
                          [&] { return svc.submit(std::move(sc)); }));
  }
  for (std::size_t k = 0; k < sources.size(); ++k) {
    SessionRun& s = (*runs)[k];
    if (ids[k] < 0) {
      s.error = "refused by admission control";
      continue;
    }
    feves::SessionResult r =
        spanned(spans, "service.wait", life[k], static_cast<int>(k),
                [&] { return svc.wait(ids[k]); });
    if (spans != nullptr) spans->close(life[k], now_ms());
    s.bitstream = std::move(r.bitstream);
    s.frames = std::move(r.frames);
    s.completed = r.state == feves::SessionResult::State::kCompleted;
    s.error = r.error;
    s.share = r.share;
    s.restarts = r.resilience.restarts;
  }
}

std::vector<SessionRun> drive(
    const WorkloadSpec& spec,
    const std::vector<std::shared_ptr<ClipSource>>& sources, RunResult* out,
    SpanLog* spans) {
  std::vector<SessionRun> runs(sources.size());
  for (std::size_t k = 0; k < runs.size(); ++k) runs[k].source = sources[k];
  switch (spec.entry) {
    case EntryPoint::kDirect:
      run_direct(spec, *sources[0], &runs[0], out, spans);
      break;
    case EntryPoint::kService:
      run_service(spec, sources, &runs, spans);
      break;
  }
  return runs;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  // Distinct, seed-derived input per session.
  auto session = [&](feves::EncoderConfig cfg, double weight) {
    const std::uint64_t k = w.sessions.size();
    w.sessions.push_back({cfg, weight, seed * 1000u + k + 1});
  };
  if (name == "hd_fsbm") {
    // The paper's headline setup: 1080p, 32x32 SA, 1 RF on SysNFF.
    w.entry = EntryPoint::kDirect;
    w.topology = "SysNFF";
    feves::EncoderConfig cfg;  // 1920x1088, search_range 16, 1 RF
    session(cfg, 1.0);
    w.warmup = 3;
    w.clip_frames = 12;
    w.replay_frames = 4;
    w.rss_frame = 8;
  } else if (name == "cif_wide") {
    // Orchestration-bound: small frames over 24 devices.
    w.entry = EntryPoint::kDirect;
    w.topology = "PoolBig";
    session(cif(4), 1.0);
    w.warmup = 4;
    w.clip_frames = 48;
  } else if (name == "svc_cif4") {
    // Four tenants, mixed 16x16/32x32 search areas and weights 1/2.
    w.entry = EntryPoint::kService;
    w.topology = "PoolBig";
    session(cif(8), 1.0);
    session(cif(16), 1.0);
    session(cif(8), 2.0);
    session(cif(16), 2.0);
    w.warmup = 4;
    w.clip_frames = 40;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<double> measure_setup(
    const WorkloadSpec& spec,
    const std::vector<std::shared_ptr<const Clip>>& clips, double budget_s) {
  constexpr std::size_t kMinReps = 5;
  std::vector<double> out;
  const double start = now_ms();
  while (out.size() < kMinReps || now_ms() - start < budget_s * 1e3) {
    RunClock clock = RunClock::first_frame_only();
    auto sources = make_sources(clips, &clock, nullptr);
    const double t0 = now_ms();
    drive(spec, sources, nullptr, nullptr);
    // Each session's refused pull of frame 1 marks its first frame
    // committed; teardown after it is not set-up.
    double t1 = t0;
    for (const auto& s : sources) t1 = std::max(t1, s->end_ms());
    out.push_back((t1 - t0) / 1e3);
  }
  return out;
}

RunResult run_workload(const WorkloadSpec& spec,
                       const std::vector<std::shared_ptr<const Clip>>& clips,
                       RunClock* clock, SpanLog* spans) {
  RunResult out;
  auto sources = make_sources(clips, clock, spans);
  out.sessions = drive(spec, sources, &out, spans);
  out.cpu_end_ms = process_cpu_ms();
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
