// Encode-service demo: three tenants share one simulated CPU + 3-GPU pool.
// Each session is a real encode (pixels, bitstream) of its own synthetic
// clip, submitted with a different fair-share weight and scheduling
// policy; the pool arbiter grants each frame a weighted share of whatever
// devices are free, and every session's per-frame activity lands in its
// own Chrome trace with a session dimension.
//
//   ./service_demo [frames_per_session]
//
// Writes service_session<N>.json traces (open in chrome://tracing or
// Perfetto; tracks are named "s<session> dev<k> ...").
#include "cli_main.hpp"
#include "obs/trace.hpp"
#include "platform/presets.hpp"
#include "service/encode_service.hpp"
#include "video/sequence.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace {

int run(int argc, char** argv) {
  using namespace feves;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 8;

  // One host plus three accelerators, shared by every session.
  const PlatformTopology topo = make_pool(3);

  EncoderConfig cfg;
  cfg.width = 192;
  cfg.height = 128;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  cfg.validate();

  struct Tenant {
    const char* name;
    double weight;
    SchedulingPolicy policy;
  };
  const Tenant tenants[] = {
      {"newsfeed", 1.0, SchedulingPolicy::kAdaptiveLp},
      {"sports", 2.0, SchedulingPolicy::kAdaptiveLp},
      {"archive", 1.0, SchedulingPolicy::kEquidistant},
  };

  std::printf("FEVES encode service: %zu sessions on CPU_H + 3x GPU_K, "
              "%dx%d, %d frames each\n\n",
              std::size(tenants), cfg.width, cfg.height, frames);

  // Traces must outlive the service (sessions hold pointers into them).
  obs::TraceSession traces[std::size(tenants)];

  EncodeService svc(topo);
  int ids[std::size(tenants)];
  for (std::size_t t = 0; t < std::size(tenants); ++t) {
    SyntheticConfig scene;
    scene.width = cfg.width;
    scene.height = cfg.height;
    scene.frames = frames;
    scene.seed = 7 + static_cast<u64>(t);

    SessionConfig sc;
    sc.cfg = cfg;
    sc.fw.policy = tenants[t].policy;
    sc.fw.lb.probe_rows = 2;  // probe devices the grant churns in
    sc.fw.trace = &traces[t];
    sc.frames = frames;
    sc.weight = tenants[t].weight;
    sc.source = std::make_shared<SyntheticSequence>(scene);
    ids[t] = svc.submit(sc);
    if (ids[t] < 0) {
      std::printf("session %s was refused by admission control\n",
                  tenants[t].name);
      return 1;
    }
  }

  std::printf("%-10s %7s %7s %10s %12s %12s %6s\n", "session", "weight",
              "frames", "fps", "wait total", "bitstream", "util");
  for (std::size_t t = 0; t < std::size(tenants); ++t) {
    const SessionResult r = svc.wait(ids[t]);
    if (r.state != SessionResult::State::kCompleted) {
      std::printf("%-10s failed: %s\n", tenants[t].name, r.error.c_str());
      return 1;
    }
    std::printf("%-10s %7.1f %7zu %10.2f %10.1fms %10zu B %6.2f\n",
                tenants[t].name, r.share.weight, r.frames.size(),
                r.share.fps(), r.share.queue_wait_ms, r.bitstream.size(),
                r.share.grant_utilization());
    const std::string path =
        "service_session" + std::to_string(ids[t]) + ".json";
    if (traces[t].sink.save(path)) {
      std::printf("%-10s trace -> %s (%zu events)\n", "",
                  path.c_str(), traces[t].sink.size());
    }
  }

  const ServiceStats st = svc.stats();
  std::printf("\nservice: %d sessions, %ld frames, aggregate %.2f fps "
              "(virtual makespan %.1f ms)\n",
              st.admitted, st.total_frames, st.aggregate_fps, st.makespan_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv, "[frames_per_session]", run);
}
