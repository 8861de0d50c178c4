// Broadcast planner: a capacity-planning tool built on the virtual-mode
// framework. Given a target fps and a fleet of candidate CPU+GPU machines,
// it sweeps encoding parameters (search area, reference frames) per machine
// and reports the highest-quality settings each platform sustains in real
// time — the decision a broadcaster faces when provisioning 1080p live
// encoding, which is exactly the workload the paper's intro motivates.
//
//   ./broadcast_planner [target_fps]
#include "cli_main.hpp"
#include "core/framework.hpp"
#include "platform/presets.hpp"

#include <cstdio>
#include <cstdlib>

namespace {

int run(int argc, char** argv) {
  using namespace feves;
  const double target_fps = argc > 1 ? std::atof(argv[1]) : 25.0;

  std::printf("FEVES broadcast planner — target %.0f fps @ 1080p\n\n",
              target_fps);
  std::printf("%-8s  %-34s  %-10s\n", "machine",
              "best sustained settings", "fps");

  for (const auto& name : all_config_names()) {
    // Prefer larger search areas first (better RD), then more references.
    int best_sa = 0, best_refs = 0;
    double best_fps = 0.0;
    for (int sa : {64, 32}) {
      for (int refs : {8, 6, 4, 2, 1}) {
        EncoderConfig cfg;
        cfg.width = 1920;
        cfg.height = 1088;
        cfg.search_range = sa / 2;
        cfg.num_ref_frames = refs;
        VirtualFramework fw(cfg, topology_by_name(name));
        const double fps = fw.steady_state_fps(20 + 2 * refs, 6 + refs);
        if (fps >= target_fps) {
          // Rank: SA dominates, then refs.
          if (sa > best_sa || (sa == best_sa && refs > best_refs)) {
            best_sa = sa;
            best_refs = refs;
            best_fps = fps;
          }
          break;  // more refs at this SA would only be slower
        }
      }
    }
    if (best_sa == 0) {
      std::printf("%-8s  %-34s  %-10s\n", name.c_str(),
                  "cannot sustain the target", "-");
    } else {
      char desc[64];
      std::snprintf(desc, sizeof desc, "SA %dx%d, %d reference frame%s",
                    best_sa, best_sa, best_refs, best_refs > 1 ? "s" : "");
      std::printf("%-8s  %-34s  %-10.1f\n", name.c_str(), desc, best_fps);
    }
  }

  std::printf(
      "\nReading: heterogeneous systems buy either a larger search area or\n"
      "more reference frames at the same real-time constraint — the FEVES\n"
      "pitch in one table.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv, "[target_fps]", run);
}
