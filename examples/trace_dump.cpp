// Trace dump: run the virtual framework over a few inter-frames — with a
// transient kernel fault injected on one accelerator so the recovery path
// shows up — and export the orchestration timeline as Chrome trace-event
// JSON.
//
//   ./trace_dump [frames] [out.trace.json]
//
// Open the file in https://ui.perfetto.dev (or chrome://tracing): one
// process row per device, one thread track per execution lane (compute /
// copyH2D / copyD2H), plus a host row carrying the LP-solve and scheduling
// phases. Failed and cancelled ops are greyed/red and carry their status in
// the args pane.
#include "cli_main.hpp"
#include "core/framework.hpp"
#include "obs/trace.hpp"
#include "platform/presets.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int run(int argc, char** argv) {
  using namespace feves;

  const int frames = argc > 1 ? std::atoi(argv[1]) : 6;
  const std::string path = argc > 2 ? argv[2] : "feves.trace.json";
  FEVES_CHECK_MSG(frames > 0, "frames must be positive");

  EncoderConfig cfg;
  cfg.width = 1920;
  cfg.height = 1088;
  cfg.search_range = 16;
  cfg.num_ref_frames = 2;
  const PlatformTopology topo = make_sys_nff();

  // One transient kernel fault on the second accelerator during frame 3:
  // the attempt fails, the device is quarantined and the frame is retried
  // on the survivors — all of it visible on the timeline.
  FaultSchedule faults;
  faults.add({/*device=*/2, /*frame_begin=*/3, /*frame_end=*/4,
              FaultKind::kKernelTransient});

  obs::TraceSession session;
  for (int d = 0; d < topo.num_devices(); ++d) {
    session.sink.set_device_name(d, topo.devices[d].name);
  }

  FrameworkOptions opts;
  opts.trace = &session;
  VirtualFramework fw(cfg, topo, opts, {}, faults);
  const auto stats = fw.encode(frames);

  for (const auto& s : stats) {
    std::printf(
        "frame %2d: %7.2f ms  retries %d  lp solves %d (%d pivots, "
        "%.3f ms)  misprediction %.1f%%\n",
        s.frame_number, s.total_ms, s.retries, s.telemetry.lp_solves,
        s.telemetry.lp_iterations, s.telemetry.lp_solve_ms,
        100.0 * s.telemetry.misprediction());
  }

  if (!session.sink.save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "\nwrote %zu events to %s\n"
      "view it: open https://ui.perfetto.dev and drag the file in,\n"
      "or chrome://tracing -> Load. Tracks: one process per device,\n"
      "one thread per lane (compute / copyH2D / copyD2H), host row 'host'.\n",
      session.sink.size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv,
                                       "[frames] [out.trace.json]", run);
}
