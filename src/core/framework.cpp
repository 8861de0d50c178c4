#include "core/framework.hpp"

#include "core/virtual_backend.hpp"

#include <algorithm>

namespace feves {

VirtualFramework::VirtualFramework(const EncoderConfig& cfg,
                                   const PlatformTopology& topo,
                                   FrameworkOptions opts,
                                   PerturbationSchedule perturbations,
                                   FaultSchedule faults)
    : FrameLoop(cfg, topo, opts, std::move(faults), /*next_frame=*/1,
                HostModel::kDedicated),
      perturbations_(std::move(perturbations)) {}

FrameworkCheckpoint VirtualFramework::checkpoint() const {
  return checkpoint_state();
}

void VirtualFramework::restore(const FrameworkCheckpoint& cp) {
  FEVES_CHECK(cp.next_frame >= 1);
  restore_state(cp);
}

FrameStats VirtualFramework::encode_frame(const FrameGrant& grant) {
  FrameStats stats =
      run_frame(std::min(next_frame_, cfg_.num_ref_frames), grant);
  ++next_frame_;
  return stats;
}

ExecutionResult VirtualFramework::execute(int frame, int active_refs,
                                          const ScheduleDecision& sd,
                                          const ExecuteOptions& exec,
                                          FrameOpIds* ids) {
  std::vector<double> slowdown(static_cast<std::size_t>(topo_.num_devices()));
  for (int i = 0; i < topo_.num_devices(); ++i) {
    slowdown[i] = perturbations_.factor(i, frame);
  }
  VirtualBackend backend(cfg_, topo_, active_refs, std::move(slowdown));
  const OpGraph graph =
      build_frame_graph(topo_, sd.dist, sd.plans, backend, ids);
  return execute_virtual(graph, topo_, exec);
}

std::vector<FrameStats> VirtualFramework::encode(int frames) {
  std::vector<FrameStats> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) out.push_back(encode_frame());
  return out;
}

double VirtualFramework::steady_state_fps(int frames, int warmup) {
  const auto stats = encode(frames);
  const int skip = std::min<int>(std::max(warmup, cfg_.num_ref_frames + 2),
                                 frames - 1);
  double total = 0.0;
  int count = 0;
  for (int f = skip; f < frames; ++f) {
    total += stats[f].total_ms;
    ++count;
  }
  FEVES_CHECK(count > 0);
  return 1000.0 / (total / count);
}

}  // namespace feves
