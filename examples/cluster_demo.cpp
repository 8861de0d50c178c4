// Cluster demo: a three-node fleet survives a node crash mid-encode.
//
// Three loopback workers (each a whole simulated machine with its own
// device pool and LP balancer) register with a WorkerManager. Two tenants
// submit sessions; the biggest node crashes a few heartbeats in, so the
// manager declares it dead, fences its outstanding leases, and reassigns
// the work to the survivors, which resume from the last committed
// checkpoint. The real session's spliced bitstream is then compared
// byte-for-byte against a solo single-machine encode — node death moves
// work, never changes bits.
//
//   ./cluster_demo [frames_per_session]
#include "cli_main.hpp"
#include "cluster/loopback_worker.hpp"
#include "cluster/worker_manager.hpp"
#include "codec/frame_codec.hpp"
#include "platform/presets.hpp"
#include "video/sequence.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace {

int run(int argc, char** argv) {
  using namespace feves;
  using namespace feves::cluster;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 8;

  EncoderConfig cfg;
  cfg.width = 192;
  cfg.height = 128;
  cfg.search_range = 8;
  cfg.num_ref_frames = 2;
  cfg.validate();

  SyntheticConfig scene;
  scene.width = cfg.width;
  scene.height = cfg.height;
  scene.frames = frames;
  scene.seed = 42;

  // The fleet: one big machine (CPU + accelerators) and two small ones.
  // The big node is the capability-attractive dispatch target — and the
  // one we crash, permanently, a few heartbeats into the run.
  NodeFaultSchedule crash;
  crash.add({/*node=*/0, /*beat_begin=*/4, kFaultForever,
             NodeFaultKind::kCrash});
  PlatformTopology small;
  small.devices.push_back(preset_cpu_nehalem());

  WorkerManagerOptions opts;
  opts.tick_sleep_ms = 0.5;
  WorkerManager mgr(opts);
  mgr.register_worker(
      std::make_unique<LoopbackWorker>(0, "big-node", make_sys_nf(), crash));
  mgr.register_worker(std::make_unique<LoopbackWorker>(
      1, "small-node-a", small, NodeFaultSchedule{}));
  mgr.register_worker(std::make_unique<LoopbackWorker>(
      2, "small-node-b", small, NodeFaultSchedule{}));

  std::printf("FEVES cluster: 3 nodes, big-node crashes at beat 4\n");
  std::printf("  session 0: real encode, %dx%d, %d frames\n", cfg.width,
              cfg.height, frames);
  std::printf("  session 1: virtual 640x384, %d frames\n\n", frames);

  // Tenant 0: a real encode (pixels in, bitstream out), chunked into
  // 2-frame leases so a node death loses at most one quantum.
  ClusterSessionConfig real;
  real.cfg = cfg;
  real.frames = frames;
  real.chunk_frames = 2;
  real.source = std::make_shared<SyntheticSequence>(scene);
  const int real_id = mgr.submit(real);

  // Tenant 1: a virtual (DES-modelled) session sharing the fleet.
  ClusterSessionConfig virt;
  virt.cfg.width = 640;
  virt.cfg.height = 384;
  virt.cfg.search_range = 8;
  virt.frames = frames;
  virt.chunk_frames = 2;
  const int virt_id = mgr.submit(virt);

  for (const ClusterSessionResult& r : mgr.drain()) {
    std::printf("session %d: %s, %d/%d frames committed, %llu epochs\n",
                r.id, to_string(r.reason), r.committed_frames,
                r.id == real_id ? real.frames : virt.frames,
                static_cast<unsigned long long>(r.final_epoch));
    if (r.id == real_id && r.reason == TerminalReason::kCompleted) {
      // Prove the robustness headline: the spliced bitstream equals a
      // solo encode on one machine, byte for byte.
      SyntheticSequence seq(scene);
      Frame420 frame(cfg.width, cfg.height);
      RefList refs(cfg.num_ref_frames);
      std::vector<u8> solo;
      for (int f = 0; f < frames; ++f) {
        seq.read_frame(f, frame);
        refs.push_front(encode_frame_reference(cfg, frame, refs, f, &solo));
      }
      std::printf("  spliced bitstream vs solo encode: %s (%zu bytes)\n",
                  r.bitstream == solo ? "bit-identical" : "DIVERGED",
                  r.bitstream.size());
    }
  }
  (void)virt_id;

  const obs::NodeTelemetry t = mgr.telemetry();
  std::printf("\nfleet: %d dispatches, %d completions, %d fenced replies, "
              "%d reassigned, %d steals, %d node deaths\n",
              t.dispatches, t.completions, t.fenced_replies, t.reassigns,
              t.steals, t.nodes_died);
  std::printf("%-14s %10s %12s %8s %12s\n", "node", "dispatch",
              "completions", "steals", "reassigned");
  for (const NodeCounters& nc : mgr.node_counters()) {
    std::printf("%-14s %10d %12d %8d %12d\n", nc.name.c_str(),
                nc.dispatches, nc.completions, nc.steals,
                nc.reassigned_away);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return feves::examples::guarded_main(argc, argv, "[frames_per_session]", run);
}
