#include "core/collaborative_encoder.hpp"

#include "codec/bitstream.hpp"
#include "common/timer.hpp"

#include <cstdio>

namespace feves {

CollaborativeEncoder::CollaborativeEncoder(const EncoderConfig& cfg,
                                           const PlatformTopology& topo,
                                           FrameworkOptions opts,
                                           SimdTier tier, FaultSchedule faults)
    : FrameLoop(cfg, topo, opts, std::move(faults), /*next_frame=*/0,
                HostModel::kShared),
      tier_(tier),
      refs_(cfg.num_ref_frames),
      mirrors_(static_cast<std::size_t>(topo.num_devices())),
      mirror_stale_(static_cast<std::size_t>(topo.num_devices()), false),
      staged_(static_cast<std::size_t>(topo.num_devices())) {
  // Tiers are fixed for the encoder's life, so the per-kernel report is too.
  for (const KernelTierChoice& k : kernel_tier_report(tier_)) {
    kernel_tiers_.push_back(
        {kernel_name(k.id), tier_name(k.requested), tier_name(k.resolved)});
  }
}

EncoderCheckpoint CollaborativeEncoder::checkpoint() const {
  EncoderCheckpoint cp;
  cp.fw = checkpoint_state();
  for (int i = 0; i < refs_.size(); ++i) {
    cp.refs.push_back(std::make_shared<const RefPicture>(refs_.ref(i)));
  }
  return cp;
}

void CollaborativeEncoder::restore(const EncoderCheckpoint& cp) {
  FEVES_CHECK_MSG(static_cast<int>(cp.refs.size()) <= refs_.capacity(),
                  "checkpoint reference window exceeds num_ref_frames");
  FEVES_CHECK_MSG(cp.fw.next_frame == 0 || !cp.refs.empty(),
                  "mid-stream checkpoint carries no reference window");
  restore_state(cp.fw);
  refs_.clear();
  // push_front wants oldest first to end up newest-first like the snapshot.
  for (auto it = cp.refs.rbegin(); it != cp.refs.rend(); ++it) {
    refs_.push_front(std::make_unique<RefPicture>(**it));
  }
  // Mirrors and prestaged buffers describe frames the snapshot does not
  // cover: drop them and restage each mirror whole from the restored
  // canonical references.
  for (int i = 0; i < topo_.num_devices(); ++i) {
    if (topo_.devices[i].is_accelerator()) mirror_stale_[i] = true;
    staged_[static_cast<std::size_t>(i)].valid = false;
  }
}

void CollaborativeEncoder::prepare_job(const Frame420& cur,
                                       std::unique_ptr<RefPicture> recon) {
  // The job is a member purely as an allocation arena: every frame fully
  // re-prepares it, and ping-ponging the borrowed-refs vector through
  // prepare() keeps even that small buffer alive across frames.
  std::vector<RefPicture*> borrowed = std::move(job_.refs);
  borrowed.clear();
  for (int i = 0; i < refs_.size(); ++i) borrowed.push_back(&refs_.ref(i));
  job_.prepare(cfg_, cur, std::move(borrowed), next_frame_, std::move(recon));
}

FrameStats CollaborativeEncoder::encode_frame(const Frame420& cur,
                                              std::vector<u8>* bitstream_out,
                                              const FrameGrant& grant) {
  // The counter commits only on success (bottom of this function): if the
  // frame throws — whole grant quarantined, retry budget exhausted — the
  // caller may re-submit the same source frame on a fresh device grant,
  // and it must encode under the same frame number for the stream to stay
  // bit-exact.
  prepare_job(cur, std::move(recycled_));
  FrameStats stats;
  if (job_.is_intra) {
    // Bootstrap I frame: host-only (paper Fig 1's intra path; the inter
    // loop under study starts at frame 1).
    Timer t;
    intra_frame(job_, tier_);
    stats.frame_number = next_frame_;
    stats.total_ms = t.elapsed_ms();
    stats.active_refs = 0;
  } else {
    stats = run_frame(refs_.size(), grant);
  }

  if (bitstream_out != nullptr) {
    // An inter frame's MB rows were entropy coded inside R*; only the
    // header and the splice are left.
    BitWriter bw;
    if (job_.is_intra) {
      write_frame_bitstream(job_, bw);
    } else {
      splice_frame_bitstream(job_, bw);
    }
    const auto& bytes = bw.bytes();
    bitstream_out->insert(bitstream_out->end(), bytes.begin(), bytes.end());
  }
  recycled_ = refs_.push_front(std::move(job_.recon));
  ++next_frame_;
  return stats;
}

void CollaborativeEncoder::prepare_attempt(int frame, int attempt,
                                           int active_refs,
                                           const std::vector<bool>& run) {
  // The failed attempt may have partially written MVs, SF planes or the
  // reconstruction; rebuild the job from the untouched inputs. Its own
  // recon is recycled — every pixel is rewritten anyway.
  if (attempt > 0) prepare_job(*job_.cur, std::move(job_.recon));

  Timer stage_timer;
  for (int i = 0; i < topo_.num_devices(); ++i) {
    if (!topo_.devices[i].is_accelerator()) continue;
    if (!run[i]) {
      // Sitting this frame out (quarantined, outside the grant or outside
      // the balancer's chosen devices) breaks the one-begin-per-frame
      // contract.
      mirror_stale_[i] = true;
      continue;
    }
    if (mirror_stale_[i]) {
      restage_mirror(mirrors_[i], cfg_, active_refs, refs_);
      mirror_stale_[i] = false;
    } else {
      begin_frame_mirror(mirrors_[i], cfg_, active_refs,
                         refs_.ref(0).recon.y, &staged_[i]);
    }
  }
  if (opts_.trace != nullptr) {
    opts_.trace->add_host_event(frame, "mirror_stage", obs::EventKind::kSched,
                                stage_timer.elapsed_ms());
  }
}

ExecutionResult CollaborativeEncoder::execute(int /*frame*/,
                                              int /*active_refs*/,
                                              const ScheduleDecision& sd,
                                              const ExecuteOptions& exec,
                                              FrameOpIds* ids) {
  RealBackend backend(job_, mirrors_, topo_, tier_, sd.dist.sme);
  const OpGraph graph =
      build_frame_graph(topo_, sd.dist, sd.plans, backend, ids);
  return execute_real(graph, topo_, exec);
}

void CollaborativeEncoder::shadow(const std::vector<bool>& run,
                                  int next_refs) {
  // Prestage the running accelerators' mirror buffers for frame+1:
  // re-poison the slot trimmed off the window, reset the MV fields.
  for (int i = 0; i < topo_.num_devices(); ++i) {
    if (topo_.devices[i].is_accelerator() && run[i]) {
      prestage_mirror(staged_[i], cfg_, next_refs);
    }
  }
}

void CollaborativeEncoder::attempt_failed() {
  // Cancelled/unfinished ops leave mirrors and the deferred-SF bookkeeping
  // out of sync; restage everything and re-plan from an all-resident state.
  for (int i = 0; i < topo_.num_devices(); ++i) {
    if (topo_.devices[i].is_accelerator()) mirror_stale_[i] = true;
  }
  dam_.reset();
}

void CollaborativeEncoder::attempt_succeeded(int frame, FrameStats* stats) {
  // Surface the per-kernel SIMD tier the frame's pixel kernels ran at
  // (requested vs. registry-resolved) — and mark it in the trace once per
  // session, so a capture is self-describing about the ISA level.
  stats->telemetry.kernel_tiers = kernel_tiers_;
  if (opts_.trace != nullptr && !tiers_traced_) {
    tiers_traced_ = true;
    for (const obs::KernelTierInfo& k : kernel_tiers_) {
      char label[obs::TraceEvent::kNameCapacity + 1];
      std::snprintf(label, sizeof label, "k:%s=%s", k.kernel, k.resolved);
      opts_.trace->add_host_event(frame, label, obs::EventKind::kMark, 0.0);
    }
  }
}

}  // namespace feves
