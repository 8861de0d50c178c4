#include "core/collaborative_encoder.hpp"

#include "codec/bitstream.hpp"
#include "common/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace feves {

CollaborativeEncoder::CollaborativeEncoder(const EncoderConfig& cfg,
                                           const PlatformTopology& topo,
                                           FrameworkOptions opts,
                                           SimdTier tier, FaultSchedule faults)
    : cfg_(cfg),
      topo_(topo),
      opts_(opts),
      tier_(tier),
      faults_(std::move(faults)),
      balancer_(cfg, topo, opts.lb),
      dam_(cfg, topo, opts.enable_data_reuse),
      perf_(topo.num_devices(), opts.ewma_alpha),
      health_(topo.num_devices(), opts.health),
      refs_(cfg.num_ref_frames),
      mirrors_(static_cast<std::size_t>(topo.num_devices())),
      mirror_stale_(static_cast<std::size_t>(topo.num_devices()), false),
      staged_(static_cast<std::size_t>(topo.num_devices())) {
  // Tiers are fixed for the encoder's life, so the per-kernel report is too.
  for (const KernelTierChoice& k : kernel_tier_report(tier_)) {
    kernel_tiers_.push_back(
        {kernel_name(k.id), tier_name(k.requested), tier_name(k.resolved)});
  }
  cfg_.validate();
  topo_.validate();
  rf_holder_ = topo_.cpu_index() >= 0 ? topo_.cpu_index() : 0;
}

EncoderCheckpoint CollaborativeEncoder::checkpoint() const {
  EncoderCheckpoint cp;
  cp.fw.next_frame = next_frame_;
  cp.fw.rf_holder = rf_holder_;
  cp.fw.perf = perf_;
  cp.fw.health = health_;
  for (int i = 0; i < refs_.size(); ++i) {
    cp.refs.push_back(std::make_shared<const RefPicture>(refs_.ref(i)));
  }
  return cp;
}

void CollaborativeEncoder::restore(const EncoderCheckpoint& cp) {
  FEVES_CHECK_MSG(cp.fw.perf.num_devices() == topo_.num_devices(),
                  "checkpoint covers " << cp.fw.perf.num_devices()
                                       << " devices, topology has "
                                       << topo_.num_devices());
  FEVES_CHECK_MSG(static_cast<int>(cp.refs.size()) <= refs_.capacity(),
                  "checkpoint reference window exceeds num_ref_frames");
  FEVES_CHECK_MSG(cp.fw.next_frame == 0 || !cp.refs.empty(),
                  "mid-stream checkpoint carries no reference window");
  next_frame_ = cp.fw.next_frame;
  rf_holder_ = cp.fw.rf_holder;
  perf_ = cp.fw.perf;
  health_ = cp.fw.health;
  refs_.clear();
  // push_front wants oldest first to end up newest-first like the snapshot.
  for (auto it = cp.refs.rbegin(); it != cp.refs.rend(); ++it) {
    refs_.push_front(std::make_unique<RefPicture>(**it));
  }
  // Mirrors, prestaged buffers, the pipeline slot and the deferred-SF
  // ledger all describe frames the snapshot does not cover: drop them and
  // restage each mirror whole from the restored canonical references.
  for (int i = 0; i < topo_.num_devices(); ++i) {
    if (topo_.devices[i].is_accelerator()) mirror_stale_[i] = true;
    staged_[static_cast<std::size_t>(i)].valid = false;
  }
  slot_.valid = false;
  dam_.reset();
}

FrameStats CollaborativeEncoder::encode_frame(const Frame420& cur,
                                              std::vector<u8>* bitstream_out,
                                              const FrameGrant& grant) {
  // The counter commits only on success (bottom of this function): if the
  // frame throws — whole grant quarantined, retry budget exhausted — the
  // caller may re-submit the same source frame on a fresh device grant,
  // and it must encode under the same frame number for the stream to stay
  // bit-exact.
  const int frame = next_frame_;
  FrameStats stats;
  stats.frame_number = frame;

  // The job is a member purely as an allocation arena: every frame fully
  // re-prepares it, and ping-ponging the borrowed-refs vector through
  // prepare() keeps even that small buffer alive across frames.
  EncodeJob& job = job_;
  std::vector<RefPicture*> borrowed = std::move(job.refs);
  borrowed.clear();
  for (int i = 0; i < refs_.size(); ++i) borrowed.push_back(&refs_.ref(i));
  job.prepare(cfg_, cur, std::move(borrowed), frame, std::move(recycled_));

  if (job.is_intra) {
    // Bootstrap I frame: host-only (paper Fig 1's intra path; the inter
    // loop under study starts at frame 1).
    Timer t;
    intra_frame(job, tier_);
    stats.total_ms = t.elapsed_ms();
    stats.active_refs = 0;
  } else {
    const int active_refs = refs_.size();
    stats.active_refs = active_refs;

    ExecuteOptions exec_opts;
    exec_opts.faults = faults_.plan(frame, topo_.num_devices());
    exec_opts.watchdog_ms = opts_.watchdog_ms;
    exec_opts.hang_sleep_ms = opts_.hang_sleep_ms;
    exec_opts.lease = grant.lease;
    obs::TraceSession* trace = opts_.trace;
    if (trace != nullptr) {
      exec_opts.tracer = &trace->tracer;
      exec_opts.trace_frame = frame;
    }

    // Recovery loop: a failed attempt never contributes pixels — the frame
    // is re-prepared, stale mirrors are restaged whole, and the LP
    // re-balances over the surviving devices, so the reconstruction stays
    // bit-exact with the reference encoder no matter which devices fault.
    for (int attempt = 0;; ++attempt) {
      FEVES_CHECK_MSG(attempt <= opts_.max_frame_retries,
                      "frame " << frame << ": no clean attempt within "
                               << opts_.max_frame_retries << " retries");
      FEVES_CHECK_MSG(health_.num_schedulable() > 0,
                      "frame " << frame << ": every device is quarantined");
      const std::vector<bool> active =
          granted_active_mask(health_, grant, frame);

      if (attempt > 0) {
        // The failed attempt may have partially written MVs, SF planes or
        // the reconstruction; rebuild the job from the untouched inputs.
        // Its own recon is recycled — every pixel is rewritten anyway.
        std::vector<RefPicture*> reborrowed = std::move(job.refs);
        reborrowed.clear();
        for (int i = 0; i < refs_.size(); ++i) {
          reborrowed.push_back(&refs_.ref(i));
        }
        job.prepare(cfg_, cur, std::move(reborrowed), frame,
                    std::move(job.recon));
      }

      const int rf_holder = active[rf_holder_] ? rf_holder_ : -1;

      // Consume the pipeline slot when its speculation survived; otherwise
      // (or after a failed attempt) schedule synchronously from fresh state.
      Timer sched_timer;
      ScheduleDecision sd;
      bool from_pipeline = false;
      double overlapped_ms = 0.0;
      if (slot_.valid && slot_.frame == frame) {
        if (attempt == 0 &&
            pipeline_slot_matches(slot_, frame, active, rf_holder,
                                  active_refs, perf_,
                                  opts_.lb.convergence_epsilon)) {
          sd = std::move(slot_.sched);
          dam_ = std::move(*slot_.dam);
          overlapped_ms = slot_.cost_ms;
          from_pipeline = true;
        } else {
          ++stats.telemetry.pipeline_misses;
        }
      }
      slot_.valid = false;
      if (!from_pipeline) {
        sd = compute_schedule(opts_, balancer_, perf_, health_, dam_, active,
                              rf_holder, active_refs);
      }
      const Distribution& dist = sd.dist;
      const double sched_ms = sched_timer.elapsed_ms();
      stats.scheduling_ms += sched_ms;
      stats.telemetry.sched_critical_ms += sched_ms;
      stats.telemetry.lp_solves += sd.lb.lp_solves;
      stats.telemetry.lp_iterations += sd.lb.lp_iterations;
      stats.telemetry.lp_fallbacks += sd.lb.lp_fallbacks;
      stats.telemetry.lp_warm_solves += sd.lb.lp_warm_solves;
      stats.telemetry.lp_skipped += sd.lb.lp_skipped;
      stats.telemetry.lp_solve_ms += sd.lb.lp_solve_ms;
      stats.telemetry.delta_iterations += sd.lb.delta_iterations;
      if (from_pipeline) {
        ++stats.telemetry.pipeline_hits;
        stats.telemetry.sched_overlapped_ms += overlapped_ms;
      }
      if (trace != nullptr && !from_pipeline) {
        // A consumed slot was traced on the pipeline lane at precompute
        // time; only synchronous scheduling lands on the host lane.
        if (sd.lb.lp_solves > 0) {
          trace->add_host_event(frame, "lp_solve", obs::EventKind::kLpSolve,
                                sd.lb.lp_solve_ms);
        }
        trace->add_host_event(frame, "sched", obs::EventKind::kSched,
                              std::max(0.0, sched_ms - sd.lb.lp_solve_ms));
      }

      Timer stage_timer;
      for (int i = 0; i < topo_.num_devices(); ++i) {
        if (!topo_.devices[i].is_accelerator()) continue;
        if (!active[i]) {
          // Sitting this frame out breaks the one-begin-per-frame contract.
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
      if (trace != nullptr) {
        trace->add_host_event(frame, "mirror_stage", obs::EventKind::kSched,
                              stage_timer.elapsed_ms());
      }

      RealBackend backend(job, mirrors_, topo_, tier_, dist.sme);
      FrameOpIds ids;
      const OpGraph graph =
          build_frame_graph(topo_, dist, sd.plans, backend, &ids);

      // The frame's shadow, on a lane-runtime thread while this frame
      // executes: prestage every active accelerator's mirror buffers for
      // frame+1 (re-poison the slot trimmed off its window, reset the MV
      // fields) and, once every active device is characterized, solve
      // frame+1's schedule from the pre-fold characterization and plan its
      // transfers on a copy of the Data Access state. Disjoint state from
      // the execution (the executor touches job/mirrors/refs; the shadow
      // touches the balancer's warm cache, a DAM clone and staged_), so no
      // synchronization beyond the join. The batch joins on destruction,
      // keeping exception unwinds safe.
      // Recycled from the consumed slot: params capacity and the DAM copy
      // survive, so steady-state speculation allocates nothing up front.
      PipelineSlot next = std::move(slot_);
      next.valid = false;
      const bool speculate =
          opts_.enable_pipeline && perf_.initialized(&active);
      const int next_refs = std::min(active_refs + 1, cfg_.num_ref_frames);
      if (speculate) {
        next.frame = frame + 1;
        next.active_refs = next_refs;
        next.active = active;
        next.rf_holder = dist.rstar_device;
        next.params.resize(static_cast<std::size_t>(topo_.num_devices()));
        for (int i = 0; i < topo_.num_devices(); ++i) {
          next.params[i] = perf_.params(i);
        }
      }
      std::optional<LaneRuntime::Batch> shadow;
      if (opts_.enable_pipeline) {
        shadow.emplace(lane_runtime(), 1, [&](int) {
          Timer spec_timer;
          if (speculate) {
            if (next.dam.has_value()) {
              *next.dam = dam_;  // plan against a copy; commit only on a hit
            } else {
              next.dam.emplace(dam_);
            }
            next.sched = compute_schedule(opts_, balancer_, perf_, health_,
                                          *next.dam, next.active,
                                          next.rf_holder, next.active_refs);
          }
          for (int i = 0; i < topo_.num_devices(); ++i) {
            if (topo_.devices[i].is_accelerator() && active[i]) {
              prestage_mirror(staged_[i], cfg_, next_refs);
            }
          }
          if (speculate) {
            next.cost_ms = spec_timer.elapsed_ms();
            next.valid = true;
          }
        });
      }

      const ExecutionResult result = execute_real(graph, topo_, exec_opts);
      if (shadow.has_value()) shadow->join();
      stats.total_ms += result.makespan_ms;
      if (trace != nullptr) trace->fold_execution();

      if (!result.ok()) {
        ++stats.retries;
        for (int d : result.failed_devices()) {
          if (health_.record_failure(d)) {
            perf_.evict(d);
            dam_.evict(d);
            ++stats.devices_quarantined;
          }
        }
        // Cancelled/unfinished ops leave mirrors and the deferred-SF
        // bookkeeping out of sync; restage everything and re-plan from an
        // all-resident state.
        for (int i = 0; i < topo_.num_devices(); ++i) {
          if (topo_.devices[i].is_accelerator()) mirror_stale_[i] = true;
        }
        dam_.reset();
        continue;
      }

      // Telemetry snapshots the K parameters the scheduler consumed, so it
      // must fill before this frame's measurements fold in.
      fill_device_telemetry(topo_, dist, ids, result, perf_, &stats.telemetry);
      // Surface the per-kernel SIMD tier the frame's pixel kernels ran at
      // (requested vs. registry-resolved) — and mark it in the trace once
      // per session, so a capture is self-describing about the ISA level.
      stats.telemetry.kernel_tiers = kernel_tiers_;
      if (trace != nullptr && !tiers_traced_) {
        tiers_traced_ = true;
        for (const obs::KernelTierInfo& k : stats.telemetry.kernel_tiers) {
          char label[obs::TraceEvent::kNameCapacity + 1];
          std::snprintf(label, sizeof label, "k:%s=%s", k.kernel, k.resolved);
          trace->add_host_event(frame, label, obs::EventKind::kMark, 0.0);
        }
      }
      stats.telemetry.predicted_tau1_ms = dist.tau1_ms;
      stats.telemetry.predicted_tau2_ms = dist.tau2_ms;
      stats.telemetry.predicted_tau_tot_ms = dist.tau_tot_ms;
      stats.telemetry.measured_tau_tot_ms = result.makespan_ms;
      attribute_frame_times(cfg_, topo_, dist, ids, result, &perf_);
      rf_holder_ = dist.rstar_device;
      stats.dist = dist;
      for (int i = 0; i < topo_.num_devices(); ++i) {
        if (active[i]) {
          health_.record_success(i);
          ++stats.active_devices;
        }
        const auto& d = ids.dev[i];
        for (int id : {d.me, d.intp, d.mv_out, d.sf_out}) {
          if (id >= 0) {
            stats.tau1_ms = std::max(stats.tau1_ms, result.times[id].end_ms);
          }
        }
        for (int id : {d.sme, d.sme_mv_out}) {
          if (id >= 0) {
            stats.tau2_ms = std::max(stats.tau2_ms, result.times[id].end_ms);
          }
        }
      }
      stats.telemetry.measured_tau1_ms = stats.tau1_ms;
      stats.telemetry.measured_tau2_ms = stats.tau2_ms;
      if (next.valid) {
        // Publish the speculation only on a clean attempt; a failed one
        // changes the device set, so its slot would miss anyway.
        slot_ = std::move(next);
        if (trace != nullptr) {
          trace->add_host_event(frame, "sched_ahead", obs::EventKind::kSched,
                                slot_.cost_ms, obs::kLanePipeline);
        }
      }
      break;
    }
    stats.devices_readmitted = static_cast<int>(health_.end_frame().size());
  }

  if (bitstream_out != nullptr) {
    BitWriter bw;
    write_frame_bitstream(job, bw);
    const auto& bytes = bw.bytes();
    bitstream_out->insert(bitstream_out->end(), bytes.begin(), bytes.end());
  }
  recycled_ = refs_.push_front(std::move(job.recon));
  ++next_frame_;
  return stats;
}

}  // namespace feves
