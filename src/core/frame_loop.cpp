#include "core/frame_loop.hpp"

#include "common/thread_pool.hpp"
#include "common/timer.hpp"

#include <algorithm>

namespace feves {

namespace {

// Failed execution attempts tolerated per frame before giving up. Each
// attempt quarantines at least the faulty device's failure streak, so a
// handful suffices even for simultaneous multi-device faults.
constexpr int kMaxFrameRetries = 8;

// The devices Algorithm 2 can balance over on `active`: all of them once
// every one is characterized; before that, the characterized subset once
// it holds at least min(active devices, MB rows) of them. The second case
// is a frame with more devices than rows: the equidistant initialization
// gives some devices no rows, so they are never measured and would hold
// the LP off forever. Empty when the frame must (re-)initialize.
std::vector<bool> balanceable_mask(const PerfCharacterization& perf,
                                   const std::vector<bool>& active, int rows) {
  std::vector<bool> known = perf.characterized_mask(&active);
  const auto count = [](const std::vector<bool>& m) {
    return static_cast<int>(std::count(m.begin(), m.end(), true));
  };
  if (count(known) < std::min(count(active), rows)) known.clear();
  return known;
}

// One full scheduling step: policy dispatch (Algorithm 2 / proportional /
// equidistant, including the probe path for partially characterized grants
// and the R*-pin quarantine fallback), the set of devices that run the
// result, then transfer planning for those. Mutates `dam`'s deferred-SF
// state and the balancer's warm-start cache.
ScheduleDecision compute_schedule(const FrameworkOptions& opts,
                                  LoadBalancer& balancer,
                                  const PerfCharacterization& perf,
                                  const DeviceHealthMonitor& health,
                                  DataAccessManagement& dam,
                                  const std::vector<bool>& active,
                                  int rf_holder, int active_refs, int rows) {
  ScheduleDecision out;
  const std::vector<int> sigma_r_prev = dam.deferred_rows();
  // A pinned R* on a quarantined device falls back to automatic selection.
  const int force_rstar = (opts.force_rstar_device >= 0 &&
                           health.schedulable(opts.force_rstar_device))
                              ? opts.force_rstar_device
                              : -1;
  auto rstar_of = [&] {
    return force_rstar >= 0 ? force_rstar
                            : balancer.select_rstar_device(perf, &active);
  };
  if (!perf.initialized(&active)) {
    // Initialization (Algorithm 1 line 3) — re-entered whenever a
    // probation device returns with its characterization evicted. Under a
    // churning grant the share-aware probe path keeps the measured
    // devices LP-balanced instead of re-initializing the whole frame; with
    // more devices than rows the LP runs over the measured ones.
    const std::vector<bool> known = balanceable_mask(perf, active, rows);
    if (opts.policy == SchedulingPolicy::kAdaptiveLp &&
        opts.lb.probe_rows > 0) {
      out.dist = balancer.balance_with_probes(perf, sigma_r_prev, force_rstar,
                                              &active, &out.lb);
    } else if (opts.policy == SchedulingPolicy::kAdaptiveLp &&
               !known.empty() && (force_rstar < 0 || known[force_rstar])) {
      out.dist = balancer.balance(perf, sigma_r_prev, force_rstar, &known,
                                  &out.lb);
    } else {
      out.dist = balancer.equidistant(rstar_of(), &active);
    }
  } else {
    switch (opts.policy) {
      case SchedulingPolicy::kAdaptiveLp:
        out.dist = balancer.balance(perf, sigma_r_prev, force_rstar, &active,
                                    &out.lb);
        break;
      case SchedulingPolicy::kProportional:
        out.dist = balancer.proportional(perf, sigma_r_prev, force_rstar,
                                         &active);
        break;
      case SchedulingPolicy::kEquidistant:
        out.dist = balancer.equidistant(rstar_of(), &active);
        break;
    }
  }
  const int n = static_cast<int>(active.size());
  out.run.assign(active.size(), false);
  for (int i = 0; i < n; ++i) {
    out.run[i] = active[i] && (out.dist.me[i] > 0 || out.dist.intp[i] > 0 ||
                               out.dist.sme[i] > 0 ||
                               i == out.dist.rstar_device);
  }
  out.plans = dam.plan_frame(out.dist, rf_holder, active_refs, &out.run);
  return out;
}

// Consume-time validation: the slot's speculation still matches this
// attempt's scheduling inputs — same schedulable set, R* holder and
// reference window, and every active device's characterization within the
// convergence epsilon of the snapshot the slot was solved under.
bool pipeline_slot_matches(const PipelineSlot& slot, int frame,
                           const std::vector<bool>& active, int rf_holder,
                           int active_refs, const PerfCharacterization& perf,
                           double epsilon) {
  if (!slot.valid || slot.frame != frame) return false;
  if (slot.active != active || slot.rf_holder != rf_holder ||
      slot.active_refs != active_refs) {
    return false;
  }
  if (epsilon <= 0.0) return false;
  double drift = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (!active[i]) continue;
    drift = std::max(
        drift, relative_drift(slot.params[i], perf.params(static_cast<int>(i))));
  }
  return drift < epsilon;
}

// One attempt's schedulable set: the health monitor's active mask
// intersected with the grant's device subset (a grant with no mask passes
// health through). Fails loudly when every granted device is quarantined:
// the session's arbiter must then be asked for a different share.
std::vector<bool> granted_active_mask(const DeviceHealthMonitor& health,
                                      const FrameGrant& grant, int frame) {
  std::vector<bool> active = health.active_mask();
  if (grant.devices == nullptr) return active;
  FEVES_CHECK_MSG(grant.devices->size() == active.size(),
                  "grant mask covers " << grant.devices->size()
                                       << " devices, topology has "
                                       << active.size());
  int n_active = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    active[i] = active[i] && (*grant.devices)[i];
    n_active += active[i] ? 1 : 0;
  }
  FEVES_CHECK_MSG(n_active > 0,
                  "frame " << frame
                           << ": every device in the session's grant is "
                              "quarantined");
  return active;
}

// Predicted-vs-measured per-module times: predicted = assigned rows × the
// K parameter the scheduler consumed (so call it before
// attribute_frame_times folds this frame in), measured = the op's span.
void fill_device_telemetry(const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           const PerfCharacterization& perf,
                           obs::SchedTelemetry* telemetry) {
  auto measured = [&](int id) {
    if (id < 0 || result.status[id] != OpStatus::kOk) return 0.0;
    return result.times[id].end_ms - result.times[id].start_ms;
  };
  const auto me_iv = intervals_of(dist.me);
  const auto l_iv = intervals_of(dist.intp);
  const auto s_iv = intervals_of(dist.sme);
  telemetry->dev.assign(static_cast<std::size_t>(topo.num_devices()),
                        obs::DeviceTelemetry{});
  for (int i = 0; i < topo.num_devices(); ++i) {
    const auto& d = ids.dev[i];
    const DeviceParams& p = perf.params(i);
    obs::DeviceTelemetry& t = telemetry->dev[i];
    t.me = {me_iv[i].length() * p.k_me, measured(d.me)};
    t.interp = {l_iv[i].length() * p.k_int, measured(d.intp)};
    t.sme = {s_iv[i].length() * p.k_sme, measured(d.sme)};
  }
}

}  // namespace

void attribute_frame_times(const EncoderConfig& cfg,
                           const PlatformTopology& topo,
                           const Distribution& dist, const FrameOpIds& ids,
                           const ExecutionResult& result,
                           PerfCharacterization* perf) {
  auto dur = [&](int id) {
    return result.times[id].end_ms - result.times[id].start_ms;
  };
  // Only cleanly completed ops are measurements. A timed-out op's span is
  // truncated at the watchdog deadline and a cancelled op's is zero; folding
  // either would poison the K parameters every later LP consumes (one hung
  // frame would make a device look infinitely fast / slow for frames after
  // its fault cleared).
  auto ok = [&](int id) { return id >= 0 && result.status[id] == OpStatus::kOk; };
  const auto me_iv = intervals_of(dist.me);
  const auto l_iv = intervals_of(dist.intp);
  const auto s_iv = intervals_of(dist.sme);

  for (int i = 0; i < topo.num_devices(); ++i) {
    const auto& d = ids.dev[i];
    if (ok(d.me)) {
      perf->observe_compute(i, ComputeModule::kMe, me_iv[i].length(),
                            dur(d.me));
    }
    if (ok(d.intp)) {
      perf->observe_compute(i, ComputeModule::kInt, l_iv[i].length(),
                            dur(d.intp));
    }
    if (ok(d.sme)) {
      perf->observe_compute(i, ComputeModule::kSme, s_iv[i].length(),
                            dur(d.sme));
    }
    if (ok(d.rstar)) perf->observe_rstar(i, dur(d.rstar));

    struct XferSlot {
      int id;
      XferPurpose purpose;
      int rows;
    };
    const int rows_total = cfg.num_mb_rows();
    const XferSlot slots[] = {
        {d.rf_in, XferPurpose::kRfIn, rows_total},
        {d.cf_me, XferPurpose::kCfMe, me_iv[i].length()},
        {d.cf_sme, XferPurpose::kCfSme, dist.delta_m[i]},
        {d.mv_sme, XferPurpose::kMvSme, dist.delta_m[i]},
        {d.sf_sme, XferPurpose::kSfSme, dist.delta_l[i]},
        {d.sf_complete, XferPurpose::kSfComplete, dist.sigma[i]},
        {d.mv_out, XferPurpose::kMvOut, me_iv[i].length()},
        {d.sf_out, XferPurpose::kSfOut, l_iv[i].length()},
        {d.sme_mv_out, XferPurpose::kSmeMvOut, s_iv[i].length()},
        {d.rf_out, XferPurpose::kRfOut, rows_total},
        {d.cf_mc, XferPurpose::kCfMc,
         rows_total - me_iv[i].length() - dist.delta_m[i]},
        {d.sf_mc, XferPurpose::kSfMc,
         rows_total - l_iv[i].length() - dist.delta_l[i]},
        {d.mv_mc, XferPurpose::kMvMc, rows_total - s_iv[i].length()},
    };
    for (const XferSlot& s : slots) {
      if (!ok(s.id) || s.rows <= 0) continue;
      perf->observe_transfer(i, buffer_of(s.purpose), direction_of(s.purpose),
                             s.rows, dur(s.id));
    }
  }
}

FrameLoop::FrameLoop(const EncoderConfig& cfg, const PlatformTopology& topo,
                     const FrameworkOptions& opts, FaultSchedule faults,
                     int next_frame, HostModel host)
    : cfg_(cfg),
      topo_(topo),
      opts_(opts),
      faults_(std::move(faults)),
      balancer_(cfg, topo, opts.lb, host),
      dam_(cfg, topo, opts.enable_data_reuse),
      perf_(topo.num_devices()),
      health_(topo.num_devices(), opts.health),
      next_frame_(next_frame) {
  cfg_.validate();
  topo_.validate();
  // The I frame (frame 0) bootstraps the first RF on the host, so every
  // accelerator must fetch it.
  rf_holder_ = topo_.cpu_index() >= 0 ? topo_.cpu_index() : 0;
}

FrameworkCheckpoint FrameLoop::checkpoint_state() const {
  FrameworkCheckpoint cp;
  cp.next_frame = next_frame_;
  cp.rf_holder = rf_holder_;
  cp.perf = perf_;
  cp.health = health_;
  return cp;
}

void FrameLoop::restore_state(const FrameworkCheckpoint& cp) {
  FEVES_CHECK_MSG(cp.perf.num_devices() == topo_.num_devices(),
                  "checkpoint covers " << cp.perf.num_devices()
                                       << " devices, topology has "
                                       << topo_.num_devices());
  next_frame_ = cp.next_frame;
  rf_holder_ = cp.rf_holder;
  perf_ = cp.perf;
  health_ = cp.health;
  slot_.valid = false;
  dam_.reset();
}

FrameStats FrameLoop::run_frame(int active_refs, const FrameGrant& grant) {
  const int frame = next_frame_;
  FrameStats stats;
  stats.frame_number = frame;
  stats.active_refs = active_refs;

  ExecuteOptions exec_opts;
  exec_opts.faults = faults_.plan(frame, topo_.num_devices());
  exec_opts.watchdog_ms = opts_.watchdog_ms;
  exec_opts.lease = grant.lease;
  obs::TraceSession* trace = opts_.trace;
  exec_opts.trace = trace;
  exec_opts.trace_frame = frame;

  // Recovery loop: a failed attempt never contributes output — its faulty
  // devices' streaks advance toward quarantine, the LP re-balances over
  // the survivors and the SAME frame runs again. Forward progress is
  // guaranteed because every failed attempt advances at least one device
  // toward quarantine (the fault plan is deterministic per frame).
  for (int attempt = 0;; ++attempt) {
    FEVES_CHECK_MSG(attempt <= kMaxFrameRetries,
                    "frame " << frame << ": no clean attempt within "
                             << kMaxFrameRetries << " retries");
    FEVES_CHECK_MSG(health_.num_schedulable() > 0,
                    "frame " << frame << ": every device is quarantined");
    const std::vector<bool> active = granted_active_mask(health_, grant, frame);
    // An RF holder that is quarantined or outside this frame's grant is
    // unreachable: every accelerator re-fetches.
    const int rf_holder = active[rf_holder_] ? rf_holder_ : -1;

    // ---- Load balancing (Algorithm 1 lines 3 / 8) -----------------------
    // Consume the pipeline slot when its speculation survived; otherwise
    // (or after a failed attempt) schedule synchronously from fresh state.
    Timer sched_timer;
    ScheduleDecision sd;
    bool from_pipeline = false;
    double overlapped_ms = 0.0;
    if (slot_.valid && slot_.frame == frame) {
      if (attempt == 0 &&
          pipeline_slot_matches(slot_, frame, active, rf_holder, active_refs,
                                perf_, opts_.lb.convergence_epsilon)) {
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
                            rf_holder, active_refs, cfg_.num_mb_rows());
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
      // A consumed slot was traced on the pipeline lane when it was
      // precomputed; only synchronous scheduling lands on the host lane.
      if (sd.lb.lp_solves > 0) {
        trace->add_host_event(frame, "lp_solve", obs::EventKind::kLpSolve,
                              sd.lb.lp_solve_ms);
      }
      trace->add_host_event(frame, "sched", obs::EventKind::kSched,
                            std::max(0.0, sched_ms - sd.lb.lp_solve_ms));
    }

    // ---- Orchestration + execution (lines 4 / 9) ------------------------
    prepare_attempt(frame, attempt, active_refs, sd.run);

    // The shadow, on a lane-runtime thread while the attempt executes:
    // once the LP can balance the active devices, solve frame+1's schedule
    // and plan its transfers on a copy of the Data Access state, plus the
    // mode's own shadow work. It sees only the pre-fold characterization —
    // it cannot know the measurements of the execution it overlaps — so its
    // result does not depend on timing; consume-time validation re-checks
    // the drift once they have folded. Disjoint state from the execution
    // (the shadow touches the balancer's warm cache, a DAM clone and the
    // mode's staging buffers), so no synchronization beyond the join. The
    // batch joins on destruction, keeping exception unwinds safe.
    // Recycled from the consumed slot: params capacity and the DAM copy
    // survive, so steady-state speculation allocates nothing up front.
    PipelineSlot next = std::move(slot_);
    next.valid = false;
    const bool speculate =
        opts_.enable_pipeline &&
        !balanceable_mask(perf_, active, cfg_.num_mb_rows()).empty();
    const int next_refs = std::min(active_refs + 1, cfg_.num_ref_frames);
    if (speculate) {
      // Speculate that next frame runs on the same schedulable set, with
      // this frame's R* host keeping the RF; probation readmissions and
      // grant changes surface as a consume-time mismatch.
      next.frame = frame + 1;
      next.active_refs = next_refs;
      next.active = active;
      next.rf_holder = dist.rstar_device;
      next.params.resize(static_cast<std::size_t>(topo_.num_devices()));
      for (int i = 0; i < topo_.num_devices(); ++i) {
        next.params[i] = perf_.params(i);
      }
    }
    std::optional<LaneRuntime::Batch> shadow_batch;
    if (opts_.enable_pipeline) {
      shadow_batch.emplace(lane_runtime(), 1, [&](int) {
        Timer spec_timer;
        if (speculate) {
          warm_before_spec_ = balancer_.warm_state();
          if (next.dam.has_value()) {
            *next.dam = dam_;  // plan against a copy; commit only on a hit
          } else {
            next.dam.emplace(dam_);
          }
          next.sched = compute_schedule(
              opts_, balancer_, perf_, health_, *next.dam, next.active,
              next.rf_holder, next.active_refs, cfg_.num_mb_rows());
        }
        shadow(sd.run, next_refs);
        if (speculate) {
          next.cost_ms = spec_timer.elapsed_ms();
          next.valid = true;
        }
      });
    }

    FrameOpIds ids;
    const ExecutionResult result =
        execute(frame, active_refs, sd, exec_opts, &ids);
    if (shadow_batch.has_value()) shadow_batch->join();
    stats.total_ms += result.makespan_ms;  // failed attempts burn time too

    if (!result.ok()) {
      ++stats.retries;
      if (next.valid) balancer_.set_warm_state(warm_before_spec_);
      for (int d : result.failed_devices()) {
        if (health_.record_failure(d)) {
          perf_.evict(d);
          dam_.evict(d);
          ++stats.devices_quarantined;
        }
      }
      attempt_failed();
      continue;
    }

    // ---- Characterization update (lines 5-6 / 10) -----------------------
    // Telemetry snapshots the K parameters the scheduler consumed, so it
    // must fill before this frame's measurements fold in.
    fill_device_telemetry(topo_, dist, ids, result, perf_, &stats.telemetry);
    attempt_succeeded(frame);
    stats.telemetry.predicted_tau1_ms = dist.tau1_ms;
    stats.telemetry.predicted_tau2_ms = dist.tau2_ms;
    stats.telemetry.predicted_tau_tot_ms = dist.tau_tot_ms;
    stats.telemetry.measured_tau_tot_ms = result.makespan_ms;
    attribute_frame_times(cfg_, topo_, dist, ids, result, &perf_);
    rf_holder_ = dist.rstar_device;
    stats.dist = dist;
    for (int i = 0; i < topo_.num_devices(); ++i) {
      if (active[i]) health_.record_success(i);
      if (sd.run[i]) ++stats.active_devices;
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
  return stats;
}

}  // namespace feves
