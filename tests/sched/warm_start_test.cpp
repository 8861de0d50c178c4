// Property tests for the load balancer's LP warm-starting and convergence
// skip: across randomized characterization-perturbation sequences —
// including forced quarantine transitions mid-sequence — a warm-started
// balancer must land on the same objective as a cold-solved one, and the
// convergence detector must only reuse a distribution it is entitled to.
#include "sched/load_balancer.hpp"

#include "common/rng.hpp"
#include "platform/perf_model.hpp"
#include "platform/presets.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace feves {
namespace {

EncoderConfig hd_config() {
  EncoderConfig cfg;  // 1920x1088 -> 68 MB rows
  cfg.search_range = 16;
  cfg.num_ref_frames = 1;
  return cfg;
}

/// Seeds the characterization from the analytical cost model, as one
/// equidistant frame would.
DeviceParams model_params(const DeviceSpec& dev, const EncoderConfig& cfg,
                          int active_refs = 1) {
  DeviceParams p;
  p.k_me = me_rows_ms(dev, cfg, 1, active_refs);
  p.k_int = int_rows_ms(dev, cfg, 1);
  p.k_sme = sme_rows_ms(dev, cfg, 1, active_refs);
  p.t_rstar_ms = rstar_ms(dev, cfg);
  if (dev.is_accelerator()) {
    auto hd = [&](double bytes) {
      return (dev.link.latency_ms / 20.0) + bytes / dev.link.h2d_bytes_per_ms;
    };
    auto dh = [&](double bytes) {
      return (dev.link.latency_ms / 20.0) + bytes / dev.link.d2h_bytes_per_ms;
    };
    p.k_xfer[0][0] = hd(cf_row_bytes(cfg));
    p.k_xfer[0][1] = dh(cf_row_bytes(cfg));
    p.k_xfer[1][0] = hd(rf_row_bytes(cfg));
    p.k_xfer[1][1] = dh(rf_row_bytes(cfg));
    p.k_xfer[2][0] = hd(sf_row_bytes(cfg));
    p.k_xfer[2][1] = dh(sf_row_bytes(cfg));
    p.k_xfer[3][0] = hd(mv_row_bytes(cfg, active_refs));
    p.k_xfer[3][1] = dh(mv_row_bytes(cfg, active_refs));
  }
  return p;
}

DeviceParams perturbed(const DeviceParams& base, Rng& rng, double spread) {
  auto jitter = [&](double v) { return v * rng.uniform_real(1.0 - spread,
                                                            1.0 + spread); };
  DeviceParams p = base;
  p.k_me = jitter(p.k_me);
  p.k_int = jitter(p.k_int);
  p.k_sme = jitter(p.k_sme);
  p.t_rstar_ms = jitter(p.t_rstar_ms);
  for (int buf = 0; buf < 4; ++buf) {
    for (int dir = 0; dir < 2; ++dir) {
      if (p.k_xfer[buf][dir] > 0) p.k_xfer[buf][dir] = jitter(p.k_xfer[buf][dir]);
    }
  }
  return p;
}

class WarmStartProperty : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartProperty, WarmAgreesWithColdAcrossPerturbations) {
  const EncoderConfig cfg = hd_config();
  const PlatformTopology topo = topology_by_name("SysNFF");
  const int n = topo.num_devices();

  LoadBalancerOptions warm_opts;
  warm_opts.enable_warm_start = true;
  warm_opts.convergence_epsilon = 0.0;  // compare solves, never skip
  LoadBalancerOptions cold_opts;
  cold_opts.enable_warm_start = false;
  LoadBalancer warm_lb(cfg, topo, warm_opts);
  LoadBalancer cold_lb(cfg, topo, cold_opts);

  Rng rng(static_cast<u64>(GetParam()) * 6151 + 3);
  PerfCharacterization perf(n);
  for (int i = 0; i < n; ++i) perf.seed(i, model_params(topo.devices[i], cfg));

  std::vector<bool> active(static_cast<std::size_t>(n), true);
  const std::vector<int> zeros(static_cast<std::size_t>(n), 0);
  BalanceStats warm_total;
  for (int frame = 0; frame < 60; ++frame) {
    // EWMA-sized drift every frame; a forced quarantine transition on an
    // accelerator every 17th frame (evicting its characterization, exactly
    // as the health monitor does), re-admitting it 5 frames later.
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      perf.seed(i, perturbed(perf.params(i), rng, 0.08));
    }
    if (frame % 17 == 9) {
      const int victim = 1 + static_cast<int>(rng.uniform_int(0, n - 2));
      active[victim] = false;
      perf.evict(victim);
    } else if (frame % 17 == 14) {
      for (int i = 1; i < n; ++i) {
        if (!active[i]) {
          active[i] = true;
          perf.seed(i, model_params(topo.devices[i], cfg));
        }
      }
    }

    BalanceStats ws, cs;
    const Distribution dw = warm_lb.balance(perf, zeros, -1, &active, &ws);
    const Distribution dc = cold_lb.balance(perf, zeros, -1, &active, &cs);
    warm_total.lp_warm_solves += ws.lp_warm_solves;
    warm_total.lp_skipped += ws.lp_skipped;
    warm_total.lp_solves += ws.lp_solves;

    dw.check_conservation(cfg.num_mb_rows());
    dc.check_conservation(cfg.num_mb_rows());
    // Same LP, so the same optimal objective — the basis' origin must not
    // leak into the result (degenerate optima may pick different vertices,
    // hence objective agreement rather than row-for-row equality).
    ASSERT_GT(dc.tau_tot_ms, 0.0) << "frame " << frame;
    EXPECT_NEAR(dw.tau_tot_ms, dc.tau_tot_ms, 1e-6 * dc.tau_tot_ms)
        << "frame " << frame;
    EXPECT_EQ(ws.lp_skipped, 0) << "epsilon=0 must disable the skip path";
  }
  EXPECT_GT(warm_total.lp_warm_solves, 0)
      << "steady perturbations should keep the warm basis usable";
  EXPECT_LT(warm_total.lp_warm_solves, warm_total.lp_solves)
      << "quarantine transitions must force cold solves";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartProperty, ::testing::Range(0, 8));

TEST(WarmStartSkip, ConvergedSequenceSkipsAndQuarantineInvalidates) {
  const EncoderConfig cfg = hd_config();
  const PlatformTopology topo = topology_by_name("SysNFF");
  const int n = topo.num_devices();

  LoadBalancerOptions opts;
  opts.enable_warm_start = true;
  opts.convergence_epsilon = 0.05;
  LoadBalancer lb(cfg, topo, opts);
  LoadBalancer cold_lb(cfg, topo);  // reference for staleness bound

  Rng rng(4242);
  PerfCharacterization perf(n);
  for (int i = 0; i < n; ++i) perf.seed(i, model_params(topo.devices[i], cfg));

  std::vector<bool> active(static_cast<std::size_t>(n), true);
  const std::vector<int> zeros(static_cast<std::size_t>(n), 0);
  BalanceStats total;
  for (int frame = 0; frame < 20; ++frame) {
    // Sub-epsilon drift: after the first solve, every frame should skip.
    for (int i = 0; i < n; ++i) {
      perf.seed(i, perturbed(perf.params(i), rng, 0.002));
    }
    BalanceStats s;
    const Distribution d = lb.balance(perf, zeros, -1, &active, &s);
    total.lp_solves += s.lp_solves;
    total.lp_skipped += s.lp_skipped;
    d.check_conservation(cfg.num_mb_rows());
    // A skipped frame reuses the cached distribution; it may be stale by at
    // most epsilon, so its objective stays close to a fresh solve's.
    const Distribution fresh = cold_lb.balance(perf, zeros, -1, &active);
    EXPECT_NEAR(d.tau_tot_ms, fresh.tau_tot_ms, 0.15 * fresh.tau_tot_ms)
        << "frame " << frame;
  }
  EXPECT_GT(total.lp_skipped, 10) << "converged sequence must skip";

  // Quarantine transition: the active mask changed, so the very next call
  // must not skip (and must still conserve over the survivors).
  active[2] = false;
  perf.evict(2);
  BalanceStats s;
  const Distribution d = lb.balance(perf, zeros, -1, &active, &s);
  EXPECT_EQ(s.lp_skipped, 0);
  EXPECT_GE(s.lp_solves, 1);
  d.check_conservation(cfg.num_mb_rows());
  EXPECT_EQ(d.me[2] + d.intp[2] + d.sme[2], 0);

  // Clearing the warm-start cache kills the skip path and
  // the cross-frame basis: the first ∆-iteration LP must solve cold (later
  // iterations may still chain off it within the frame).
  lb.set_warm_state(LoadBalancer::WarmState{});
  BalanceStats s2;
  lb.balance(perf, zeros, -1, &active, &s2);
  EXPECT_EQ(s2.lp_skipped, 0);
  EXPECT_LT(s2.lp_warm_solves, s2.lp_solves);
}

}  // namespace
}  // namespace feves
