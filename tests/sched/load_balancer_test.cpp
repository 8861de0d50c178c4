#include "sched/load_balancer.hpp"

#include "common/rng.hpp"
#include "platform/perf_model.hpp"
#include "platform/presets.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace feves {
namespace {

EncoderConfig hd_config() {
  EncoderConfig cfg;  // 1920x1088
  cfg.search_range = 16;
  cfg.num_ref_frames = 1;
  return cfg;
}

/// Seeds the characterization from the analytical cost model, as one
/// equidistant frame would.
PerfCharacterization seeded_perf(const EncoderConfig& cfg,
                                 const PlatformTopology& topo,
                                 int active_refs = 1) {
  PerfCharacterization perf(topo.num_devices());
  for (int i = 0; i < topo.num_devices(); ++i) {
    const DeviceSpec& dev = topo.devices[i];
    DeviceParams p;
    p.k_me = me_rows_ms(dev, cfg, 1, active_refs);
    p.k_int = int_rows_ms(dev, cfg, 1);
    p.k_sme = sme_rows_ms(dev, cfg, 1, active_refs);
    p.t_rstar_ms = rstar_ms(dev, cfg);
    if (dev.is_accelerator()) {
      // Amortized per-row transfer costs (latency spread over ~20 rows).
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
    perf.seed(i, p);
  }
  return perf;
}

int sum(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

TEST(RoundPreservingSum, ExactTotalsAndDeterminism) {
  EXPECT_EQ(sum(round_preserving_sum({22.7, 22.7, 22.6}, 68)), 68);
  EXPECT_EQ(round_preserving_sum({1.5, 1.5}, 3), (std::vector<int>{2, 1}));
  EXPECT_EQ(round_preserving_sum({0.0, 5.0}, 5), (std::vector<int>{0, 5}));
  EXPECT_EQ(sum(round_preserving_sum({0.2, 0.2, 0.2, 0.2, 0.2}, 1)), 1);
  EXPECT_THROW(round_preserving_sum({10.0}, 5), Error);  // over-allocation
}

TEST(RoundPreservingSum, RandomizedConservation) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int total = static_cast<int>(rng.uniform_int(n, 200));
    std::vector<double> x(n);
    double left = total;
    for (int i = 0; i < n - 1; ++i) {
      x[i] = rng.uniform_real(0.0, left / 2);
      left -= x[i];
    }
    x[n - 1] = left;
    const auto r = round_preserving_sum(x, total);
    EXPECT_EQ(sum(r), total);
    for (int v : r) EXPECT_GE(v, 0);
  }
}

TEST(IntervalOps, DifferenceFragments) {
  // SME slice [5, 15) vs ME slice [8, 12): the two Fig 5(a) fragments.
  const auto frags = interval_difference({5, 15}, {8, 12});
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].begin, 5);
  EXPECT_EQ(frags[0].end, 8);
  EXPECT_EQ(frags[1].begin, 12);
  EXPECT_EQ(frags[1].end, 15);
  // Full overlap -> nothing extra to transfer.
  EXPECT_TRUE(interval_difference({5, 10}, {0, 20}).empty());
  // Disjoint -> whole slice is extra.
  EXPECT_EQ(interval_difference_rows({0, 5}, {10, 20}), 5);
}

TEST(LoadBalancer, EquidistantSplitsEvenly) {
  const auto cfg = hd_config();
  LoadBalancer lb(cfg, make_sys_nff());
  const auto d = lb.equidistant(1);
  d.check_conservation(68);
  EXPECT_EQ(d.me, (std::vector<int>{23, 23, 22}));
  EXPECT_EQ(d.me, d.intp);
  EXPECT_EQ(d.me, d.sme);
  EXPECT_EQ(d.rstar_device, 1);
}

TEST(LoadBalancer, ProportionalFollowsSpeeds) {
  const auto cfg = hd_config();
  const auto topo = make_sys_hk();
  LoadBalancer lb(cfg, topo);
  const auto perf = seeded_perf(cfg, topo);
  const auto d = lb.proportional(perf, {0, 0});
  d.check_conservation(68);
  // GPU_K's ME throughput is several times the Haswell's: the CPU share
  // must land well under a third of the rows.
  EXPECT_LT(d.me[0], 20);
  EXPECT_GT(d.me[1], 48);
}

TEST(LoadBalancer, BalanceConservesAndBeatsEquidistant) {
  const auto cfg = hd_config();
  for (const char* name : {"SysNF", "SysNFF", "SysHK"}) {
    const auto topo = topology_by_name(name);
    LoadBalancer lb(cfg, topo);
    const auto perf = seeded_perf(cfg, topo);
    std::vector<int> zeros(topo.num_devices(), 0);
    const auto d = lb.balance(perf, zeros);
    d.check_conservation(68);
    // The LP's own makespan estimate must beat a naive equidistant bound:
    // equidistant puts ~N/n ME rows on the slowest device.
    const double slow_k = perf.params(0).k_me;  // CPU is slowest in all three
    const double equi_tau1 = (68.0 / topo.num_devices()) * slow_k;
    EXPECT_LT(d.tau_tot_ms, equi_tau1 + 60.0) << name;
    EXPECT_GT(d.tau_tot_ms, 0.0) << name;
    // CPU must get less ME work than the accelerators.
    EXPECT_LT(d.me[0], d.me[1]) << name;
  }
}

TEST(LoadBalancer, SigmaAccountingConsistent) {
  const auto cfg = hd_config();
  const auto topo = make_sys_nff();
  LoadBalancer lb(cfg, topo);
  const auto perf = seeded_perf(cfg, topo);
  std::vector<int> zeros(3, 0);
  const auto d = lb.balance(perf, zeros);
  for (int i = 0; i < 3; ++i) {
    if (!topo.devices[i].is_accelerator() || i == d.rstar_device) {
      EXPECT_EQ(d.sigma[i] + d.sigma_r[i], 0) << "device " << i;
      continue;
    }
    // l + ∆l + σ + σ^r covers the whole SF.
    EXPECT_EQ(d.intp[i] + d.delta_l[i] + d.sigma[i] + d.sigma_r[i], 68)
        << "device " << i;
  }
}

TEST(LoadBalancer, DeltaBoundsMatchIntervalGeometry) {
  const auto cfg = hd_config();
  const auto topo = make_sys_hk();
  LoadBalancer lb(cfg, topo);
  const auto perf = seeded_perf(cfg, topo);
  const auto d = lb.balance(perf, {0, 0});
  const auto me_iv = intervals_of(d.me);
  const auto s_iv = intervals_of(d.sme);
  const auto l_iv = intervals_of(d.intp);
  const int halo = sme_sf_halo_rows(cfg);
  for (int i = 0; i < 2; ++i) {
    if (!topo.devices[i].is_accelerator()) continue;
    EXPECT_EQ(d.delta_m[i], interval_difference_rows(s_iv[i], me_iv[i]));
    int dl = 0;
    for (const auto& f :
         interval_difference(halo_extend(s_iv[i], halo, 68), l_iv[i])) {
      dl += f.length();
    }
    EXPECT_EQ(d.delta_l[i], dl);
  }
}

TEST(LoadBalancer, RstarSelectionPrefersFastDeviceNetOfTransfers) {
  const auto cfg = hd_config();
  const auto topo = make_sys_hk();
  LoadBalancer lb(cfg, topo);
  auto perf = seeded_perf(cfg, topo);
  // GPU_K's R* is much faster than the CPU's: GPU-centric wins.
  EXPECT_EQ(lb.select_rstar_device(perf), 1);
  // Make the GPU's R* pathologically slow: CPU-centric takes over.
  DeviceParams slow = perf.params(1);
  slow.t_rstar_ms = 500.0;
  perf.seed(1, slow);
  EXPECT_EQ(lb.select_rstar_device(perf), 0);
}

TEST(LoadBalancer, AdaptsToSlowedDevice) {
  // Fig 7's adaptation property at the LB level: slow one device's K's and
  // its share must shrink.
  const auto cfg = hd_config();
  const auto topo = make_sys_hk();
  LoadBalancer lb(cfg, topo);
  auto perf = seeded_perf(cfg, topo);
  const auto before = lb.balance(perf, {0, 0});

  DeviceParams slowed = perf.params(1);
  slowed.k_me *= 4.0;
  slowed.k_sme *= 4.0;
  slowed.k_int *= 4.0;
  perf.seed(1, slowed);
  const auto after = lb.balance(perf, {0, 0});
  EXPECT_LT(after.me[1], before.me[1]);
  EXPECT_GT(after.me[0], before.me[0]);
}

TEST(LoadBalancer, SfDeferralAblationForcesInFrameCompletion) {
  const auto cfg = hd_config();
  const auto topo = make_sys_nff();
  LoadBalancerOptions opts;
  opts.enable_sf_deferral = false;
  LoadBalancer lb(cfg, topo, opts);
  const auto perf = seeded_perf(cfg, topo);
  const auto d = lb.balance(perf, {0, 0, 0});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(d.sigma_r[i], 0) << "deferral disabled but device " << i
                               << " deferred rows";
  }
}

TEST(LoadBalancer, BalanceRequiresCharacterization) {
  const auto cfg = hd_config();
  LoadBalancer lb(cfg, make_sys_nf());
  PerfCharacterization perf(2);
  EXPECT_THROW(lb.balance(perf, {0, 0}), Error);
}

/// Property sweep: randomized device speeds must always yield conserved,
/// non-negative distributions whose LP estimate is feasible-looking.
class BalanceRandomized : public ::testing::TestWithParam<int> {};

TEST_P(BalanceRandomized, ConservationAndSanity) {
  Rng rng(static_cast<u64>(GetParam()) * 1299709 + 11);
  EncoderConfig cfg = hd_config();
  cfg.num_ref_frames = 1 + static_cast<int>(rng.uniform_int(0, 3));
  auto topo = make_sys_nff();
  // Randomize throughputs within a decade.
  for (auto& dev : topo.devices) {
    const double f = rng.uniform_real(0.2, 5.0);
    dev.tput.me_ops_per_ms *= f;
    dev.tput.sme_ops_per_ms *= rng.uniform_real(0.2, 5.0);
    dev.tput.int_pix_per_ms *= rng.uniform_real(0.2, 5.0);
  }
  LoadBalancer lb(cfg, topo);
  const auto perf = seeded_perf(cfg, topo, cfg.num_ref_frames);
  std::vector<int> sr(3, 0);
  sr[2] = static_cast<int>(rng.uniform_int(0, 30));
  const auto d = lb.balance(perf, sr);
  d.check_conservation(68);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(d.me[i], 0);
    EXPECT_GE(d.sigma[i], 0);
    EXPECT_GE(d.sigma_r[i], 0);
    EXPECT_GE(d.delta_m[i], 0);
    EXPECT_GE(d.delta_l[i], 0);
  }
  EXPECT_GE(d.tau_tot_ms, d.tau2_ms - 1e-9);
  EXPECT_GE(d.tau2_ms, d.tau1_ms - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSpeeds, BalanceRandomized,
                         ::testing::Range(0, 30));

// ---- Share-aware probe balancing (multi-session grant churn) --------------

TEST(BalanceWithProbes, UncharacterizedNewcomersGetProbeSlices) {
  // A session's grant churned in device 3, never measured by this session:
  // the LP must still balance the characterized devices while the newcomer
  // receives a small probe slice of every module so it earns parameters.
  const auto cfg = hd_config();
  auto topo = topology_by_name("SysNFF");
  auto extra = topo.devices.back();
  extra.name = "GPU_NEW";
  topo.devices.push_back(extra);

  LoadBalancerOptions opts;
  opts.probe_rows = 2;
  LoadBalancer lb(cfg, topo, opts);

  // Seed only the first three devices; device 3 stays unknown.
  const auto seeded3 = seeded_perf(cfg, topology_by_name("SysNFF"));
  PerfCharacterization perf(4);
  for (int i = 0; i < 3; ++i) perf.seed(i, seeded3.params(i));

  const std::vector<bool> active(4, true);
  std::vector<int> zeros(4, 0);
  const auto d = lb.balance_with_probes(perf, zeros, -1, &active);
  d.check_conservation(68);
  EXPECT_GT(d.me[3], 0) << "newcomer must get an ME probe";
  EXPECT_LE(d.me[3], opts.probe_rows);
  EXPECT_GT(d.intp[3], 0) << "newcomer must get an INT probe";
  EXPECT_GT(d.sme[3], 0) << "newcomer must get an SME probe";
  // The characterized devices still carry nearly everything.
  EXPECT_GT(d.me[1] + d.me[2], 40);
}

TEST(BalanceWithProbes, FullyCharacterizedFallsBackToPlainBalance) {
  const auto cfg = hd_config();
  const auto topo = topology_by_name("SysNFF");
  LoadBalancerOptions opts;
  opts.probe_rows = 2;
  LoadBalancer lb(cfg, topo, opts);
  const auto perf = seeded_perf(cfg, topo);
  std::vector<int> zeros(3, 0);
  const std::vector<bool> active(3, true);
  const auto probed = lb.balance_with_probes(perf, zeros, -1, &active);
  const auto plain = lb.balance(perf, zeros, -1, &active);
  EXPECT_EQ(probed.me, plain.me);
  EXPECT_EQ(probed.intp, plain.intp);
  EXPECT_EQ(probed.sme, plain.sme);
  EXPECT_EQ(probed.rstar_device, plain.rstar_device);
}

TEST(BalanceWithProbes, NothingCharacterizedFallsBackToEquidistant) {
  const auto cfg = hd_config();
  const auto topo = topology_by_name("SysNFF");
  LoadBalancerOptions opts;
  opts.probe_rows = 2;
  LoadBalancer lb(cfg, topo, opts);
  PerfCharacterization perf(3);  // nobody measured yet
  std::vector<int> zeros(3, 0);
  const std::vector<bool> active(3, true);
  const auto d = lb.balance_with_probes(perf, zeros, -1, &active);
  d.check_conservation(68);
  // Equidistant shape: every active device within one row of 68/3.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(d.me[i], 68.0 / 3.0, 1.0) << "device " << i;
  }
}

// ---- Device-count selection ----------------------------------------------

struct PinnedDistribution {
  const char* system;
  std::vector<int> me, intp, sme, sigma;
  int rstar;
  double tau_tot_ms;
};

TEST(DeviceSelection, PaperSystemsUseEveryDevice) {
  // On the paper's dedicated-device systems every device lowers τtot, so
  // selection keeps all of them and returns exactly the distribution of an
  // LP over the whole set (recorded from the balancer before selection
  // existed).
  const std::vector<PinnedDistribution> pinned = {
      {"SysNF", {15, 53}, {66, 2}, {29, 39}, {0, 0}, 1, 37.144682051294865},
      {"SysNFF", {6, 32, 30}, {65, 2, 1}, {19, 24, 25}, {0, 0, 41}, 1,
       24.477677954332535},
      {"SysHK", {12, 56}, {65, 3}, {26, 42}, {0, 0}, 1, 20.135416612089095},
  };
  const auto cfg = hd_config();
  for (const PinnedDistribution& want : pinned) {
    SCOPED_TRACE(want.system);
    const auto topo = topology_by_name(want.system);
    LoadBalancer lb(cfg, topo);
    BalanceStats stats;
    const std::vector<int> zeros(static_cast<std::size_t>(topo.num_devices()),
                                 0);
    const auto d = lb.balance(seeded_perf(cfg, topo), zeros, -1, nullptr,
                              &stats);
    EXPECT_EQ(d.me, want.me);
    EXPECT_EQ(d.intp, want.intp);
    EXPECT_EQ(d.sme, want.sme);
    EXPECT_EQ(d.sigma, want.sigma);
    EXPECT_EQ(d.rstar_device, want.rstar);
    EXPECT_DOUBLE_EQ(d.tau_tot_ms, want.tau_tot_ms);
    // One ∆ fix-point per prefix size, each at least one solve.
    EXPECT_GE(stats.lp_solves, topo.num_devices());
  }
}

TEST(DeviceSelection, FixedCostLeavesOutAnAcceleratorThatDoesNotPay) {
  // SysNFF whose second GPU computes slower than the CPU (so it is tried
  // last) and pays a whole-frame RF fetch N·K^{rf,hd} larger than the time
  // its share of the work could save: it must get no rows, exactly as if
  // it were quarantined.
  const auto cfg = hd_config();
  const auto topo = make_sys_nff();
  auto perf = seeded_perf(cfg, topo);
  DeviceParams slow = perf.params(2);
  const DeviceParams& cpu = perf.params(0);
  slow.k_me = 1.5 * cpu.k_me;
  slow.k_int = 1.5 * cpu.k_int;
  slow.k_sme = 1.5 * cpu.k_sme;
  slow.k_xfer[static_cast<int>(BufferKind::kRf)]
             [static_cast<int>(Direction::kHostToDevice)] = 0.5;
  perf.seed(2, slow);

  const std::vector<int> zeros(3, 0);
  LoadBalancer lb(cfg, topo);
  const auto d = lb.balance(perf, zeros);
  d.check_conservation(cfg.num_mb_rows());
  EXPECT_EQ(d.me[2] + d.intp[2] + d.sme[2], 0);
  EXPECT_EQ(d.sigma[2] + d.sigma_r[2], 0);
  EXPECT_NE(d.rstar_device, 2);
  EXPECT_GT(d.me[0] + d.intp[0] + d.sme[0], 0) << "the CPU still pays";

  LoadBalancer quarantined(cfg, topo);
  const std::vector<bool> without2 = {true, true, false};
  const auto q = quarantined.balance(perf, zeros, -1, &without2);
  EXPECT_EQ(d.me, q.me);
  EXPECT_EQ(d.intp, q.intp);
  EXPECT_EQ(d.sme, q.sme);
  EXPECT_EQ(d.rstar_device, q.rstar_device);
  EXPECT_DOUBLE_EQ(d.tau_tot_ms, q.tau_tot_ms);
}

TEST(DeviceSelection, SharedHostRunsOnOneDevice) {
  // Real mode's shared host: every device computes on the same cores, so
  // an extra device adds copies and no compute. With the CPU granted it
  // takes every row and R*; without it, one accelerator does.
  const auto cfg = hd_config();
  const auto topo = make_pool(3);
  const auto perf = seeded_perf(cfg, topo);
  const int rows = cfg.num_mb_rows();
  const std::vector<int> zeros(4, 0);

  LoadBalancer lb(cfg, topo, {}, HostModel::kShared);
  EXPECT_EQ(lb.select_rstar_device(perf), 0);
  const auto d = lb.balance(perf, zeros);
  EXPECT_EQ(d.rstar_device, 0);
  EXPECT_EQ(d.me[0], rows);
  EXPECT_EQ(d.intp[0], rows);
  EXPECT_EQ(d.sme[0], rows);

  const std::vector<bool> no_cpu = {false, true, true, true};
  const auto a = lb.balance(perf, zeros, -1, &no_cpu);
  a.check_conservation(rows);
  int running = 0;
  for (int i = 0; i < 4; ++i) {
    if (a.me[i] + a.intp[i] + a.sme[i] > 0) ++running;
  }
  EXPECT_EQ(running, 1);
  EXPECT_EQ(a.rstar_device, 1) << "ties go to the lowest index";
  EXPECT_EQ(a.me[1], rows);
  EXPECT_EQ(a.intp[1], rows);
  EXPECT_EQ(a.sme[1], rows);

  // The same platform on dedicated devices spreads the work.
  LoadBalancer dedicated(cfg, topo);
  const auto spread = dedicated.balance(perf, zeros);
  int spread_running = 0;
  for (int i = 0; i < 4; ++i) {
    if (spread.me[i] + spread.intp[i] + spread.sme[i] > 0) ++spread_running;
  }
  EXPECT_GT(spread_running, 1);
}

TEST(SharedHostView, EveryActiveDeviceGetsTheFastestMeasurement) {
  PerfCharacterization perf(3);
  DeviceParams a, b, c;
  a.k_me = 2.0; a.k_int = 0.5; a.k_sme = 1.0; a.t_rstar_ms = 9.0;
  b.k_me = 1.0; b.k_int = 0.8; b.k_sme = 3.0; b.t_rstar_ms = 7.0;
  b.k_xfer[0][0] = 0.2;
  c.k_me = 0.1;  // inactive: neither contributes nor changes
  perf.seed(0, a);
  perf.seed(1, b);
  perf.seed(2, c);
  const std::vector<bool> active = {true, true, false};
  const PerfCharacterization view = shared_host_view(perf, &active);
  for (int i = 0; i < 2; ++i) {
    const DeviceParams& p = view.params(i);
    EXPECT_DOUBLE_EQ(p.k_me, 1.0);
    EXPECT_DOUBLE_EQ(p.k_int, 0.5);
    EXPECT_DOUBLE_EQ(p.k_sme, 1.0);
    EXPECT_DOUBLE_EQ(p.t_rstar_ms, 7.0);
    EXPECT_DOUBLE_EQ(p.k_xfer[0][0], 0.2) << "unmeasured fields take none";
  }
  EXPECT_DOUBLE_EQ(view.params(2).k_me, 0.1);
}

}  // namespace
}  // namespace feves
