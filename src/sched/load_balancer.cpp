#include "sched/load_balancer.hpp"

#include "graph/dijkstra.hpp"
#include "lp/simplex.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

namespace feves {

namespace {

/// Fix-point iterations over MS_BOUNDS/LS_BOUNDS.
constexpr int kMaxDeltaIterations = 4;
/// Objective weight on deferred SF rows (must stay << 1/N so it never
/// trades against τtot).
constexpr double kSigmaEpsilon = 1e-5;

double kx(const DeviceParams& p, BufferKind b, Direction d) {
  return p.k_xfer[static_cast<int>(b)][static_cast<int>(d)];
}

}  // namespace

std::vector<int> round_preserving_sum(const std::vector<double>& x,
                                      int total) {
  const int n = static_cast<int>(x.size());
  std::vector<int> out(n, 0);
  std::vector<std::pair<double, int>> remainder(n);
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    FEVES_CHECK_MSG(x[i] >= -1e-9, "negative allocation " << x[i]);
    const double v = std::max(0.0, x[i]);
    out[i] = static_cast<int>(v);
    assigned += out[i];
    remainder[i] = {v - out[i], i};
  }
  FEVES_CHECK_MSG(assigned <= total,
                  "allocation " << assigned << " exceeds total " << total);
  // Hand out the leftover rows to the largest fractional parts; ties break
  // to the lower device index for determinism.
  std::sort(remainder.begin(), remainder.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (int k = 0; k < total - assigned; ++k) {
    out[remainder[k % n].second] += 1;
  }
  return out;
}

LoadBalancer::LoadBalancer(const EncoderConfig& cfg,
                           const PlatformTopology& topo,
                           LoadBalancerOptions opts, HostModel host)
    : cfg_(cfg), topo_(topo), opts_(opts), host_(host) {
  cfg_.validate();
  topo_.validate();
}

int LoadBalancer::count_active(const std::vector<bool>* active) const {
  if (active == nullptr) return topo_.num_devices();
  FEVES_CHECK(static_cast<int>(active->size()) == topo_.num_devices());
  int n = 0;
  for (bool a : *active) n += a ? 1 : 0;
  FEVES_CHECK_MSG(n >= 1, "no active devices left to balance over");
  return n;
}

Distribution LoadBalancer::equidistant(int rstar_device,
                                       const std::vector<bool>* active) const {
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  const int n_active = count_active(active);
  Distribution d;
  d.rstar_device = rstar_device;
  FEVES_CHECK_MSG(device_active(active, rstar_device),
                  "R* device " << rstar_device << " is not active");
  std::vector<double> equal(n, 0.0);
  for (int i = 0; i < n; ++i) {
    if (device_active(active, i)) {
      equal[i] = static_cast<double>(rows) / n_active;
    }
  }
  d.me = round_preserving_sum(equal, rows);
  d.intp = d.me;
  d.sme = d.me;
  d.delta_m.assign(n, 0);
  d.delta_l.assign(n, 0);
  d.sigma.assign(n, 0);
  d.sigma_r.assign(n, 0);
  // Equidistant mode transfers the full SF completion within the frame.
  for (int i = 0; i < n; ++i) {
    if (!device_active(active, i)) continue;
    if (topo_.devices[i].is_accelerator() && i != rstar_device) {
      d.sigma[i] = rows - d.intp[i];
    }
  }
  // ∆ bounds still apply: identical slices make them zero by construction,
  // but rounding can shift interval edges by a row.
  auto me_iv = intervals_of(d.me);
  auto l_iv = intervals_of(d.intp);
  auto s_iv = intervals_of(d.sme);
  for (int i = 0; i < n; ++i) {
    if (!device_active(active, i)) continue;
    if (!topo_.devices[i].is_accelerator()) continue;
    d.delta_m[i] = interval_difference_rows(s_iv[i], me_iv[i]);
    d.delta_l[i] = interval_difference_rows(s_iv[i], l_iv[i]);
  }
  d.check_conservation(rows);
  return d;
}

int LoadBalancer::select_rstar_device(const PerfCharacterization& perf,
                                      const std::vector<bool>* active) const {
  count_active(active);  // validates mask size and non-emptiness
  if (host_ == HostModel::kShared) {
    return select_rstar_in(shared_host_view(perf, active), active);
  }
  return select_rstar_in(perf, active);
}

int LoadBalancer::select_rstar_in(const PerfCharacterization& perf,
                                  const std::vector<bool>* active) const {
  const int n = topo_.num_devices();
  // Before characterization, default to the first active accelerator
  // (GPU-centric, the paper's common case), falling back to the first
  // active device.
  bool any_rstar = false;
  for (int i = 0; i < n; ++i) {
    if (device_active(active, i) && perf.params(i).t_rstar_ms > 0) {
      any_rstar = true;
    }
  }
  if (!any_rstar) {
    for (int i = 0; i < n; ++i) {
      if (device_active(active, i) && topo_.devices[i].is_accelerator()) {
        return i;
      }
    }
    for (int i = 0; i < n; ++i) {
      if (device_active(active, i)) return i;
    }
    return 0;
  }

  // A device that is active and compute-characterized but carries no R*
  // measurement (its parameters were evicted during quarantine) must not be
  // locked out of R* hosting forever: estimate its R* time from a measured
  // device's, scaled by relative ME speed. If the estimate wins the shortest
  // path the device hosts R* once and earns a real measurement, so an
  // optimistic guess self-corrects after a single frame.
  auto estimate_rstar = [&](const DeviceParams& p) {
    double best = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!device_active(active, j)) continue;
      const DeviceParams& q = perf.params(j);
      if (q.t_rstar_ms <= 0 || q.k_me <= 0 || p.k_me <= 0) continue;
      const double est = q.t_rstar_ms * p.k_me / q.k_me;
      if (best == 0.0 || est < best) best = est;
    }
    return best;
  };

  // Graph: source(0) -> device node (1+i) -> sink (1+n). The in-edge
  // carries the data staging cost (missing SF/CF/MV for MC on an
  // accelerator), the out-edge carries R* compute plus shipping the
  // reconstructed RF home.
  const int rows = cfg_.num_mb_rows();
  graph::Graph g(n + 2);
  const int sink = n + 1;
  for (int i = 0; i < n; ++i) {
    if (!device_active(active, i)) continue;  // quarantined: not a candidate
    const DeviceParams& p = perf.params(i);
    double t_rstar = p.t_rstar_ms;
    if (t_rstar <= 0) t_rstar = estimate_rstar(p);
    if (t_rstar <= 0) continue;  // no measurement and no basis to estimate
    double stage_in = 0.0;
    double ship_out = 0.0;
    if (topo_.devices[i].is_accelerator()) {
      // Rough staging volume: the MC inputs it would not already hold.
      stage_in = rows * 0.5 *
                 (kx(p, BufferKind::kCf, Direction::kHostToDevice) +
                  kx(p, BufferKind::kSf, Direction::kHostToDevice));
      ship_out = rows * kx(p, BufferKind::kRf, Direction::kDeviceToHost);
    }
    g.add_edge(0, 1 + i, stage_in);
    g.add_edge(1 + i, sink, t_rstar + ship_out);
  }
  const auto sp = graph::dijkstra(g, 0);
  if (sp.distance[sink] == graph::kUnreachable) {
    for (int i = 0; i < n; ++i) {
      if (device_active(active, i) && topo_.devices[i].is_accelerator()) {
        return i;
      }
    }
    for (int i = 0; i < n; ++i) {
      if (device_active(active, i)) return i;
    }
  }
  const auto path = sp.path_to(sink);
  FEVES_CHECK(path.size() == 3);
  return path[1] - 1;
}

Distribution LoadBalancer::proportional(const PerfCharacterization& perf,
                                        const std::vector<int>& sigma_r_prev,
                                        int force_rstar,
                                        const std::vector<bool>* active) const {
  FEVES_CHECK(perf.initialized(active));
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  count_active(active);

  auto split_by = [&](auto speed_of) {
    std::vector<double> share(n);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const double k = device_active(active, i) ? speed_of(perf.params(i)) : 0;
      share[i] = k > 0 ? 1.0 / k : 0.0;
      total += share[i];
    }
    FEVES_CHECK_MSG(total > 0, "no active device has a known speed");
    for (double& s : share) s = s / total * rows;
    return round_preserving_sum(share, rows);
  };

  Distribution d;
  d.rstar_device =
      force_rstar >= 0 ? force_rstar : select_rstar_device(perf, active);
  FEVES_CHECK(d.rstar_device < n);
  FEVES_CHECK_MSG(device_active(active, d.rstar_device),
                  "R* device " << d.rstar_device << " is not active");
  d.me = split_by([](const DeviceParams& p) { return p.k_me; });
  d.intp = split_by([](const DeviceParams& p) { return p.k_int; });
  d.sme = split_by([](const DeviceParams& p) { return p.k_sme; });
  d.delta_m.assign(n, 0);
  d.delta_l.assign(n, 0);
  d.sigma.assign(n, 0);
  d.sigma_r.assign(n, 0);
  (void)sigma_r_prev;
  finalize_bounds(&d, perf, active);
  d.check_conservation(rows);
  return d;
}

Distribution LoadBalancer::balance(const PerfCharacterization& perf,
                                   const std::vector<int>& sigma_r_prev,
                                   int force_rstar,
                                   const std::vector<bool>* active,
                                   BalanceStats* stats) {
  FEVES_CHECK_MSG(perf.initialized(active),
                  "balance() before performance characterization");
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  FEVES_CHECK(static_cast<int>(sigma_r_prev.size()) == n);
  count_active(active);

  std::optional<PerfCharacterization> host_view;
  if (host_ == HostModel::kShared) {
    host_view.emplace(shared_host_view(perf, active));
  }
  const PerfCharacterization& view = host_view ? *host_view : perf;

  const int rstar =
      force_rstar >= 0 ? force_rstar : select_rstar_in(view, active);
  FEVES_CHECK(rstar < n);
  FEVES_CHECK_MSG(device_active(active, rstar),
                  "R* device " << rstar << " is not active");

  std::vector<bool> act(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) act[i] = device_active(active, i);

  // The cache only speaks for this exact scheduling situation: any change
  // in the schedulable set (quarantine, probation return, grant churn), the
  // R* placement or the deferred-SF state is a different LP — cold path.
  const bool cache_matches = warm_.valid && warm_.rstar == rstar &&
                             warm_.active == act &&
                             warm_.sigma_r_prev == sigma_r_prev;

  // Convergence detector: under epsilon drift the cached distribution is
  // still (near-)optimal — return it without solving. A mispredict spike or
  // an eviction zeroes/steps the parameters past any sane epsilon, so the
  // fault path always re-solves.
  if (opts_.enable_warm_start && opts_.convergence_epsilon > 0.0 &&
      cache_matches) {
    double drift = 0.0;
    for (int i = 0; i < n; ++i) {
      if (!act[i]) continue;
      drift = std::max(drift, relative_drift(warm_.params[i], view.params(i)));
    }
    if (drift < opts_.convergence_epsilon) {
      if (stats != nullptr) stats->lp_skipped += 1;
      return warm_.dist;
    }
  }

  // Device-count selection: R* first, then the other active devices by
  // measured capability (ties to the lower index).
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (act[i] && i != rstar) order.push_back(i);
  }
  auto cost = [&](int i) {
    const DeviceParams& p = view.params(i);
    return p.k_me + p.k_int + p.k_sme;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return cost(a) < cost(b); });
  order.insert(order.begin(), rstar);

  // Grow the prefix while each device lowers τtot strictly (a relative
  // tolerance keeps a tie from joining on rounding noise). A failed solve
  // counts as +inf. The cached basis seeds only the prefix size it was
  // solved for (chained across frames and across the ∆ fix-point).
  constexpr double kJoinTolerance = 1e-9;
  auto tau_of = [](const Distribution& d, bool ok) {
    return ok ? d.tau_tot_ms : std::numeric_limits<double>::infinity();
  };
  std::vector<bool> set(static_cast<std::size_t>(n), false);
  Distribution best;
  lp::Basis best_basis;
  bool best_optimal = false;
  int chosen = 0;
  for (int k = 0; k < static_cast<int>(order.size()); ++k) {
    set[order[k]] = true;
    lp::Basis basis;
    if (opts_.enable_warm_start && cache_matches && warm_.devices == k + 1) {
      basis = warm_.basis;
    }
    bool optimal = false;
    Distribution d = solve_set(view, sigma_r_prev, rstar, set, &basis,
                               &optimal, stats);
    if (k > 0) {
      const double before = tau_of(best, best_optimal);
      const double after = tau_of(d, optimal);
      if (!(after < before - kJoinTolerance * std::abs(before))) break;
    }
    best = std::move(d);
    best_basis = std::move(basis);
    best_optimal = optimal;
    chosen = k + 1;
  }
  best.check_conservation(rows);

  if (opts_.enable_warm_start && best_optimal) {
    warm_.valid = true;
    warm_.basis = std::move(best_basis);
    warm_.dist = best;
    warm_.active = std::move(act);
    warm_.sigma_r_prev = sigma_r_prev;
    warm_.rstar = rstar;
    warm_.devices = chosen;
    warm_.params.assign(static_cast<std::size_t>(n), DeviceParams{});
    for (int i = 0; i < n; ++i) warm_.params[i] = view.params(i);
  } else if (!best_optimal) {
    // A failed solve means the cached state no longer describes a solvable
    // situation; do not serve it as "converged" next frame.
    warm_ = WarmState{};
  }
  return best;
}

Distribution LoadBalancer::solve_set(const PerfCharacterization& perf,
                                     const std::vector<int>& sigma_r_prev,
                                     int rstar, const std::vector<bool>& set,
                                     lp::Basis* basis, bool* optimal,
                                     BalanceStats* stats) const {
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  lp::Basis& chain = *basis;
  bool last_solve_optimal = false;

  // Warm start for the ∆ fix-point: proportional distribution.
  Distribution current = proportional(perf, sigma_r_prev, rstar, &set);
  current.rstar_device = rstar;
  finalize_bounds(&current, perf, &set);

  for (int iter = 0; iter < kMaxDeltaIterations; ++iter) {
    lp::Problem lp;
    const int v_tau1 = lp.add_variable("tau1");
    const int v_tau2 = lp.add_variable("tau2");
    const int v_tautot = lp.add_variable("tautot", 1.0);
    std::vector<int> v_m(n, -1), v_l(n, -1), v_s(n, -1), v_sig(n, -1),
        v_sigr(n, -1);
    for (int i = 0; i < n; ++i) {
      if (!set[i]) continue;
      v_m[i] = lp.add_variable("m" + std::to_string(i));
      v_l[i] = lp.add_variable("l" + std::to_string(i));
      v_s[i] = lp.add_variable("s" + std::to_string(i));
    }

    // (1) conservation.
    {
      std::vector<lp::Term> tm, tl, ts;
      for (int i = 0; i < n; ++i) {
        if (!set[i]) continue;
        tm.push_back({v_m[i], 1.0});
        tl.push_back({v_l[i], 1.0});
        ts.push_back({v_s[i], 1.0});
      }
      lp.add_constraint(tm, lp::Relation::kEq, rows);
      lp.add_constraint(tl, lp::Relation::kEq, rows);
      lp.add_constraint(ts, lp::Relation::kEq, rows);
    }
    // τ1 ≤ τ2 ≤ τtot ordering.
    lp.add_constraint({{v_tau1, 1.0}, {v_tau2, -1.0}}, lp::Relation::kLe, 0.0);
    lp.add_constraint({{v_tau2, 1.0}, {v_tautot, -1.0}}, lp::Relation::kLe,
                      0.0);

    const double N = rows;
    for (int i = 0; i < n; ++i) {
      if (!set[i]) continue;
      const DeviceParams& p = perf.params(i);
      const DeviceSpec& dev = topo_.devices[i];
      const double dm = current.delta_m[i];
      const double dl = current.delta_l[i];

      // Combined kernel budget in τ1 (paper eq. 2 for CPUs; Fig 4 lanes for
      // accelerators).
      lp.add_constraint({{v_m[i], p.k_me}, {v_l[i], p.k_int}, {v_tau1, -1.0}},
                        lp::Relation::kLe, 0.0);
      // SME kernel between τ1 and τ2 (eq. 3 / eq. 13 compute part).
      lp.add_constraint({{v_s[i], p.k_sme}, {v_tau1, 1.0}, {v_tau2, -1.0}},
                        lp::Relation::kLe, 0.0);

      if (!dev.is_accelerator()) {
        if (i == rstar) {
          // CPU-centric: R* runs on the host after τ2 (needs no transfers).
          lp.add_constraint({{v_tau2, 1.0}, {v_tautot, -1.0}},
                            lp::Relation::kLe, -p.t_rstar_ms);
        }
        continue;
      }

      const double cf_hd = kx(p, BufferKind::kCf, Direction::kHostToDevice);
      const double rf_hd = kx(p, BufferKind::kRf, Direction::kHostToDevice);
      const double rf_dh = kx(p, BufferKind::kRf, Direction::kDeviceToHost);
      const double sf_hd = kx(p, BufferKind::kSf, Direction::kHostToDevice);
      const double sf_dh = kx(p, BufferKind::kSf, Direction::kDeviceToHost);
      const double mv_hd = kx(p, BufferKind::kMv, Direction::kHostToDevice);
      const double mv_dh = kx(p, BufferKind::kMv, Direction::kDeviceToHost);

      if (i == rstar) {
        // --- Selected accelerator (GPU1), eqs. (4)-(9) ---
        // Chain: CF in -> ME -> MV out.
        lp.add_constraint({{v_m[i], cf_hd + p.k_me + mv_dh}, {v_tau1, -1.0}},
                          lp::Relation::kLe, 0.0);
        // Chain: CF in -> ME -> INT -> SF out.
        lp.add_constraint({{v_m[i], cf_hd + p.k_me},
                           {v_l[i], p.k_int + sf_dh},
                           {v_tau1, -1.0}},
                          lp::Relation::kLe, 0.0);
        // Copy-engine budget in τ1: CF in, ∆m CF in, SF out, MV out.
        lp.add_constraint({{v_m[i], cf_hd + mv_dh},
                           {v_l[i], sf_dh},
                           {v_tau1, -1.0}},
                          lp::Relation::kLe, -dm * cf_hd);
        // (7): SME with its missing inputs.
        lp.add_constraint({{v_s[i], p.k_sme}, {v_tau1, 1.0}, {v_tau2, -1.0}},
                          lp::Relation::kLe, -(dl * sf_hd + dm * mv_hd));
        // (8): τ1→τ2 copy-engine budget incl. the MC prefetch of the
        // remaining CF and SF: (N-m-∆m)cf + (N-l-∆l)sf.
        lp.add_constraint({{v_m[i], -cf_hd},
                           {v_l[i], -sf_hd},
                           {v_tau1, 1.0},
                           {v_tau2, -1.0}},
                          lp::Relation::kLe,
                          -(dl * sf_hd + dm * mv_hd) - (N - dm) * cf_hd -
                              (N - dl) * sf_hd);
        // (9): missing SME MVs in, R*, RF back.
        lp.add_constraint({{v_s[i], -mv_hd}, {v_tau2, 1.0}, {v_tautot, -1.0}},
                          lp::Relation::kLe,
                          -(N * mv_hd + p.t_rstar_ms + N * rf_dh));
      } else {
        // --- Other accelerators (GPUi), eqs. (10)-(15) ---
        const double sr_prev = sigma_r_prev[i];
        // (10): RF in -> CF in -> ME -> MV out.
        lp.add_constraint({{v_m[i], cf_hd + p.k_me + mv_dh}, {v_tau1, -1.0}},
                          lp::Relation::kLe, -N * rf_hd);
        // (11): RF in, kernels, SF out.
        lp.add_constraint({{v_m[i], cf_hd + p.k_me},
                           {v_l[i], p.k_int + sf_dh},
                           {v_tau1, -1.0}},
                          lp::Relation::kLe, -N * rf_hd);
        // (12): copy-engine budget in τ1 incl. deferred SF remainder σ^{r-1}.
        lp.add_constraint({{v_m[i], cf_hd + mv_dh},
                           {v_l[i], sf_dh},
                           {v_tau1, -1.0}},
                          lp::Relation::kLe,
                          -(N * rf_hd + dm * cf_hd + sr_prev * sf_hd));
        // (13): SME with inputs and MV return.
        lp.add_constraint({{v_s[i], p.k_sme + mv_dh},
                           {v_tau1, 1.0},
                           {v_tau2, -1.0}},
                          lp::Relation::kLe, -(dl * sf_hd + dm * mv_hd));

        // (14)-(15) linearized: σ + σ^r + l = N − ∆l; σ·K^{sfhd} ≤ τtot−τ2.
        v_sig[i] = lp.add_variable("sig" + std::to_string(i));
        v_sigr[i] = lp.add_variable("sigr" + std::to_string(i), kSigmaEpsilon);
        lp.add_constraint(
            {{v_sig[i], 1.0}, {v_sigr[i], 1.0}, {v_l[i], 1.0}},
            lp::Relation::kEq, N - dl);
        lp.add_constraint(
            {{v_sig[i], sf_hd}, {v_tau2, 1.0}, {v_tautot, -1.0}},
            lp::Relation::kLe, 0.0);
        if (!opts_.enable_sf_deferral) {
          lp.add_constraint({{v_sigr[i], 1.0}}, lp::Relation::kEq, 0.0);
        }
      }
    }

    if (host_ == HostModel::kShared) {
      // One host under every device, phase by phase (ME+INT before τ1, SME
      // between τ1 and τ2): the kernels of all devices share its cores, and
      // so do their copies — a real-mode transfer is a memcpy on a lane
      // thread. The copy terms are those of each accelerator's own
      // copy-engine rows, (6)/(12) before τ1 and the inputs and MV return
      // of (7)/(13) after it.
      std::vector<lp::Term> t1{{v_tau1, -1.0}};
      std::vector<lp::Term> t2{{v_tau1, 1.0}, {v_tau2, -1.0}};
      double c1 = 0.0;
      double c2 = 0.0;
      for (int i = 0; i < n; ++i) {
        if (!set[i]) continue;
        const DeviceParams& p = perf.params(i);
        double m = p.k_me;
        double l = p.k_int;
        double s = p.k_sme;
        if (topo_.devices[i].is_accelerator()) {
          const double dm = current.delta_m[i];
          const double dl = current.delta_l[i];
          const double cf_hd = kx(p, BufferKind::kCf, Direction::kHostToDevice);
          const double sf_hd = kx(p, BufferKind::kSf, Direction::kHostToDevice);
          const double mv_hd = kx(p, BufferKind::kMv, Direction::kHostToDevice);
          const double mv_dh = kx(p, BufferKind::kMv, Direction::kDeviceToHost);
          m += cf_hd + mv_dh;
          l += kx(p, BufferKind::kSf, Direction::kDeviceToHost);
          c1 += dm * cf_hd;
          c2 += dl * sf_hd + dm * mv_hd;
          if (i != rstar) {
            s += mv_dh;
            c1 += N * kx(p, BufferKind::kRf, Direction::kHostToDevice) +
                  sigma_r_prev[i] * sf_hd;
          }
        }
        t1.push_back({v_m[i], m});
        t1.push_back({v_l[i], l});
        t2.push_back({v_s[i], s});
      }
      lp.add_constraint(t1, lp::Relation::kLe, -c1);
      lp.add_constraint(t2, lp::Relation::kLe, -c2);
    }

    Timer lp_timer;
    const lp::Basis* warm =
        (opts_.enable_warm_start && chain.usable()) ? &chain : nullptr;
    const lp::Solution sol = lp::solve(lp, warm);
    if (stats != nullptr) {
      stats->lp_solves += 1;
      stats->lp_iterations += sol.iterations;
      stats->lp_fallbacks += sol.bland_fallback ? 1 : 0;
      stats->lp_warm_solves += sol.warm_used ? 1 : 0;
      stats->lp_solve_ms += lp_timer.elapsed_ms();
      stats->delta_iterations += 1;
    }
    if (!sol.optimal()) {
      FEVES_WARN("load_balancer",
                 "LP not optimal (status " << static_cast<int>(sol.status)
                                           << "); keeping previous split");
      last_solve_optimal = false;
      break;
    }
    chain = sol.basis;
    last_solve_optimal = true;

    Distribution next;
    next.rstar_device = rstar;
    std::vector<double> fm(n), fl(n), fs(n);
    for (int i = 0; i < n; ++i) {
      if (!set[i]) continue;
      fm[i] = sol.values[v_m[i]];
      fl[i] = sol.values[v_l[i]];
      fs[i] = sol.values[v_s[i]];
    }
    next.me = round_preserving_sum(fm, rows);
    next.intp = round_preserving_sum(fl, rows);
    next.sme = round_preserving_sum(fs, rows);
    next.delta_m.assign(n, 0);
    next.delta_l.assign(n, 0);
    next.sigma.assign(n, 0);
    next.sigma_r.assign(n, 0);
    next.tau1_ms = sol.values[v_tau1];
    next.tau2_ms = sol.values[v_tau2];
    next.tau_tot_ms = sol.values[v_tautot];
    finalize_bounds(&next, perf, &set);

    const bool converged = next.delta_m == current.delta_m &&
                           next.delta_l == current.delta_l &&
                           next.me == current.me && next.sme == current.sme;
    current = std::move(next);
    if (converged) break;
  }

  *optimal = last_solve_optimal;
  return current;
}

Distribution LoadBalancer::balance_with_probes(
    const PerfCharacterization& perf, const std::vector<int>& sigma_r_prev,
    int force_rstar, const std::vector<bool>* active, BalanceStats* stats) {
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  count_active(active);
  const std::vector<bool> known = perf.characterized_mask(active);
  int n_known = 0;
  int n_unknown = 0;
  for (int i = 0; i < n; ++i) {
    if (!device_active(active, i)) continue;
    (known[i] ? n_known : n_unknown) += 1;
  }
  if (n_unknown == 0) {
    return balance(perf, sigma_r_prev, force_rstar, active, stats);
  }
  // No measured device to balance from, or R* pinned to an unmeasured one:
  // same answer as the initialization frame.
  if (n_known == 0 || (force_rstar >= 0 && !known[force_rstar])) {
    const int rstar = force_rstar >= 0 ? force_rstar
                                       : select_rstar_device(perf, active);
    return equidistant(rstar, active);
  }

  // LP over the characterized subset; R* stays on a measured device.
  Distribution d = balance(perf, sigma_r_prev, force_rstar, &known, stats);

  // Carve the probe slices from the most-loaded measured devices, row by
  // row so no single donor is drained. Capped at half the frame across all
  // newcomers — a grant churning in many devices at once must not starve
  // the devices whose speed the session actually knows.
  const int probe =
      std::min(opts_.probe_rows, std::max(1, rows / (2 * n_unknown)));
  auto carve = [&](std::vector<int>& mod) {
    for (int i = 0; i < n; ++i) {
      if (!device_active(active, i) || known[i]) continue;
      for (int r = 0; r < probe; ++r) {
        int donor = -1;
        for (int j = 0; j < n; ++j) {
          if (!known[j]) continue;
          if (donor < 0 || mod[j] > mod[donor]) donor = j;
        }
        if (donor < 0 || mod[donor] <= 1) break;
        --mod[donor];
        ++mod[i];
      }
    }
  };
  carve(d.me);
  carve(d.intp);
  carve(d.sme);
  // The carve invalidated the LP's ∆/σ bookkeeping; recompute it from the
  // final integer distributions over the full active set.
  finalize_bounds(&d, perf, active);
  d.check_conservation(rows);
  return d;
}

void LoadBalancer::finalize_bounds(Distribution* dist,
                                   const PerfCharacterization& perf,
                                   const std::vector<bool>* active) const {
  const int n = topo_.num_devices();
  const int rows = cfg_.num_mb_rows();
  dist->delta_m.assign(n, 0);
  dist->delta_l.assign(n, 0);
  dist->sigma.assign(n, 0);
  dist->sigma_r.assign(n, 0);

  const auto me_iv = intervals_of(dist->me);
  const auto l_iv = intervals_of(dist->intp);
  const auto s_iv = intervals_of(dist->sme);

  for (int i = 0; i < n; ++i) {
    if (!device_active(active, i)) continue;
    if (!topo_.devices[i].is_accelerator()) continue;
    // (16) MS_BOUNDS: SME rows whose CF/MVs were produced elsewhere.
    dist->delta_m[i] = interval_difference_rows(s_iv[i], me_iv[i]);
    // (17) LS_BOUNDS: SME rows whose SF slice was interpolated elsewhere,
    // halo-extended for the sub-pel search margin.
    const RowInterval sme_need =
        halo_extend(s_iv[i], sme_sf_halo_rows(cfg_), rows);
    int dl = 0;
    for (const RowInterval& f : interval_difference(sme_need, l_iv[i])) {
      dl += f.length();
    }
    dist->delta_l[i] = dl;

    if (i == dist->rstar_device) continue;  // GPU1 completes SF in-frame
    const int remaining = rows - dist->intp[i] - dist->delta_l[i];
    if (remaining <= 0) continue;
    const double sf_hd =
        kx(perf.params(i), BufferKind::kSf, Direction::kHostToDevice);
    const double slack = std::max(0.0, dist->tau_tot_ms - dist->tau2_ms);
    int fit = remaining;
    if (opts_.enable_sf_deferral && sf_hd > 0) {
      fit = std::min(remaining, static_cast<int>(slack / sf_hd));
    }
    dist->sigma[i] = fit;
    dist->sigma_r[i] = remaining - fit;
  }
}

}  // namespace feves
