// Load Balancing for CPU+GPU inter-loop video encoding — the paper's
// Algorithm 2. Distributes MB rows of ME/INT/SME over all devices and maps
// the R* block to one device, minimizing the total inter-frame time τtot
// under communication-aware constraints, via linear programming over the
// measured Performance Characterization.
//
// Formulation notes (vs. the paper's listing):
//  * The MIN of eq. (14) is linearized exactly: σ_i and σ_i^r become LP
//    variables with σ_i + σ_i^r + l_i = N − ∆l_i, σ_i·K^{sfhd} ≤ τtot − τ2,
//    and a tiny objective weight ε·Σσ_i^r that pushes deferral to the
//    minimum the slack allows.
//  * MS_BOUNDS (16) / LS_BOUNDS (17) make the problem nonlinear; like the
//    paper we iterate: solve the LP with ∆ fixed → recompute the bounds
//    from the new integer distributions → re-solve until the ∆ vectors
//    stabilize (a handful of iterations).
//  * Kernels on one device serialize (Fig 4 shows ME and INT back to back
//    on each device's kernel lane), so the per-device compute constraint is
//    the combined m_i·K^m + l_i·K^l ≤ τ1 — this matches both the CPU
//    constraint (2) and the discrete-event executor's semantics.
//  * Device-count selection: the LP is solved over nested device prefixes
//    (the R* device, then the others fastest first) and a device joins
//    only when it lowers τtot. Devices left out get zero rows and no
//    constraints, so they pay none of the per-device constants of
//    eqs. (10)–(12) (the whole-frame RF fetch) that can outweigh a share
//    of the work.
//  * A shared host (HostModel::kShared) prices what real mode runs on: all
//    devices execute on the same cores. The balancer then reads
//    shared_host_view() of the characterization and adds one host row per
//    phase, Σ(m_i·K^m + l_i·K^l) ≤ τ1 and Σ s_i·K^s ≤ τ2 − τ1.
#pragma once

#include "common/config.hpp"
#include "lp/simplex.hpp"
#include "platform/device.hpp"
#include "sched/distribution.hpp"
#include "sched/perf_char.hpp"

namespace feves {

/// Telemetry from one balance() call: LP solver effort, fed into the
/// observability layer's SchedTelemetry (obs/telemetry.hpp).
struct BalanceStats {
  int lp_solves = 0;         ///< LP solves across the device prefixes
                             ///< tried and their ∆ fix-points
  int lp_iterations = 0;     ///< simplex pivots summed over all solves
  int lp_fallbacks = 0;      ///< solves where Bland's anti-cycling engaged
  double lp_solve_ms = 0.0;  ///< wall time spent inside lp::solve
  int delta_iterations = 0;  ///< ∆ fix-point iterations run (all prefixes)
  int lp_warm_solves = 0;    ///< solves that accepted a warm basis
  int lp_skipped = 0;        ///< balance() calls answered from the
                             ///< converged-distribution cache (no solve)
};

/// What the devices' compute runs on — a fact about the backend, not a
/// tuning knob. kDedicated: every device is its own machine (the paper's
/// platforms; virtual mode). kShared: every device's ops run on the same
/// host cores (real mode's one device_pool()), so an extra device adds
/// transfers and staging but no compute.
enum class HostModel { kDedicated, kShared };

struct LoadBalancerOptions {
  /// σ/σ^r SF-completion deferral (Fig 5). Disabling it forces the full SF
  /// remainder to transfer within the current frame — the ablation knob.
  bool enable_sf_deferral = true;
  /// Share-aware balancing for frameworks running over a churning device
  /// grant (the encode service): when > 0 and the active set mixes
  /// characterized and never-measured devices, balance_with_probes() keeps
  /// the LP over the characterized subset and carves this many rows per
  /// module for each unknown device — one probe frame characterizes it —
  /// instead of collapsing the whole frame to an equidistant re-init.
  /// 0 (the default) keeps the single-tenant behaviour.
  int probe_rows = 0;
  /// Warm-start consecutive LP solves from the previous solve's final basis
  /// (and chain the basis across the ∆ fix-point within one call). Purely
  /// an acceleration: a rejected basis falls back to the cold two-phase
  /// solve, so results never depend on it.
  bool enable_warm_start = true;
  /// Convergence detector: when the active set, R* device and deferred-SF
  /// state match the cached solve and every active device's K parameters
  /// drifted less than this (relative), balance() returns the cached
  /// Distribution without solving. 0 disables the skip (every call solves);
  /// it also gates the frame pipeline's consume-time validation
  /// (FrameworkOptions::enable_pipeline).
  double convergence_epsilon = 0.01;
};

class LoadBalancer {
 public:
  LoadBalancer(const EncoderConfig& cfg, const PlatformTopology& topo,
               LoadBalancerOptions opts = {},
               HostModel host = HostModel::kDedicated);

  /// Every entry point takes an optional active-device mask (nullptr = all
  /// active): quarantined devices get zero rows in every module, are
  /// excluded from the LP and from R* candidacy, and the remaining load is
  /// re-balanced over the survivors — the graceful-degradation hook.

  /// Equidistant split of every module across the active devices
  /// (Algorithm 1, line 3 — the initialization frame, and the related-work
  /// multi-GPU baseline).
  Distribution equidistant(int rstar_device,
                           const std::vector<bool>* active = nullptr) const;

  /// Per-module speed-proportional split (the synchronous per-module
  /// balancing of the authors' earlier work [9], used as a baseline).
  /// `force_rstar` >= 0 pins the R* device instead of selecting it.
  Distribution proportional(const PerfCharacterization& perf,
                            const std::vector<int>& sigma_r_prev,
                            int force_rstar = -1,
                            const std::vector<bool>* active = nullptr) const;

  /// Algorithm 2: LP-based distribution. `sigma_r_prev` carries the SF rows
  /// deferred from the previous frame (σ^{r-1}); pass zeros for the first
  /// balanced frame. Requires perf.initialized(active). `force_rstar` >= 0
  /// pins the R* device (CPU-centric vs GPU-centric operation, Sec. III-B).
  /// `stats`, when non-null, receives LP solver telemetry for this call.
  /// Picks how many devices to use: the LP runs over the prefixes of the
  /// R* device followed by the other active devices in order of measured
  /// capability (smallest k_me + k_int + k_sme first, ties to the lower
  /// index), and stops at the first device that does not lower τtot
  /// strictly; devices outside the chosen prefix get zero rows.
  /// Non-const: maintains the warm-start cache (previous basis, converged
  /// distribution and the characterization snapshot it was solved under) —
  /// see LoadBalancerOptions::enable_warm_start / convergence_epsilon. The
  /// cache is keyed on the whole active set, not the chosen prefix; it is
  /// bypassed and refreshed whenever the active set, the R* device or the
  /// deferred-SF state changes, so quarantine transitions and grant churn
  /// always re-solve from the current platform state.
  Distribution balance(const PerfCharacterization& perf,
                       const std::vector<int>& sigma_r_prev,
                       int force_rstar = -1,
                       const std::vector<bool>* active = nullptr,
                       BalanceStats* stats = nullptr);

  /// Share-aware balance for a partially characterized active set (see
  /// LoadBalancerOptions::probe_rows): LP-balances over the characterized
  /// active devices, then reassigns `probe_rows` rows of every module from
  /// the most-loaded characterized devices to each uncharacterized active
  /// device so it earns a measurement. Falls back to balance() when every
  /// active device is characterized and to equidistant() when none is.
  Distribution balance_with_probes(const PerfCharacterization& perf,
                                   const std::vector<int>& sigma_r_prev,
                                   int force_rstar,
                                   const std::vector<bool>* active,
                                   BalanceStats* stats = nullptr);

  /// Everything the previous balance() left behind: the final LP basis for
  /// warm-starting the next solve, the converged distribution the
  /// convergence detector can reuse, and the inputs that solve was keyed on
  /// (validation: any mismatch forces a cold path).
  struct WarmState {
    bool valid = false;
    lp::Basis basis;
    Distribution dist;
    std::vector<bool> active;
    std::vector<int> sigma_r_prev;
    std::vector<DeviceParams> params;
    int rstar = -1;
    int devices = 0;  ///< size of the chosen prefix (its basis fits it)
  };

  /// The warm-start cache, saved before a speculative balance() and put
  /// back when the speculation is dropped, so it leaves no trace.
  const WarmState& warm_state() const { return warm_; }
  void set_warm_state(const WarmState& warm) { warm_ = warm; }

  /// R* device selection: cheapest transfer-in + compute + transfer-out
  /// path, found with Dijkstra over the device graph (Sec. III-B, [9]).
  /// On a shared host it reads shared_host_view(): R* then lands on the
  /// CPU when it is active (no staging), otherwise on the first active
  /// accelerator.
  int select_rstar_device(const PerfCharacterization& perf,
                          const std::vector<bool>* active = nullptr) const;

  const PlatformTopology& topology() const { return topo_; }
  HostModel host_model() const { return host_; }

 private:
  bool device_active(const std::vector<bool>* active, int i) const {
    return active == nullptr || (*active)[i];
  }
  int count_active(const std::vector<bool>* active) const;

  /// Recomputes ∆m/∆l/σ/σ^r from the integer distributions.
  void finalize_bounds(Distribution* dist, const PerfCharacterization& perf,
                       const std::vector<bool>* active) const;

  /// select_rstar_device over an already shared-host-adjusted view.
  int select_rstar_in(const PerfCharacterization& view,
                      const std::vector<bool>* active) const;

  /// Algorithm 2 over the devices in `set`: the ∆ fix-point of LP solves.
  /// Devices outside it get no variables, hence zero rows and no
  /// constraints (quarantined and unselected devices alike). `basis` seeds the first solve when
  /// usable and returns the last optimal one; `optimal` reports whether
  /// the last solve was optimal (otherwise the result is the proportional
  /// warm start or the last optimal iterate).
  Distribution solve_set(const PerfCharacterization& view,
                         const std::vector<int>& sigma_r_prev, int rstar,
                         const std::vector<bool>& set, lp::Basis* basis,
                         bool* optimal, BalanceStats* stats) const;

  EncoderConfig cfg_;
  PlatformTopology topo_;
  LoadBalancerOptions opts_;
  HostModel host_;
  WarmState warm_;
};

}  // namespace feves
