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
  int lp_solves = 0;         ///< LP solves across the ∆ fix-point
  int lp_iterations = 0;     ///< simplex pivots summed over all solves
  int lp_fallbacks = 0;      ///< solves where Bland's anti-cycling engaged
  double lp_solve_ms = 0.0;  ///< wall time spent inside lp::solve
  int delta_iterations = 0;  ///< ∆ fix-point iterations run
  int lp_warm_solves = 0;    ///< solves that accepted a warm basis
  int lp_skipped = 0;        ///< balance() calls answered from the
                             ///< converged-distribution cache (no solve)
};

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
               LoadBalancerOptions opts = {});

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
  /// Non-const: maintains the warm-start cache (previous basis, converged
  /// distribution and the characterization snapshot it was solved under) —
  /// see LoadBalancerOptions::enable_warm_start / convergence_epsilon. The
  /// cache is bypassed and refreshed whenever the active set, the R* device
  /// or the deferred-SF state changes, so quarantine transitions and grant
  /// churn always re-solve from the current platform state.
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
  };

  /// The warm-start cache, saved before a speculative balance() and put
  /// back when the speculation is dropped, so it leaves no trace.
  const WarmState& warm_state() const { return warm_; }
  void set_warm_state(const WarmState& warm) { warm_ = warm; }

  /// R* device selection: cheapest transfer-in + compute + transfer-out
  /// path, found with Dijkstra over the device graph (Sec. III-B, [9]).
  int select_rstar_device(const PerfCharacterization& perf,
                          const std::vector<bool>* active = nullptr) const;

  const PlatformTopology& topology() const { return topo_; }

 private:
  bool device_active(const std::vector<bool>* active, int i) const {
    return active == nullptr || (*active)[i];
  }
  int count_active(const std::vector<bool>* active) const;

  /// Recomputes ∆m/∆l/σ/σ^r from the integer distributions.
  void finalize_bounds(Distribution* dist, const PerfCharacterization& perf,
                       const std::vector<bool>* active) const;

  EncoderConfig cfg_;
  PlatformTopology topo_;
  LoadBalancerOptions opts_;
  WarmState warm_;
};

}  // namespace feves
