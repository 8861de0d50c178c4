// On-the-fly Performance Characterization (Algorithm 1, lines 5-6 and 10).
// After each frame, measured kernel and transfer times are folded into
// per-device parameters expressed in *time per MB row* — exactly the K
// inputs of the paper's Algorithm 2:
//   K^m, K^l, K^s            — ME / INT / SME compute speed
//   K^{cf,rf,sf,mv x hd,dh}  — per-buffer transfer speed per direction
//   T^{R*}                   — whole-frame R* time
// Each measurement replaces the one before it: as in Algorithm 1, the times
// recorded on frame n parameterize frame n+1's LP, so a drifting device
// (the paper stresses non-dedicated systems) is re-characterized within a
// single inter-frame.
#pragma once

#include "common/check.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace feves {

enum class ComputeModule { kMe = 0, kInt = 1, kSme = 2 };
enum class BufferKind { kCf = 0, kRf = 1, kSf = 2, kMv = 3 };
enum class Direction { kHostToDevice = 0, kDeviceToHost = 1 };

/// Per-device characterization snapshot; units: milliseconds per MB row
/// (t_rstar_ms: milliseconds per frame).
struct DeviceParams {
  double k_me = 0.0;
  double k_int = 0.0;
  double k_sme = 0.0;
  // [BufferKind][Direction]
  double k_xfer[4][2] = {};
  double t_rstar_ms = 0.0;

  bool compute_known() const { return k_me > 0 && k_int > 0 && k_sme > 0; }
};

/// Largest relative change across two parameter snapshots (0 = identical).
/// A parameter appearing or disappearing (0 ↔ nonzero) counts as a full
/// 1.0 drift, so quarantine eviction or first-time characterization always
/// exceeds any sane convergence epsilon. Drives the load balancer's
/// convergence detector and the frame pipeline's consume-time validation.
inline double relative_drift(const DeviceParams& a, const DeviceParams& b) {
  auto rel = [](double x, double y) {
    if (x == y) return 0.0;
    const double den = std::max(std::abs(x), std::abs(y));
    return std::abs(x - y) / den;
  };
  double d = std::max({rel(a.k_me, b.k_me), rel(a.k_int, b.k_int),
                       rel(a.k_sme, b.k_sme),
                       rel(a.t_rstar_ms, b.t_rstar_ms)});
  for (int buf = 0; buf < 4; ++buf) {
    for (int dir = 0; dir < 2; ++dir) {
      d = std::max(d, rel(a.k_xfer[buf][dir], b.k_xfer[buf][dir]));
    }
  }
  return d;
}

class PerfCharacterization {
 public:
  explicit PerfCharacterization(int num_devices)
      : params_(static_cast<std::size_t>(num_devices)) {
    FEVES_CHECK(num_devices >= 1);
  }

  int num_devices() const { return static_cast<int>(params_.size()); }

  void observe_compute(int device, ComputeModule module, int rows, double ms);
  void observe_transfer(int device, BufferKind buffer, Direction dir, int rows,
                        double ms);
  void observe_rstar(int device, double ms);

  const DeviceParams& params(int device) const {
    FEVES_CHECK(device >= 0 && device < num_devices());
    return params_[device];
  }

  /// True once every device has compute parameters (i.e. the equidistant
  /// initialization frame has been processed everywhere). With an active
  /// mask, only schedulable devices are required — quarantined devices
  /// (whose entries were evicted) must not block balancing for survivors.
  bool initialized(const std::vector<bool>* active = nullptr) const {
    FEVES_CHECK(active == nullptr ||
                static_cast<int>(active->size()) == num_devices());
    for (int i = 0; i < num_devices(); ++i) {
      if (active != nullptr && !(*active)[i]) continue;
      if (!params_[i].compute_known()) return false;
    }
    return true;
  }

  /// Subset of `active` whose compute parameters are known — the devices an
  /// LP can balance over right now. Used by the share-aware probe path: when
  /// a session's grant churns in a never-seen device, the known devices keep
  /// carrying an LP-balanced frame while the newcomer gets a probe slice.
  std::vector<bool> characterized_mask(const std::vector<bool>* active) const {
    FEVES_CHECK(active == nullptr ||
                static_cast<int>(active->size()) == num_devices());
    std::vector<bool> known(static_cast<std::size_t>(num_devices()), false);
    for (int i = 0; i < num_devices(); ++i) {
      if (active != nullptr && !(*active)[i]) continue;
      known[i] = params_[i].compute_known();
    }
    return known;
  }

  /// Drops a device's characterization (quarantine eviction): after
  /// re-admission it must be re-characterized from a fresh initialization
  /// frame, not balanced from stale pre-fault measurements.
  void evict(int device) {
    FEVES_CHECK(device >= 0 && device < num_devices());
    params_[device] = DeviceParams{};
  }

  /// Directly seeds parameters (tests / warm restarts).
  void seed(int device, const DeviceParams& p) {
    FEVES_CHECK(device >= 0 && device < num_devices());
    params_[device] = p;
  }

 private:
  std::vector<DeviceParams> params_;
};

/// The characterization as a shared host sees it (HostModel::kShared, real
/// mode): every device runs on the same cores and copies through the same
/// memory, so each active device gets, per field, the fastest current
/// measurement across the active devices (unmeasured fields, 0, take no
/// part). Devices then differ only in which transfers their role needs.
/// Raw per-device K do not compare on one host: a one-row slice runs
/// inline on its lane while a wide one fans out over the pool, so the same
/// work reads several times faster per row on the device that got more of
/// it. Inactive devices keep their own parameters.
inline PerfCharacterization shared_host_view(const PerfCharacterization& perf,
                                             const std::vector<bool>* active) {
  const int n = perf.num_devices();
  FEVES_CHECK(active == nullptr || static_cast<int>(active->size()) == n);
  auto is_active = [&](int i) { return active == nullptr || (*active)[i]; };
  DeviceParams best;
  auto take = [](double* slot, double value) {
    if (value > 0.0 && (*slot == 0.0 || value < *slot)) *slot = value;
  };
  for (int i = 0; i < n; ++i) {
    if (!is_active(i)) continue;
    const DeviceParams& p = perf.params(i);
    take(&best.k_me, p.k_me);
    take(&best.k_int, p.k_int);
    take(&best.k_sme, p.k_sme);
    take(&best.t_rstar_ms, p.t_rstar_ms);
    for (int buf = 0; buf < 4; ++buf) {
      for (int dir = 0; dir < 2; ++dir) {
        take(&best.k_xfer[buf][dir], p.k_xfer[buf][dir]);
      }
    }
  }
  PerfCharacterization view = perf;
  for (int i = 0; i < n; ++i) {
    if (is_active(i)) view.seed(i, best);
  }
  return view;
}

}  // namespace feves
