#include "sched/perf_char.hpp"

namespace feves {

void PerfCharacterization::observe_compute(int device, ComputeModule module,
                                           int rows, double ms) {
  FEVES_CHECK(device >= 0 && device < num_devices());
  if (rows <= 0) return;  // nothing assigned: keep the old estimate
  FEVES_CHECK(ms >= 0.0);
  const double per_row = ms / rows;
  DeviceParams& p = params_[device];
  switch (module) {
    case ComputeModule::kMe:
      p.k_me = per_row;
      break;
    case ComputeModule::kInt:
      p.k_int = per_row;
      break;
    case ComputeModule::kSme:
      p.k_sme = per_row;
      break;
  }
}

void PerfCharacterization::observe_transfer(int device, BufferKind buffer,
                                            Direction dir, int rows,
                                            double ms) {
  FEVES_CHECK(device >= 0 && device < num_devices());
  if (rows <= 0) return;
  FEVES_CHECK(ms >= 0.0);
  params_[device].k_xfer[static_cast<int>(buffer)][static_cast<int>(dir)] =
      ms / rows;
}

void PerfCharacterization::observe_rstar(int device, double ms) {
  FEVES_CHECK(device >= 0 && device < num_devices());
  FEVES_CHECK(ms >= 0.0);
  params_[device].t_rstar_ms = ms;
}

}  // namespace feves
