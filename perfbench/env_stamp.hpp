// Environment stamp printed with every result, so runs from different
// hosts, SIMD tiers or builds are never compared silently.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// JSON object: nproc, hardware threads per core as the OS sees them, CPU
/// model and flags, the kernel tiers kAuto resolves to, compiler, build
/// type, the source identity and the run parameters. `busy_cpus` is the
/// number of CPUs the caller keeps busy with idle-priority spinners during
/// the run (0 = none), which removes the wake-up cost of idle CPUs from
/// what is measured.
std::string env_stamp_json(const std::string& source_id,
                           const std::string& workload, std::uint64_t seed,
                           int seconds, bool traced, int busy_cpus);

/// Milliseconds one thread takes for a fixed piece of benchmark-owned
/// integer work (median of several tries). It does not call the program, so
/// it moves with the host's speed and not with the code under test: runs of
/// the same code whose probes differ were taken on a faster or slower host.
double host_probe_ms();

}  // namespace perfbench
