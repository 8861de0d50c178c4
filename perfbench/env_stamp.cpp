#include "env_stamp.hpp"

#include "codec/kernels.hpp"
#include "inputs.hpp"
#include "stats.hpp"

#include <cpuid.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string cpu_flags() {
  std::string out;
  auto flag = [&](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  __builtin_cpu_init();
  flag(__builtin_cpu_supports("sse2"), "sse2");
  flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
  flag(__builtin_cpu_supports("avx"), "avx");
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("bmi2"), "bmi2");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
  return out;
}

/// Hardware threads sharing CPU 0's core ("0-1" or "0,4" = 2), or 0 when
/// the topology is not readable. A virtual machine reports what its
/// hypervisor exposes, so 1 does not rule out SMT siblings on the host.
int threads_per_core() {
  std::ifstream in(
      "/sys/devices/system/cpu/cpu0/topology/thread_siblings_list");
  std::string list;
  if (!std::getline(in, list) || list.empty()) return 0;
  int n = 0;
  std::istringstream items(list);
  for (std::string item; std::getline(items, item, ',');) {
    const auto dash = item.find('-');
    n += dash == std::string::npos
             ? 1
             : std::stoi(item.substr(dash + 1)) - std::stoi(item) + 1;
  }
  return n;
}

}  // namespace

std::string env_stamp_json(const std::string& source_id,
                           const std::string& workload, std::uint64_t seed,
                           int seconds, bool traced, int busy_cpus) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads_per_core\": " << threads_per_core()
     << ", \"busy_cpus\": " << busy_cpus << ", \"cpu\": \"" << cpu_model()
     << "\", \"cpu_flags\": \"" << cpu_flags() << "\", \"kernel_tiers\": {";
  bool first = true;
  for (const feves::KernelTierChoice& k :
       feves::kernel_tier_report(feves::SimdTier::kAuto)) {
    os << (first ? "" : ", ") << '"' << feves::kernel_name(k.id) << "\": \""
       << feves::tier_name(k.resolved) << '"';
    first = false;
  }
  os << "}, \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"source\": \"" << source_id
     << "\", \"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"seconds\": " << seconds << ", \"trace\": " << (traced ? 1 : 0)
     << "}";
  return os.str();
}

double host_probe_ms() {
  // Sums of absolute differences over a 64 KiB buffer, the shape of the
  // encoder's dominant kernel, in plain code of the benchmark's own.
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint32_t x = 2463534242u;
  for (std::uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  std::vector<double> tries;
  volatile std::uint64_t sink = 0;
  for (int t = 0; t < 9; ++t) {
    const double t0 = now_ms();
    std::uint64_t acc = 0;
    for (std::size_t shift = 1; shift <= 1024; ++shift) {
      for (std::size_t i = 0; i + shift < buf.size(); ++i) {
        acc += static_cast<std::uint64_t>(
            std::abs(static_cast<int>(buf[i]) - buf[i + shift]));
      }
    }
    sink = sink + acc;
    tries.push_back(now_ms() - t0);
  }
  return median(tries);
}

}  // namespace perfbench
