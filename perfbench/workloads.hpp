// The benchmark's workloads and the two ways it drives the program: a
// CollaborativeEncoder called directly, and an EncodeService.
#pragma once

#include "core/framework.hpp"
#include "inputs.hpp"
#include "service/arbiter.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class EntryPoint { kDirect, kService };

struct SessionSpec {
  feves::EncoderConfig cfg;
  double weight = 1.0;
  std::uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  EntryPoint entry = EntryPoint::kDirect;
  std::string topology;  ///< preset name
  std::vector<SessionSpec> sessions;
  int warmup = 3;       ///< untimed frames per session (incl. the I frame)
  int clip_frames = 12; ///< distinct pre-rendered frames per session
  int replay_frames = 24; ///< traced run: session 0 frames replayed
  int rss_frame = 30;    ///< peak memory is read when sessions pull this
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed);

struct SessionRun {
  std::shared_ptr<ClipSource> source;
  std::vector<feves::u8> bitstream;
  std::vector<feves::FrameStats> frames;  ///< index = stream frame number
  bool completed = false;
  std::string error;
  /// Direct encoder: wall time of each encode_frame call.
  std::vector<double> encode_ms;
  /// EncodeService: arbiter accounting and recovery.
  feves::SessionStats share;
  int restarts = 0;
};

struct RunResult {
  std::vector<SessionRun> sessions;
  double cpu_end_ms = 0.0;  ///< process CPU time once every session ended
  double peak_rss_mb = 0.0;
  /// Direct encoder: the encoder's reconstruction of its last frame.
  std::unique_ptr<feves::Frame420> last_recon;
};

/// Time to first frame, in seconds, of fresh set-ups repeated back to back
/// for `budget_s` seconds (and at least five times): building the encoder
/// or the service (and submitting its sessions) until every session
/// committed its first frame.
std::vector<double> measure_setup(
    const WorkloadSpec& spec,
    const std::vector<std::shared_ptr<const Clip>>& clips, double budget_s);

/// One timed run on a fresh set-up. `spans` is null in untraced runs.
RunResult run_workload(const WorkloadSpec& spec,
                       const std::vector<std::shared_ptr<const Clip>>& clips,
                       RunClock* clock, SpanLog* spans);

}  // namespace perfbench
