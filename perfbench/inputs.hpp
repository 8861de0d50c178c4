// Benchmark inputs: synthetic clips generated from the run's seed and
// pre-rendered before timing, served to the program through a
// benchmark-owned VideoSource that also timestamps every pull (the
// session-seen frame latency is the gap between consecutive pulls) and ends
// the stream when the timed region is over.
#pragma once

#include "spans.hpp"
#include "video/sequence.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Steady-clock milliseconds (arbitrary epoch).
double now_ms();

using Clip = std::vector<feves::Frame420>;

/// The generator settings for one session's clip: one scene style for
/// every workload, objects and motion scaled with the picture size; the
/// seed moves objects, textures and noise.
feves::SyntheticConfig clip_config(int width, int height, std::uint64_t seed);

/// Renders `cfg.frames` frames, split over up to `threads` threads (each
/// with its own generator; the generator is a pure function of the index).
std::shared_ptr<const Clip> render_clip(const feves::SyntheticConfig& cfg,
                                        int threads);

/// Clip index of stream frame `f` when a clip of `n` frames is played
/// forwards then backwards (0,1,..,n-1,n-2,..,1,0,1,..): motion stays
/// continuous, so no artificial scene cut enters the stream.
int pingpong(int f, int n);

/// The timed region shared by every session of a run. Each session first
/// encodes `warmup` frames untimed; the first pull of a frame at or past
/// the warm-up arms the clock, and the region lasts `seconds` from there.
/// A pull of a frame past the warm-up after the deadline ends that session.
/// In a traced run the region is cut into quarters that alternate
/// untraced, traced, traced, untraced, so tracing overhead is measured
/// against neighbouring untraced frames instead of a fixed order.
class RunClock {
 public:
  /// `rss_frame`: peak memory is read as each session pulls this frame, so
  /// runs are compared after the same work rather than the same time (the
  /// encoder allocates device mirrors lazily, so memory grows with frames).
  RunClock(int warmup, double seconds, bool traced_run, int rss_frame)
      : RunClock(warmup, seconds, traced_run, rss_frame, -1) {}

  /// Setup-only clock: every session ends after its first frame.
  static RunClock first_frame_only() { return RunClock(0, 0.0, false, -1, 1); }

  /// Decides whether frame `index` may be pulled at time `t` (arming the
  /// clock on the first timed pull).
  bool admit(int index, double t);

  int warmup() const { return warmup_; }
  double seconds() const { return seconds_; }
  /// Arm time, or < 0 before any session reached the timed region.
  double armed_at() const;
  /// CPU time (user+sys, ms) of the process when the clock armed.
  double cpu_at_arm_ms() const;
  /// Whether a pull at time `t` falls in a traced quarter.
  bool traced(double t) const;
  /// Peak RSS (MiB) when the last of `sessions` sessions pulled
  /// `rss_frame`; < 0 when not every session got there.
  double rss_at_mark_mb(int sessions) const;

 private:
  RunClock(int warmup, double seconds, bool traced_run, int rss_frame,
           int frame_limit)
      : warmup_(warmup),
        seconds_(seconds),
        traced_run_(traced_run),
        rss_frame_(rss_frame),
        frame_limit_(frame_limit) {}

  int warmup_;
  double seconds_;
  bool traced_run_;
  int rss_frame_;
  int frame_limit_;  ///< > 0: admit only frames below this index
  mutable std::mutex mu_;
  double armed_at_ = -1.0;
  double cpu_at_arm_ms_ = 0.0;
  int rss_marks_ = 0;
  double rss_mark_mb_ = 0.0;
};

/// Process CPU time (user + system, all threads) in milliseconds.
double process_cpu_ms();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// One admitted pull: frame index and time.
struct Pull {
  int index = 0;
  double t_ms = 0.0;
};

/// The VideoSource handed to the program for one session.
class ClipSource final : public feves::VideoSource {
 public:
  ClipSource(std::shared_ptr<const Clip> clip, RunClock* clock, int session,
             SpanLog* spans);

  int width() const override;
  int height() const override;
  int frame_count() const override { return -1; }
  bool read_frame(int index, feves::Frame420& out) override;

  /// Span id of the session's whole-life span: parent of its frame spans.
  void set_session_span(int id);

  /// Span of the frame pulled last, while tracing records it (else -1).
  int current_frame_span() const;

  std::vector<Pull> pulls() const;
  /// Time of the refused pull that ended the stream (< 0 if none yet).
  double end_ms() const;

 private:
  std::shared_ptr<const Clip> clip_;
  RunClock* clock_;
  int session_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  std::vector<Pull> pulls_;
  double end_ms_ = -1.0;
  int session_span_ = -1;
  int open_frame_span_ = -1;
};

/// Stream frame `f` of a clip played with pingpong().
const feves::Frame420& clip_frame(const Clip& clip, int f);

}  // namespace perfbench
