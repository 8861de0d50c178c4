#include "inputs.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

feves::SyntheticConfig clip_config(int width, int height, std::uint64_t seed) {
  feves::SyntheticConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.kind = feves::SceneKind::kRollingObjects;
  cfg.seed = seed;
  // Objects and motion scale with the picture so CIF and 1080p clips have
  // the same character.
  cfg.num_objects = width >= 1280 ? 12 : 6;
  cfg.max_object_speed = width >= 1280 ? 10.0 : 4.0;
  cfg.global_pan_speed = 1.0;
  cfg.noise_stddev = 1.5;
  return cfg;
}

std::shared_ptr<const Clip> render_clip(const feves::SyntheticConfig& cfg,
                                        int threads) {
  auto clip = std::make_shared<Clip>();
  clip->reserve(static_cast<std::size_t>(cfg.frames));
  for (int i = 0; i < cfg.frames; ++i) {
    clip->emplace_back(cfg.width, cfg.height);
  }
  const int n = std::max(1, std::min(threads, cfg.frames));
  std::vector<std::thread> pool;
  for (int t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      feves::SyntheticSequence seq(cfg);
      for (int i = t; i < cfg.frames; i += n) {
        seq.read_frame(i, (*clip)[static_cast<std::size_t>(i)]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return clip;
}

int pingpong(int f, int n) {
  if (n <= 1) return 0;
  const int period = 2 * (n - 1);
  const int k = f % period;
  return k < n ? k : period - k;
}

const feves::Frame420& clip_frame(const Clip& clip, int f) {
  return clip[static_cast<std::size_t>(
      pingpong(f, static_cast<int>(clip.size())))];
}

bool RunClock::admit(int index, double t) {
  if (index == rss_frame_) {
    std::lock_guard lock(mu_);
    rss_mark_mb_ = std::max(rss_mark_mb_, peak_rss_mb());
    ++rss_marks_;
  }
  if (frame_limit_ > 0) return index < frame_limit_;
  if (index < warmup_) return true;
  std::lock_guard lock(mu_);
  if (armed_at_ < 0.0) {
    armed_at_ = t;
    cpu_at_arm_ms_ = process_cpu_ms();
    return true;
  }
  // A session that reaches the timed region late still gets one timed
  // frame, so every session reports a rate.
  return t < armed_at_ + seconds_ * 1e3 || index == warmup_;
}

double RunClock::armed_at() const {
  std::lock_guard lock(mu_);
  return armed_at_;
}

double RunClock::cpu_at_arm_ms() const {
  std::lock_guard lock(mu_);
  return cpu_at_arm_ms_;
}

double RunClock::rss_at_mark_mb(int sessions) const {
  std::lock_guard lock(mu_);
  return rss_marks_ >= sessions ? rss_mark_mb_ : -1.0;
}

bool RunClock::traced(double t) const {
  if (!traced_run_) return false;
  const double armed = armed_at();
  if (armed < 0.0) return false;
  const int quarter = static_cast<int>((t - armed) / (seconds_ * 250.0));
  return quarter == 1 || quarter == 2;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

ClipSource::ClipSource(std::shared_ptr<const Clip> clip, RunClock* clock,
                       int session, SpanLog* spans)
    : clip_(std::move(clip)), clock_(clock), session_(session), spans_(spans) {}

int ClipSource::width() const { return clip_->front().width(); }
int ClipSource::height() const { return clip_->front().height(); }

void ClipSource::set_session_span(int id) {
  std::lock_guard lock(mu_);
  session_span_ = id;
}

bool ClipSource::read_frame(int index, feves::Frame420& out) {
  const double t = now_ms();
  const bool admitted = clock_->admit(index, t);
  const bool traced = spans_ != nullptr && clock_->traced(t);
  int frame_span = -1;
  {
    std::lock_guard lock(mu_);
    // The session-seen frame: from this pull to the next one.
    if (open_frame_span_ >= 0) spans_->close(open_frame_span_, t);
    open_frame_span_ = -1;
    if (!admitted) {
      end_ms_ = t;
      return false;
    }
    pulls_.push_back({index, t});
    if (traced) {
      open_frame_span_ =
          spans_->open("session.frame", t, session_span_, session_);
      frame_span = open_frame_span_;
    }
  }
  out = clip_frame(*clip_, index);
  if (frame_span >= 0) {
    spans_->add("video.read_frame", t, now_ms(), frame_span, session_);
  }
  return true;
}

int ClipSource::current_frame_span() const {
  std::lock_guard lock(mu_);
  return open_frame_span_;
}

std::vector<Pull> ClipSource::pulls() const {
  std::lock_guard lock(mu_);
  return pulls_;
}

double ClipSource::end_ms() const {
  std::lock_guard lock(mu_);
  return end_ms_;
}

}  // namespace perfbench
