// Fixed-size worker pool used by the real execution backend. Each CPU device
// (and each simulated accelerator running in real mode) owns one pool, which
// mirrors the paper's per-device OpenMP teams.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace feves {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 is clamped to 1.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task for asynchronous execution.
  std::future<void> submit(std::function<void()> fn);

  /// Runs fn(i) for i in [begin, end) across the pool and the calling
  /// thread; returns when every index has been processed. Indices are
  /// chunked contiguously so MB rows processed by one worker stay adjacent
  /// in memory (same locality the paper's row-sliced kernels rely on).
  /// If fn throws, chunks past the lowest throwing chunk are abandoned,
  /// every in-flight worker is joined before unwinding, and the error from
  /// the lowest-indexed throwing chunk is rethrown (deterministic across
  /// runs: every chunk below it still runs).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

 private:
  friend class ThreadPoolTestPeer;

  /// parallel_for with `on_claim(lo)` called after a participant claims the
  /// chunk starting at `lo` and before it decides whether to run it — the
  /// seam tests use to force claim/failure interleavings.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn,
                    const std::function<void(int)>& on_claim);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace feves
