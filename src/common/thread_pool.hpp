// Fixed-size worker pool behind the real execution backend's multi-core
// devices. One process-wide instance (device_pool()) serves every device
// lane: a lane that runs a row-ranged op fans its MB rows over the pool and
// works on them itself, the way each device of the paper runs its slice on
// its own cores (Sec. III-B1's per-device Parallel Modules).
//
// Beside it, lane_runtime(): the parked threads the real executor runs its
// device lanes on. Lanes block on other lanes' ops, so they cannot share a
// fixed pool's workers; the runtime hands each lane a thread of its own and
// takes it back when the lane is drained, growing only when more lanes run
// at once than ever before.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
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
  /// thread; returns when every index has been processed. Participants
  /// claim one index (one MB row) at a time, so several callers sharing the
  /// pool interleave at row grain instead of queueing behind each other's
  /// chunks. A one-index range runs inline. The caller never waits for a
  /// helper task that has not started: once it runs out of indices it
  /// waits only for helpers already working, and a helper that starts
  /// later finds nothing to do — so a call completes even when every
  /// worker is blocked elsewhere.
  /// If fn throws, indices past the lowest throwing one are abandoned,
  /// every started helper is joined before unwinding, and the error from
  /// the lowest throwing index is rethrown (deterministic across runs:
  /// every index below it still runs).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn);

 private:
  friend class ThreadPoolTestPeer;

  /// parallel_for with `on_claim(i)` called after a participant claims
  /// index `i` and before it decides whether to run it — the seam tests use
  /// to force claim/failure interleavings.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn,
                    const std::function<void(int)>& on_claim);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide device-compute pool, created on first use with
/// hardware_concurrency() - 1 workers: callers of parallel_for take part in
/// the work, so together they fill every core without oversubscribing.
ThreadPool& device_pool();

/// Grow-only set of parked threads for tasks that block on each other: the
/// real executor's lanes, and the encoder's speculation beside them. A
/// batch hands each of its tasks to an idle thread, starting threads only
/// when too few are idle, and a thread returns to the idle set before its
/// batch counts it finished — so back-to-back batches of the same width
/// start no thread after the first.
class LaneRuntime {
 public:
  /// fn(0), ..., fn(count - 1), each on its own runtime thread. Either every
  /// task starts or none does (the constructor throws). Destroying the
  /// batch joins it.
  class Batch {
   public:
    Batch(LaneRuntime& runtime, int count, std::function<void(int)> fn);
    ~Batch();

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Waits until every task has returned and its thread is parked again;
    /// rethrows the first exception a task threw.
    void join();

   private:
    friend class LaneRuntime;
    LaneRuntime& runtime_;
    std::function<void(int)> fn_;
    int pending_ = 0;  ///< guarded by runtime_.mutex_
    std::condition_variable done_;
    std::exception_ptr error_;
  };

  LaneRuntime() = default;
  ~LaneRuntime();

  LaneRuntime(const LaneRuntime&) = delete;
  LaneRuntime& operator=(const LaneRuntime&) = delete;

  /// Threads started over the runtime's life (it never stops one early).
  std::size_t threads_started() const { return started_.load(); }

 private:
  struct Worker {
    std::thread thread;
    std::condition_variable wake;
    Batch* batch = nullptr;  ///< assigned task, guarded by mutex_
    int index = 0;
  };

  void worker_loop(Worker* w);

  std::mutex mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> idle_;
  bool stop_ = false;
  std::atomic<std::size_t> started_{0};
};

/// The process-wide lane runtime, created on first use with no threads.
LaneRuntime& lane_runtime();

}  // namespace feves
