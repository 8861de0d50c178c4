#include "common/thread_pool.hpp"

#include "common/check.hpp"
#include "common/types.hpp"

#include <atomic>
#include <algorithm>
#include <exception>

namespace feves {

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> fut = task->get_future();
  {
    std::lock_guard lock(mutex_);
    FEVES_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    tasks_.emplace([task] { (*task)(); });
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn) {
  parallel_for(begin, end, fn, nullptr);
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& fn,
                              const std::function<void(int)>& on_claim) {
  if (begin >= end) return;
  const int total = end - begin;
  const int parts = std::min<int>(total, static_cast<int>(size()) + 1);
  const int chunk = ceil_div(total, parts);

  std::atomic<int> next{begin};
  // Chunks starting at or past `stop` are abandoned. It only decreases: to
  // the start of each new lowest throwing chunk, or to `begin` when a
  // helper could not be submitted.
  std::atomic<int> stop{end};
  std::exception_ptr first_error;  // from the lowest throwing chunk
  std::mutex error_mutex;

  auto drain = [&] {
    // Claims come in increasing order, so the first claim at or past
    // `stop` ends this participant. A claimed chunk below `stop` always
    // runs, even when a higher chunk has already failed: it may hold the
    // lowest error.
    for (;;) {
      const int lo = next.fetch_add(chunk);
      if (on_claim) on_claim(lo);
      if (lo >= stop.load()) break;
      const int hi = std::min(end, lo + chunk);
      try {
        for (int i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        // Deterministic winner: the lowest-indexed chunk that threw,
        // not whichever worker reaches this lock first.
        if (lo < stop.load()) {
          stop.store(lo);
          first_error = std::current_exception();
        }
      }
    }
  };

  // Every helper that was submitted MUST be waited for before this frame
  // unwinds — the drains reference `next`/`fn`/`error_mutex` on this stack.
  // That includes the path where submit() itself throws partway through.
  std::vector<std::future<void>> futs;
  futs.reserve(parts - 1);
  std::exception_ptr submit_error;
  try {
    for (int p = 1; p < parts; ++p) futs.push_back(submit(drain));
  } catch (...) {
    submit_error = std::current_exception();
    std::lock_guard lock(error_mutex);
    stop.store(begin);  // stop in-flight drains
  }
  if (!submit_error) drain();  // The caller participates instead of idling.
  for (auto& f : futs) f.wait();

  if (first_error) std::rethrow_exception(first_error);
  if (submit_error) std::rethrow_exception(submit_error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace feves
