#include "common/thread_pool.hpp"

#include "common/check.hpp"

#include <atomic>
#include <algorithm>
#include <exception>
#include <memory>

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
  if (end - begin == 1) {
    // Nothing to share: no helper, no claim protocol.
    fn(begin);
    return;
  }
  const int helpers = std::min(end - begin - 1, static_cast<int>(size()));

  std::atomic<int> next{begin};
  // Indices at or past `stop` are abandoned. It only decreases: to each new
  // lowest throwing index, or to `begin` when helpers could not be queued.
  std::atomic<int> stop{end};
  std::exception_ptr first_error;  // from the lowest throwing index
  std::mutex error_mutex;

  auto drain = [&] {
    // Claims come in increasing order, so the first claim at or past
    // `stop` ends this participant. A claimed index below `stop` always
    // runs, even when a higher one has already failed: it may hold the
    // lowest error.
    for (;;) {
      const int i = next.fetch_add(1);
      if (on_claim) on_claim(i);
      if (i >= stop.load()) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        // Deterministic winner: the lowest index that threw, not whichever
        // participant reaches this lock first.
        if (i < stop.load()) {
          stop.store(i);
          first_error = std::current_exception();
        }
      }
    }
  };

  // Helpers check in before touching this frame's state. Once the caller
  // closes the gate, late helpers return without touching it, so the
  // caller waits only for the helpers that did start: a helper still
  // queued behind another caller's work never holds this call up. The
  // gate lives on the heap because late helpers outlive this frame.
  struct Gate {
    std::mutex m;
    std::condition_variable cv;
    int active = 0;
    bool closed = false;
  };
  const auto gate = std::make_shared<Gate>();
  std::exception_ptr submit_error;
  try {
    {
      std::lock_guard lock(mutex_);
      FEVES_CHECK_MSG(!stop_, "parallel_for() on a stopped ThreadPool");
      for (int h = 0; h < helpers; ++h) {
        tasks_.emplace([gate, &drain] {
          {
            std::lock_guard check_in(gate->m);
            if (gate->closed) return;
            ++gate->active;
          }
          drain();
          std::lock_guard check_out(gate->m);
          if (--gate->active == 0) gate->cv.notify_all();
        });
      }
    }
    // One wake per helper: a worker woken with nothing to take would only
    // cost another core a context switch.
    for (int h = 0; h < helpers; ++h) cv_.notify_one();
  } catch (...) {
    // Helpers queued before the failure may already be draining; stop
    // them at their next claim.
    submit_error = std::current_exception();
    std::lock_guard lock(error_mutex);
    stop.store(begin);
  }
  if (!submit_error) drain();  // The caller participates instead of idling.
  {
    std::unique_lock lock(gate->m);
    gate->closed = true;
    gate->cv.wait(lock, [&] { return gate->active == 0; });
  }

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

ThreadPool& device_pool() {
  // hardware_concurrency() may report 0 (unknown): one worker then.
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()) -
                         1);
  return pool;
}

}  // namespace feves
