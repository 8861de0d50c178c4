#include "common/thread_pool.hpp"

#include "common/check.hpp"

#include <atomic>
#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

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

LaneRuntime::Batch::Batch(LaneRuntime& runtime, int count,
                          std::function<void(int)> fn)
    : runtime_(runtime), fn_(std::move(fn)) {
  if (count <= 0) return;
  std::lock_guard lock(runtime_.mutex_);
  FEVES_CHECK_MSG(!runtime_.stop_, "batch on a stopped LaneRuntime");
  // Grow before handing anything out: a thread that fails to start then
  // leaves no task of this batch running.
  while (static_cast<int>(runtime_.idle_.size()) < count) {
    auto w = std::make_unique<Worker>();
    Worker* raw = w.get();
    // Room for every thread in the idle set, so parking never allocates.
    runtime_.workers_.reserve(runtime_.workers_.size() + 1);
    runtime_.idle_.reserve(runtime_.workers_.size() + 1);
    w->thread = std::thread([this_rt = &runtime_, raw] {
      this_rt->worker_loop(raw);
    });
    runtime_.workers_.push_back(std::move(w));
    runtime_.idle_.push_back(raw);
    runtime_.started_.fetch_add(1);
  }
  for (int i = 0; i < count; ++i) {
    Worker* w = runtime_.idle_.back();
    runtime_.idle_.pop_back();
    w->batch = this;
    w->index = i;
    ++pending_;
    // Targeted: only the thread that got the task wakes.
    w->wake.notify_one();
  }
}

LaneRuntime::Batch::~Batch() {
  std::unique_lock lock(runtime_.mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

void LaneRuntime::Batch::join() {
  std::exception_ptr error;
  {
    std::unique_lock lock(runtime_.mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

LaneRuntime::~LaneRuntime() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    for (auto& w : workers_) w->wake.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

void LaneRuntime::worker_loop(Worker* w) {
  std::unique_lock lock(mutex_);
  for (;;) {
    w->wake.wait(lock, [&] { return stop_ || w->batch != nullptr; });
    if (w->batch == nullptr) return;  // stopping, and idle
    Batch* batch = w->batch;
    const int index = w->index;
    lock.unlock();
    std::exception_ptr error;
    try {
      batch->fn_(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // Park before counting the task done, so the batch's joiner (and the
    // next batch it starts) finds this thread idle.
    w->batch = nullptr;
    idle_.push_back(w);
    if (error && !batch->error_) batch->error_ = error;
    if (--batch->pending_ == 0) batch->done_.notify_all();
  }
}

LaneRuntime& lane_runtime() {
  static LaneRuntime runtime;
  return runtime;
}

ThreadPool& device_pool() {
  // hardware_concurrency() may report 0 (unknown): one worker then.
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()) -
                         1);
  return pool;
}

}  // namespace feves
