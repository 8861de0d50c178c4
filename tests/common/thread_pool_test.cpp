#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace feves {

/// Reaches ThreadPool's claim-hooked parallel_for.
class ThreadPoolTestPeer {
 public:
  static void parallel_for(ThreadPool& pool, int begin, int end,
                           const std::function<void(int)>& fn,
                           const std::function<void(int)>& on_claim) {
    pool.parallel_for(begin, end, fn, on_claim);
  }
};

namespace {

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.submit([&] { counter.fetch_add(1); });
  fut.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesResultOrdering) {
  ThreadPool pool(4);
  std::vector<std::future<void>> futs;
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](int) { ++calls; });
  pool.parallel_for(7, 3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(41, 42, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 41);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](int i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForLargeSum) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::atomic<long long> sum{0};
  pool.parallel_for(0, kN, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

// Regression: when fn throws, parallel_for must join every in-flight worker
// BEFORE unwinding (the workers reference state on the caller's stack) and
// the pool must stay fully usable afterwards. Run under TSAN via
// tests/run_sanitized.sh.
TEST(ThreadPool, ParallelForJoinsWorkersBeforeUnwinding) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> started{0};
    try {
      pool.parallel_for(0, 256, [&](int i) {
        started.fetch_add(1, std::memory_order_relaxed);
        if (i % 17 == 3) throw std::runtime_error("boom");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error&) {
      // If a worker were still draining here it would touch `started`
      // after this round's stack frame died; TSAN (and eventually ASAN)
      // would flag it. Surviving 50 rounds cleanly is the regression check.
    }
    std::atomic<int> after{0};
    pool.parallel_for(0, 64, [&](int i) { after.fetch_add(i); });
    EXPECT_EQ(after.load(), 64 * 63 / 2);
  }
}

// Regression: the rethrown error must be deterministic — the lowest-indexed
// throwing chunk wins, not whichever worker reaches the error lock first.
// Index `begin` is always in the first chunk handed out, so when every
// index throws, the reported error must always be fn(begin)'s.
TEST(ThreadPool, ParallelForRethrowsDeterministicFirstError) {
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    try {
      pool.parallel_for(10, 400, [](int i) {
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "10") << "round " << round;
    }
  }
}

// Regression: a participant that has claimed the lowest chunk must still
// run it when a higher chunk fails between that claim and its run decision
// — the interleaving that made the "lowest-chunk error" depend on timing.
// A latch keyed on chunk index forces it every round: the claimer of chunk
// 0 waits until the participant that ran chunk 1 has recorded its error and
// claimed again (it claims past the range only after the catch).
TEST(ThreadPool, ParallelForRunsLowChunkClaimedBeforeHigherFailure) {
  ThreadPool pool(1);  // caller + one worker: chunks {0} and {1}
  for (int round = 0; round < 20; ++round) {
    std::mutex m;
    std::condition_variable cv;
    bool higher_failed = false;
    bool timed_out = false;
    const auto on_claim = [&](int lo) {
      std::unique_lock lock(m);
      if (lo == 0) {
        timed_out = !cv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return higher_failed; });
      } else if (lo >= 2) {
        higher_failed = true;
        cv.notify_all();
      }
    };
    try {
      ThreadPoolTestPeer::parallel_for(
          pool, 0, 2,
          [](int i) { throw std::runtime_error(std::to_string(i)); },
          on_claim);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0") << "round " << round;
    }
    EXPECT_FALSE(timed_out) << "round " << round;
  }
}

// Device lanes share one pool: several threads call parallel_for on it at
// once, each must see every one of its own indices run exactly once.
TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kN = 500;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<long long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<long long> sum{0};
        pool.parallel_for(c, c + kN, [&](int i) {
          hits[c][i - c].fetch_add(1);
          sum.fetch_add(i);
        });
        sums[c] += sum.load();
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[c][i].load(), 20) << "caller " << c << " index " << i;
    }
    const long long one = static_cast<long long>(kN) * c +
                          static_cast<long long>(kN) * (kN - 1) / 2;
    EXPECT_EQ(sums[c], 20 * one) << "caller " << c;
  }
}

// The caller never waits for a helper that has not started: with every
// worker blocked, parallel_for still completes, on the caller alone.
TEST(ThreadPool, ParallelForCompletesWhileEveryWorkerIsBlocked) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  int blocked = 0;
  std::vector<std::future<void>> blockers;
  for (unsigned w = 0; w < pool.size(); ++w) {
    blockers.push_back(pool.submit([&] {
      std::unique_lock lock(m);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }));
  }
  {
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return blocked == 2; }));
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  std::atomic<int> elsewhere{0};
  pool.parallel_for(0, 100, [&](int) {
    count.fetch_add(1);
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(elsewhere.load(), 0);
  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
  for (auto& f : blockers) f.wait();
  // The stale helpers left in the queue find the call closed; the pool
  // stays fully usable.
  std::atomic<int> after{0};
  pool.parallel_for(0, 64, [&](int i) { after.fetch_add(i); });
  EXPECT_EQ(after.load(), 64 * 63 / 2);
}

// The lowest-index error wins per call even while other callers run on the
// same pool: each caller always sees the error of its own first index.
TEST(ThreadPool, ConcurrentCallersRethrowTheirOwnFirstError) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const int begin = 100 * c + 10;
      for (int round = 0; round < 50; ++round) {
        try {
          pool.parallel_for(begin, begin + 90, [](int i) {
            throw std::runtime_error(std::to_string(i));
          });
          ++wrong[c];
        } catch (const std::runtime_error& e) {
          if (e.what() != std::to_string(begin)) ++wrong[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(wrong[c], 0) << "caller " << c;
  }
}

}  // namespace
}  // namespace feves
