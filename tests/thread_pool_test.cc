#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "fault/fault.h"

namespace rlcut {
namespace {

fault::FaultSchedule MustParse(const std::string& spec) {
  fault::FaultSchedule schedule;
  std::string error;
  EXPECT_TRUE(fault::FaultSchedule::Parse(spec, /*seed=*/1, &schedule,
                                          &error))
      << error;
  return schedule;
}

class ThreadPoolTest : public ::testing::Test {
 protected:
  ThreadPoolTest() { fault::Disarm(); }
  ~ThreadPoolTest() override { fault::Disarm(); }
};

// Per-chunk completions by the member that claimed the chunk (`runs`)
// and by the caller's re-run in RunTeam's finish (`reruns`). Like the
// trainer's rescue, the re-run covers every chunk no claimant has
// completed yet: lost ones, and ones a helper is still running.
struct ChunkLedger {
  explicit ChunkLedger(size_t n) : runs(n), reruns(n) {}
  void RerunUnfinished() {
    for (size_t c = 0; c < runs.size(); ++c) {
      if (runs[c].load() == 0) ++reruns[c];
    }
  }
  // After RunTeam: the chunks no claimant completed, each of which the
  // caller must have re-run.
  int Lost() const {
    int lost = 0;
    for (size_t c = 0; c < runs.size(); ++c) {
      EXPECT_LE(runs[c].load(), 1) << "chunk " << c;
      if (runs[c].load() == 0) {
        ++lost;
        EXPECT_EQ(reruns[c].load(), 1) << "chunk " << c;
      }
    }
    return lost;
  }
  std::vector<std::atomic<int>> runs;
  std::vector<std::atomic<int>> reruns;
};

TEST_F(ThreadPoolTest, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  // A member runs one chunk at a time, so per-member scratch is safe.
  std::vector<std::atomic<int>> inside(pool.num_threads());
  for (size_t n = 0; n < 200; ++n) {
    const size_t num_chunks = n % 41;
    ChunkLedger ledger(num_chunks);
    pool.RunTeam(num_chunks, [&](size_t c, size_t member) {
      ASSERT_LT(member, pool.num_threads());
      EXPECT_EQ(inside[member].fetch_add(1), 0);
      ++ledger.runs[c];
      inside[member].fetch_sub(1);
    });
    for (const std::atomic<int>& r : ledger.runs) ASSERT_EQ(r.load(), 1);
  }
  EXPECT_EQ(pool.TakeError(), nullptr);
}

TEST_F(ThreadPoolTest, ThrowingTaskIsCapturedAndPoolStaysUsable) {
  ThreadPool pool(2);
  std::atomic<bool> helper_ran{false};
  ChunkLedger ledger(2);
  // The caller holds its chunk until the helper has run one, so the
  // helper is certain to throw (once: a chunk it claims later runs).
  pool.RunTeam(
      2,
      [&](size_t c, size_t member) {
        if (member != 0 && !helper_ran.exchange(true)) {
          throw std::runtime_error("chunk boom");
        }
        while (!helper_ran.load()) std::this_thread::yield();
        ++ledger.runs[c];
      },
      [&] { ledger.RerunUnfinished(); });
  EXPECT_EQ(ledger.Lost(), 1);

  std::exception_ptr error = pool.TakeError();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk boom");
  }
  EXPECT_EQ(pool.TakeError(), nullptr);  // slot cleared
  EXPECT_EQ(pool.errors_seen(), 1u);

  // The team keeps serving after the failure.
  ChunkLedger again(64);
  pool.RunTeam(64, [&](size_t c, size_t) { ++again.runs[c]; });
  for (const std::atomic<int>& r : again.runs) EXPECT_EQ(r.load(), 1);
}

TEST_F(ThreadPoolTest, CallerErrorPropagatesAfterHelpersLeave) {
  ThreadPool pool(2);
  std::atomic<bool> helper_inside{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<bool> helper_left{false};
  // The caller's chunk throws once the helper is inside the other chunk,
  // and the helper stays there for 20 ms after the throw: a RunTeam that
  // did not drain would have returned by then.
  EXPECT_THROW(pool.RunTeam(2,
                            [&](size_t, size_t member) {
                              if (member != 0) {
                                helper_inside = true;
                                while (!caller_threw.load()) {
                                  std::this_thread::yield();
                                }
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(20));
                                helper_left = true;
                                return;
                              }
                              while (!helper_inside.load()) {
                                std::this_thread::yield();
                              }
                              caller_threw = true;
                              throw std::runtime_error("caller boom");
                            }),
               std::runtime_error);
  EXPECT_TRUE(helper_left.load());
  // The caller's error propagated instead of being captured.
  EXPECT_EQ(pool.TakeError(), nullptr);

  ChunkLedger again(64);
  pool.RunTeam(64, [&](size_t c, size_t) { ++again.runs[c]; });
  for (const std::atomic<int>& r : again.runs) EXPECT_EQ(r.load(), 1);
}

TEST_F(ThreadPoolTest, CallerStallLeavesTheFirstClaimToAHelper) {
  fault::Arm(MustParse("threadpool.caller_stall:prob=1"));
  ThreadPool pool(2);
  for (int run = 0; run < 20; ++run) {
    std::atomic<size_t> claimant{0};
    pool.RunTeam(1, [&](size_t, size_t member) { claimant = member; });
    EXPECT_EQ(claimant.load(), 1u);
  }
  EXPECT_EQ(pool.tasks_executed(), 20u);
  EXPECT_EQ(fault::FireCount("threadpool.caller_stall"), 20u);

  // A team without helpers never consults the site: the caller runs
  // alone at once.
  ThreadPool alone(1);
  ChunkLedger ledger(4);
  WallTimer timer;
  alone.RunTeam(4, [&](size_t c, size_t) { ++ledger.runs[c]; });
  EXPECT_LT(timer.ElapsedSeconds(), 0.5);
  for (const std::atomic<int>& r : ledger.runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(fault::FireCount("threadpool.caller_stall"), 20u);
}

TEST_F(ThreadPoolTest, InjectedTaskThrowLosesOnlyItsChunk) {
  fault::Arm(MustParse("threadpool.task_throw:nth=1"));
  ThreadPool pool(2);
  ChunkLedger ledger(8);
  pool.RunTeam(
      8,
      [&](size_t c, size_t member) {
        // Hold the caller's first chunk until the helper has lost one.
        while (member == 0 && pool.errors_seen() == 0) {
          std::this_thread::yield();
        }
        ++ledger.runs[c];
      },
      [&] { ledger.RerunUnfinished(); });
  EXPECT_EQ(fault::FireCount("threadpool.task_throw"), 1u);
  EXPECT_EQ(ledger.Lost(), 1);
  std::exception_ptr error = pool.TakeError();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), fault::InjectedFault);
}

TEST_F(ThreadPoolTest, CrashedWorkerIsReplacedAndCapacitySurvives) {
  fault::Arm(MustParse("threadpool.worker_crash:nth=1,max=1"));
  ThreadPool pool(2);
  ChunkLedger ledger(4);
  pool.RunTeam(
      4,
      [&](size_t c, size_t member) {
        while (member == 0 && pool.errors_seen() == 0) {
          std::this_thread::yield();
        }
        ++ledger.runs[c];
      },
      [&] { ledger.RerunUnfinished(); });
  // The crashed helper lost exactly the chunk it claimed, which the
  // caller re-ran, and recorded the error.
  EXPECT_EQ(ledger.Lost(), 1);
  EXPECT_EQ(fault::FireCount("threadpool.worker_crash"), 1u);
  std::exception_ptr error = pool.TakeError();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), fault::InjectedFault);
  fault::Disarm();

  // The replacement restores the two-member team: two chunks that wait
  // for each other can only finish if a helper runs one of them.
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> arrivals{0};
  pool.RunTeam(2, [&](size_t, size_t) {
    ++arrivals;
    while (arrivals.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(arrivals.load(), 2);
}

TEST_F(ThreadPoolTest, WorkerStallDelaysButDoesNotDropTasks) {
  fault::Arm(MustParse("threadpool.worker_stall:nth=1,amount=20"));
  ThreadPool pool(2);
  std::atomic<bool> helper_ran{false};
  ChunkLedger ledger(4);
  pool.RunTeam(4, [&](size_t c, size_t member) {
    // The caller waits out the stalled helper here, so the stall
    // delays the helper's join but the helper still runs a chunk.
    if (member != 0) helper_ran = true;
    while (member == 0 && !helper_ran.load()) std::this_thread::yield();
    ++ledger.runs[c];
  });
  for (const std::atomic<int>& r : ledger.runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(pool.TakeError(), nullptr);
  EXPECT_EQ(fault::FireCount("threadpool.worker_stall"), 1u);
}

TEST_F(ThreadPoolTest, CallerFinishesAloneWhenNoHelperJoins) {
  // Every helper stalls before every join, far longer than the run.
  fault::Arm(MustParse("threadpool.worker_stall:prob=1,amount=300"));
  ThreadPool pool(4);
  for (int run = 0; run < 3; ++run) {
    ChunkLedger ledger(32);
    pool.RunTeam(32, [&](size_t c, size_t member) {
      EXPECT_EQ(member, 0u);
      ++ledger.runs[c];
    });
    for (const std::atomic<int>& r : ledger.runs) EXPECT_EQ(r.load(), 1);
  }
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST_F(ThreadPoolTest, StalledHelperDelaysNothing) {
  // One helper stalls for 1 s before joining; the other is free. The
  // run must not wait for the stalled one.
  fault::Arm(MustParse("threadpool.worker_stall:nth=1,amount=1000"));
  ThreadPool pool(3);
  ChunkLedger ledger(64);
  WallTimer timer;
  pool.RunTeam(64, [&](size_t c, size_t) { ++ledger.runs[c]; });
  EXPECT_LT(timer.ElapsedSeconds(), 0.5);
  for (const std::atomic<int>& r : ledger.runs) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace rlcut
