#ifndef RLCUT_COMMON_THREAD_POOL_H_
#define RLCUT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rlcut {

/// The team the multi-agent trainer scores its batches on: the thread
/// that calls RunTeam plus `num_threads - 1` persistent helpers. A run's
/// work is a range of chunks that members claim from one atomic
/// counter, so the caller never waits for a helper to show up: when no
/// helper joins, the caller runs every chunk itself. Between runs the
/// helpers park on a futex, so they take no cycles from the sequential
/// stages the caller runs in between.
///
/// Failure semantics (docs/robustness.md): a chunk that throws on a
/// helper never takes the process down. The helper records the first
/// error for TakeError() and keeps claiming, and only that chunk is
/// lost. A helper that dies (the threadpool.worker_crash fault site)
/// loses the chunk it claimed, records the error and is replaced by a
/// fresh thread, so the team keeps its capacity. The caller finds lost
/// chunks through its own bookkeeping and re-runs them in RunTeam's
/// `finish`. The threadpool.caller_stall site holds the caller's first
/// claim until a helper has claimed a chunk, so tests can make every run
/// reach the helpers' fault sites.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` helpers (`num_threads` >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins every helper, also one still stalled before joining a run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs `chunk(c, member)` once for every c in [0, num_chunks). The
  /// caller is member 0 and helpers are members 1 .. num_threads() - 1;
  /// a member runs one chunk at a time, so per-member scratch needs no
  /// lock. Once the counter is exhausted the caller runs `finish` (if
  /// any), while helpers may still be inside chunks they claimed, and
  /// RunTeam returns as soon as those helpers have left them. A helper
  /// that has not joined by then is not waited for. Errors of the
  /// caller's chunks and of `finish` propagate; errors on helpers are
  /// captured (TakeError). Not reentrant: one run at a time.
  void RunTeam(size_t num_chunks,
               const std::function<void(size_t, size_t)>& chunk,
               const std::function<void()>& finish = nullptr);

  /// First error captured since the last TakeError(): a chunk's
  /// exception, an injected fault, or a crashed helper's lost chunk.
  /// Returns nullptr if none. Clears the slot.
  std::exception_ptr TakeError();

  /// Total helper errors captured over the pool's lifetime.
  uint64_t errors_seen() const {
    return errors_seen_.load(std::memory_order_relaxed);
  }

  /// Chunks helpers have claimed and run so far (the caller's own are
  /// not counted); also counted into the `threadpool.tasks` metric as
  /// they run.
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  // One helper thread serving member slot `member`; `seen` is the last
  // run generation it saw.
  void HelperLoop(size_t member, uint64_t seen);
  // Returns the run word of the first run newer than generation `seen`,
  // or 0 once shutdown has begun.
  uint64_t AwaitRun(uint64_t seen);
  // Claims and runs chunks of the open run; false if the helper crashed
  // (the caller of Work then replaces it).
  bool Work(size_t member);
  void RecordError(std::exception_ptr error);

  const size_t num_threads_;
  // Grows when a crashed helper is replaced; stable once stopping_ is
  // set (it is set, and respawns check it, under mu_), so the
  // destructor can join without holding the lock.
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::exception_ptr first_error_;  // guarded by mu_
  std::atomic<bool> stopping_{false};
  // Parked helpers sleep on wake_epoch_ (a futex word), which RunTeam
  // bumps only when parked_ says someone is asleep.
  std::atomic<size_t> parked_{0};
  std::atomic<uint32_t> wake_epoch_{0};
  // The run word: generation << 1 | open. A helper joins a run only
  // while its word is open, counting itself in active_ first, so the
  // caller's close-then-drain sees every helper that joined.
  std::atomic<uint64_t> run_{0};
  std::atomic<size_t> active_{0};
  // The open run's chunks; written by the caller before it opens the
  // run, read by helpers that joined it.
  const std::function<void(size_t, size_t)>* chunk_ = nullptr;
  size_t num_chunks_ = 0;
  std::atomic<size_t> next_chunk_{0};
  std::atomic<uint64_t> errors_seen_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  obs::Counter* const tasks_metric_;
  obs::Counter* const errors_metric_;
};

/// Number of hardware threads, never less than 1.
size_t DefaultThreadCount();

}  // namespace rlcut

#endif  // RLCUT_COMMON_THREAD_POOL_H_
