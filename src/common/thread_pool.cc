#include "common/thread_pool.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rlcut {
namespace {

constexpr uint64_t kOpen = 1;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads),
      tasks_metric_(obs::DefaultRegistry().GetCounter("threadpool.tasks")),
      errors_metric_(
          obs::DefaultRegistry().GetCounter("threadpool.task_errors")) {
  RLCUT_CHECK_GE(num_threads, 1u);
  helpers_.reserve(num_threads - 1);
  for (size_t member = 1; member < num_threads; ++member) {
    helpers_.emplace_back([this, member] { HelperLoop(member, 0); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
  }
  wake_epoch_.fetch_add(1);
  wake_epoch_.notify_all();
  // helpers_ is stable now: respawns check stopping_ under mu_.
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadPool::RunTeam(size_t num_chunks,
                         const std::function<void(size_t, size_t)>& chunk,
                         const std::function<void()>& finish) {
  // Publish the run, then open it. No helper is inside a run here: the
  // previous RunTeam drained them all before returning.
  chunk_ = &chunk;
  num_chunks_ = num_chunks;
  next_chunk_.store(0, std::memory_order_relaxed);
  const uint64_t generation = (run_.load(std::memory_order_relaxed) >> 1) + 1;
  run_.store(generation << 1 | kOpen);
  if (parked_.load() > 0) {
    // A helper counts itself parked before its last look at run_, so
    // either it sees the new run or this bump wakes it.
    wake_epoch_.fetch_add(1);
    wake_epoch_.notify_all();
  }
  // Closes the run and drains the helpers inside it on every exit, also
  // when a chunk of the caller's or `finish` throws, so no helper is
  // left running a chunk of a run that has returned.
  struct Drain {
    ThreadPool* pool;
    uint64_t closed;
    ~Drain() {
      pool->next_chunk_.store(pool->num_chunks_);
      pool->run_.store(closed);
      while (pool->active_.load() != 0) std::this_thread::yield();
    }
  } drain{this, generation << 1};
  int64_t stall_ms = 0;
  if (num_threads_ > 1 && num_chunks > 0 &&
      fault::ShouldFire("threadpool.caller_stall", &stall_ms)) {
    // The caller stalls before its first claim until a helper has
    // claimed a chunk, so the run reaches the helpers' fault sites
    // however quickly the caller could have finished alone.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(stall_ms > 0 ? stall_ms
                                                                 : 1000);
    while (next_chunk_.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  for (size_t c = next_chunk_.fetch_add(1); c < num_chunks;
       c = next_chunk_.fetch_add(1)) {
    chunk(c, 0);
  }
  if (finish) finish();
}

uint64_t ThreadPool::AwaitRun(uint64_t seen) {
  while (true) {
    parked_.fetch_add(1);
    const uint32_t epoch = wake_epoch_.load();
    const uint64_t run = run_.load();
    const bool stopping = stopping_.load();
    if (run >> 1 != seen || stopping) {
      parked_.fetch_sub(1);
      return stopping ? 0 : run;
    }
    wake_epoch_.wait(epoch);
    parked_.fetch_sub(1);
  }
}

void ThreadPool::HelperLoop(size_t member, uint64_t seen) {
  while (true) {
    const uint64_t run = AwaitRun(seen);
    if (run == 0) return;
    seen = run >> 1;
    int64_t stall_ms = 0;
    if (fault::ShouldFire("threadpool.worker_stall", &stall_ms)) {
      fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 20, nullptr);
    }
    // Join only the run this helper woke for, and only while it is open.
    active_.fetch_add(1);
    if (run_.load() != (seen << 1 | kOpen)) {
      active_.fetch_sub(1);
      continue;
    }
    const bool alive = Work(member);
    active_.fetch_sub(1);
    if (!alive) {
      // Simulated death: a fresh thread takes over this member slot, so
      // the team's capacity survives the crash.
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_.load()) {
        helpers_.emplace_back([this, member, seen] { HelperLoop(member, seen); });
      }
      return;
    }
  }
}

bool ThreadPool::Work(size_t member) {
  for (size_t c = next_chunk_.fetch_add(1); c < num_chunks_;
       c = next_chunk_.fetch_add(1)) {
    if (fault::ShouldFire("threadpool.worker_crash")) {
      RecordError(std::make_exception_ptr(
          fault::InjectedFault("threadpool.worker_crash")));
      return false;
    }
    try {
      if (fault::ShouldFire("threadpool.task_throw")) {
        throw fault::InjectedFault("threadpool.task_throw");
      }
      (*chunk_)(c, member);
    } catch (...) {
      RecordError(std::current_exception());
    }
    // Counted as they run, so a long-lived pool's work shows up in the
    // metric while it is still alive.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    tasks_metric_->Increment();
  }
  return true;
}

void ThreadPool::RecordError(std::exception_ptr error) {
  errors_metric_->Increment();
  errors_seen_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_error_ == nullptr) first_error_ = std::move(error);
}

std::exception_ptr ThreadPool::TakeError() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(first_error_, nullptr);
}

size_t DefaultThreadCount() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace rlcut
