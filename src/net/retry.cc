#include "net/retry.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rlcut {
namespace net {

double BackoffMs(const RetryPolicy& policy, uint64_t op_id, int attempt) {
  const double initial = std::max(0.0, policy.initial_backoff_ms);
  const double cap = std::max(initial, policy.max_backoff_ms);
  const double growth = std::max(1.0, policy.multiplier);
  double base = initial * std::pow(growth, attempt);
  base = std::min(base, cap);
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter == 0 || base == 0) return base;
  // SplitMix64, the same decorrelation step the fault injector uses:
  // one round turns (seed, op, attempt) into an independent draw.
  const uint64_t draw = SplitMix64(policy.seed ^ SplitMix64(op_id) ^
                                   static_cast<uint64_t>(attempt));
  // Top 53 bits to a uniform double in [0, 1), mapped to [-1, +1).
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  return base * (1.0 + jitter * u);
}

Status RetryCall(const RetryPolicy& policy, uint64_t op_id,
                 const std::string& what,
                 const std::function<Status()>& fn,
                 const std::atomic<bool>* cancel, RetryOutcome* outcome) {
  obs::Counter* retries =
      obs::DefaultRegistry().GetCounter("retry." + what + ".retries");
  obs::Counter* exhausted =
      obs::DefaultRegistry().GetCounter("retry." + what + ".exhausted");
  const int max_attempts = std::max(1, policy.max_attempts);
  WallTimer timer;
  Status last = Status::Internal(what + ": never attempted");
  int attempt = 0;
  for (; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const int64_t wait_ms = static_cast<int64_t>(
          std::ceil(BackoffMs(policy, op_id, attempt - 1)));
      fault::CancellableSleepMs(wait_ms, cancel);
      retries->Increment();
    }
    last = fn();
    if (last.ok()) {
      if (outcome != nullptr) {
        outcome->attempts = attempt + 1;
        outcome->exhausted = false;
      }
      return last;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
    if (policy.deadline_seconds > 0 &&
        timer.ElapsedSeconds() >= policy.deadline_seconds) {
      break;
    }
  }
  exhausted->Increment();
  if (outcome != nullptr) {
    outcome->attempts = std::min(attempt + 1, max_attempts);
    outcome->exhausted = true;
  }
  return Status(last.code(), what + " failed after " +
                                 std::to_string(outcome != nullptr
                                                    ? outcome->attempts
                                                    : attempt + 1) +
                                 " attempts: " + last.message());
}

}  // namespace net
}  // namespace rlcut
