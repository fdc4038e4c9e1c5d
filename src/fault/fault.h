#ifndef RLCUT_FAULT_FAULT_H_
#define RLCUT_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

/// Deterministic, seeded fault injection (docs/robustness.md).
///
/// Production code declares *failure sites* — named points where the
/// environment could fail (a task throws, a write is torn, a worker
/// stalls) — by calling ShouldFire("site.name") and acting out the
/// failure when it returns true. With no schedule armed every site is a
/// single relaxed atomic load, so sites are free in production builds;
/// arming a FaultSchedule (tests, the chaos audit lane) turns selected
/// sites on with per-site triggers:
///
///   prob=P     fire each hit independently with probability P, decided
///              by a hash of (schedule seed, site, hit index) so a given
///              seed fires the same hit indices every run
///   nth=N      fire exactly on the N-th hit of the site (1-based)
///   steps=A-B  only fire while the trainer step context (SetStepContext)
///              is within [A, B]
///   max=M      stop after M fires (default: unlimited)
///   amount=K   site-specific payload: stall milliseconds for *stall
///              sites, bytes written before failing for short_write
///
/// Spec grammar (one line, e.g. for a --faults flag):
///   site:key=value[,key=value...][;site:...]
/// Example:
///   threadpool.task_throw:prob=0.05;checkpoint.short_write:nth=2
namespace rlcut::fault {

/// Thrown by sites that simulate a failing task. Deliberately a plain
/// runtime_error subtype: survivors must handle it through the same
/// path as any other exception, not by special-casing the injector.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault: " + site) {}
};

/// One trigger rule for a named site. Default-constructed fields mean
/// "no constraint"; a rule with neither prob nor nth never fires.
struct FaultRule {
  std::string site;
  double probability = 0;
  int64_t nth = 0;
  int64_t step_lo = -1;
  int64_t step_hi = -1;
  int64_t max_fires = -1;
  int64_t amount = 0;
};

/// A set of rules plus the seed that makes probabilistic triggers
/// deterministic. Value type: build one, then Arm() it.
struct FaultSchedule {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  /// Parses the spec grammar above. Unknown sites and malformed
  /// key=value pairs are errors (returns false and sets *error);
  /// an empty spec parses to an empty schedule.
  static bool Parse(const std::string& spec, uint64_t seed,
                    FaultSchedule* out, std::string* error);

  /// Round-trips back to the spec grammar (for logs and reports).
  std::string ToSpec() const;
};

/// Installs `schedule` process-wide and resets all hit/fire counters.
/// Thread-safe; replaces any previously armed schedule.
void Arm(const FaultSchedule& schedule);

/// Returns every site to the free no-op path.
void Disarm();

/// True while a schedule is armed.
bool Armed();

/// Trainer-step context for steps=A-B triggers; -1 means "outside any
/// step" (such hits only match rules without a step window).
void SetStepContext(int64_t step);

/// The site check. Disarmed: one relaxed atomic load. Armed: consults
/// the schedule under a lock (injection runs are not perf runs). When
/// the site fires and `amount` is non-null, the rule's amount payload
/// (or 0) is stored there.
bool ShouldFire(const char* site, int64_t* amount = nullptr);

/// Fires observed per site / in total since the last Arm().
uint64_t FireCount(const std::string& site);
uint64_t TotalFires();

/// Sleeps up to `ms` milliseconds in 1 ms slices, returning early once
/// `*cancel` becomes true (pass nullptr for an uninterruptible sleep).
/// Stall sites use this so the trainer's straggler rescue can cut them
/// short.
void CancellableSleepMs(int64_t ms, const std::atomic<bool>* cancel);

/// Registry of the failure sites wired into the codebase, for spec
/// validation and the docs table.
struct SiteInfo {
  const char* name;
  const char* description;
};
const std::vector<SiteInfo>& KnownSites();

}  // namespace rlcut::fault

#endif  // RLCUT_FAULT_FAULT_H_
