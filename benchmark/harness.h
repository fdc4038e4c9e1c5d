#ifndef RLCUT_BENCHMARK_HARNESS_H_
#define RLCUT_BENCHMARK_HARNESS_H_

// Measurement loop, checks and output of rlcut_bench (README.md in this
// directory). A workload supplies set-up and one rep of fixed work; the
// harness repeats the rep for the requested seconds, derives per-layer
// numbers from the obs trace of traced reps, and prints the result line.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rlcut::bench {

/// The trainer seed is fixed so that --seed moves only the generated
/// inputs.
inline constexpr uint64_t kTrainerSeed = 1;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured rep loop (at least one rep always runs).
  double seconds = 15;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test size: 1/8 inputs, one rep.
  bool quick = false;
  /// Scratch directory of this run (plans, .rlg files); removed at exit.
  std::string work_dir;
  /// Where the per-run JSON and Chrome trace go; empty = not written.
  std::string out_dir;
  /// The rlcut_replica binary (replica_tw).
  std::string replica_bin;
};

/// One unit of fixed work that ends in a saved or published plan.
struct RepResult {
  double seconds = 0;
  /// Latencies of the workload's request operation (see README.md);
  /// empty where it has none, and then op_* reports reopt_ms.
  std::vector<double> op_ms;
  /// Latencies of each re-optimization: a trainer step, or a session's
  /// MaybeReoptimize + PublishPlan cycle (serve_diurnal).
  std::vector<double> reopt_ms;
  /// MastersFingerprint of the plan, in original vertex ids.
  uint64_t fingerprint = 0;
  double transfer_ms = 0;
  double cost_usd = 0;
  /// Per-layer counts and sizes this rep produced that the trace and
  /// the metrics registry do not carry (bytes written, pushes, ...).
  std::map<std::string, double> counts;
  /// Operations of the rep that failed a check (one line each).
  std::vector<std::string> failures;
};

/// Accumulates one run's checks, operation counts and metrics, and
/// renders the result line and the per-run JSON.
class Run {
 public:
  explicit Run(const Config& config) : config_(config) {}

  /// Counts one check; a failure prints a one-line repro to stderr.
  bool Check(bool ok, const std::string& what);
  /// Counts operations attempted (their failures are reported as checks).
  void CountOps(uint64_t attempted);
  void SetMetric(const std::string& name, double value);
  /// Extra per-run JSON fields; `json` must be a valid JSON value.
  void SetDetail(const std::string& key, std::string json);

  bool correct() const { return failed_ == 0; }
  /// Prints the result line (and writes the per-run JSON when an output
  /// directory is set). Returns the process exit code.
  int Finish();

 private:
  const Config& config_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> details_;
};

/// A workload plugged into Measure.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Builds the instance from the seed; returns the seconds spent
  /// building the graph itself (graph.build_s).
  virtual double Setup() = 0;
  /// Runs one rep with `threads` trainer threads.
  virtual RepResult Rep(int threads) = 0;
  /// Checks on the final plan (plan round trip, budgets, cross-run
  /// equalities); adds what it measured to `once` when non-null
  /// (traced runs: evaluator micro-timings).
  virtual void Verify(Run* run, std::map<std::string, double>* once) = 0;
  /// Workload arguments, as a JSON object, for the per-run JSON.
  virtual std::string ArgsJson() const = 0;
};

/// The workload named config.workload, or nullptr if there is none
/// (workloads.cc).
std::unique_ptr<Workload> MakeWorkload(const Config& config);

/// Names MakeWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Runs set-up, the rep loop and the checks, and fills `run`.
void Measure(const Config& config, Workload* workload, Run* run);

/// JSON helpers for the per-run file: a number with all its digits
/// (null when not finite), and {"n", "median", "q1", "q3", "p90",
/// "p99", "min", "max"} of a timing.
std::string JsonNumber(double value);
std::string StatsJson(const std::vector<double>& values);

}  // namespace rlcut::bench

#endif  // RLCUT_BENCHMARK_HARNESS_H_
