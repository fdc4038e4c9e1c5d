// rlcut_bench: whole-run benchmark of RLCut (README.md in this directory).
//
//   rlcut_bench --workload=batch_tw --seed=1 --seconds=15 --trace=0
//   rlcut_bench --workload=serve_diurnal --trace=1 --out=results/
//
// Prints one JSON line last: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics when --trace=0 and the
// per-layer metrics when --trace=1. Exits non-zero if any check fails,
// after a one-line repro on stderr.

#include <unistd.h>

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "harness.h"

namespace {

// The run's own work directory, removed on every exit path.
struct WorkDir {
  std::filesystem::path path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string Names() {
  std::string out;
  for (const std::string& name : rlcut::bench::WorkloadNames()) {
    out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  rlcut::FlagParser flags;
  flags.DefineString("workload", "", "one of: " + Names());
  flags.DefineInt("seed", 1, "seed of the generated inputs (2 is held out)");
  flags.DefineDouble("seconds", 15, "length of the measured rep loop");
  flags.DefineInt("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.DefineBool("quick", false, "1/8-size inputs and one rep (self-test)");
  flags.DefineString("out", "",
                     "directory for the per-run JSON and Chrome trace");
  flags.DefineString("work_dir", ".",
                     "parent of the run's own work directory");
  if (rlcut::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }

  rlcut::bench::Config config;
  config.workload = flags.GetString("workload");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.seconds = flags.GetDouble("seconds");
  config.quick = flags.GetBool("quick");
  config.out_dir = flags.GetString("out");
  config.replica_bin =
      (std::filesystem::path(argv[0]).parent_path() / "rlcut_replica")
          .string();
  const int64_t trace = flags.GetInt("trace");
  if (trace != 0 && trace != 1) {
    std::cerr << "--trace must be 0 or 1\n";
    return 2;
  }
  config.trace = trace == 1;

  WorkDir work_dir{std::filesystem::path(flags.GetString("work_dir")) /
                   ("rlcut_bench." + config.workload + "." +
                    std::to_string(::getpid()))};
  for (const std::filesystem::path& dir :
       {work_dir.path, std::filesystem::path(config.out_dir)}) {
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::create_directories(dir, ec) && ec) {
      std::cerr << "cannot create " << dir << ": " << ec.message() << "\n";
      return 2;
    }
  }
  config.work_dir = work_dir.path.string();

  rlcut::bench::Run run(config);
  try {
    std::unique_ptr<rlcut::bench::Workload> workload =
        rlcut::bench::MakeWorkload(config);
    if (workload == nullptr) {
      std::cerr << "unknown --workload '" << config.workload
                << "'; one of: " << Names() << "\n";
      return 2;
    }
    rlcut::bench::Measure(config, workload.get(), &run);
  } catch (const std::exception& e) {
    run.Check(false, e.what());
  }
  return run.Finish();
}
