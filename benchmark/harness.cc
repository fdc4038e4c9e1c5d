#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/timer.h"
#include "graph/rlg.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlcut::bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares; a run emits
// exactly one of these two lists (selftest.py checks they agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"partition_s", "s"},
    {"op_p50_ms", "ms"},       {"op_p90_ms", "ms"},
    {"reopt_p50_ms", "ms"},    {"reopt_p90_ms", "ms"},
    {"plan_transfer_ms", "ms"}, {"plan_cost_usd", "USD"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.store_s", "s"},
    {"graph.rlg_bytes", "B"},
    {"graph.mmap_governor_drops", "count"},
    {"partition.state_build_s", "s"},
    {"partition.report_s", "s"},
    {"partition.plan_save_s", "s"},
    {"partition.plan_bytes", "B"},
    {"partition.evaluate_move_all_ns", "ns"},
    {"partition.move_master_ns", "ns"},
    {"partition.budget_reverted", "count"},
    {"rlcut.train_s", "s"},
    {"rlcut.stage.sample_s", "s"},
    {"rlcut.stage.score_s", "s"},
    {"rlcut.stage.migrate_s", "s"},
    {"rlcut.train_unattributed_s", "s"},
    {"rlcut.batches", "count"},
    {"rlcut.agent_visits", "count"},
    {"rlcut.migrations", "count"},
    {"rlcut.rollbacks", "count"},
    {"rlcut.accept_ratio", "ratio"},
    {"rlcut.visit_us", "us"},
    {"rlcut.train_s_1t", "s"},
    {"rlcut.scaling_4t", "ratio"},
    {"rlcut.session.apply_share", "ratio"},
    {"rlcut.session.reopt_share", "ratio"},
    {"rlcut.session.publish_share", "ratio"},
    {"rlcut.session.trained_vertices", "count"},
    {"common.threadpool_tasks", "count"},
    {"common.tasks_per_batch", "tasks/batch"},
    {"net.sync_share", "ratio"},
    {"net.pushes", "count"},
    {"net.delta_bytes", "B"},
    {"net.heartbeats", "count"},
    {"net.resyncs", "count"},
    {"net.reconnects", "count"},
    {"obs.spans", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"bench.unattributed_s", "s"},
};

// Spans the workloads open around each top-level layer call of a rep.
// They do not nest in one another, so the rep time they leave uncovered
// is bench.unattributed_s.
constexpr const char* kLayerSpans[] = {
    "graph.renumber",        "graph.rlg_write",       "graph.mmap_open",
    "graph.stream_cut",      "partition.state_build", "partition.report",
    "partition.plan_save",   "rlcut.train",           "rlcut.session.open",
    "rlcut.session.apply",   "rlcut.session.reopt",   "rlcut.session.publish",
};

// Library counters read around every traced rep.
constexpr const char* kCounters[] = {
    "trainer.agent_visits",  "trainer.migrations",
    "trainer.rollbacks",     "threadpool.tasks",
    "net.client.heartbeats", "net.client.resyncs",
    "net.client.reconnects",
};

// Every rep runs with the trainer's 4 threads (`nproc` of the host the
// baseline was measured on); traced runs add one 1-thread rep.
constexpr int kTrainerThreads = 4;
// Set-ups per run: at least kSetupReps, and more until kSetupSeconds
// have passed, so that a set-up of a few milliseconds (serve_diurnal)
// takes its median over enough of them. setup_s is their median.
constexpr size_t kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;

constexpr double kMiB = 1024.0 * 1024.0;

using Values = std::map<std::string, double>;

// Linearly interpolated quantile; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

Values ReadCounters() {
  Values values;
  for (const char* name : kCounters) {
    values[name] = static_cast<double>(
        obs::DefaultRegistry().GetCounter(name)->value());
  }
  return values;
}

double Get(const Values& values, const std::string& key) {
  auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Seconds and counts per span name in one rep's trace.
struct SpanTotals {
  Values seconds;
  Values count;
  size_t events = 0;
};

SpanTotals Summarize(const obs::TraceRecorder& recorder) {
  SpanTotals totals;
  for (const obs::TraceEvent& event : recorder.events()) {
    totals.seconds[event.name] += event.duration_us * 1e-6;
    totals.count[event.name] += 1;
  }
  totals.events = recorder.size();
  return totals;
}

// The per-layer values of one traced rep: span time from the trace,
// work counts from the library's counters and the rep itself.
Values LayerValues(const SpanTotals& spans, const Values& counters,
                   const RepResult& rep) {
  const Values& s = spans.seconds;
  Values v;
  const double rep_s = Get(s, "bench.rep");
  double attributed = 0;
  for (const char* name : kLayerSpans) attributed += Get(s, name);
  const double train = Get(s, "trainer/train");
  const double sample = Get(s, "trainer/stage/sample");
  const double score = Get(s, "trainer/stage/score");
  const double net =
      Get(s, "net.begin") + Get(s, "net.push") + Get(s, "net.flush");
  // The trainer's migrate span stays open across the delta sync that
  // ends a batch, so it contains every push.
  const double migrate = Get(s, "trainer/stage/migrate") - Get(s, "net.push");
  const double batches = Get(spans.count, "trainer/batch");
  const double visits = Get(counters, "trainer.agent_visits");
  const double migrations = Get(counters, "trainer.migrations");
  const double rollbacks = Get(counters, "trainer.rollbacks");
  const double tasks = Get(counters, "threadpool.tasks");

  v["graph.store_s"] = Get(s, "graph.renumber") + Get(s, "graph.rlg_write") +
                       Get(s, "graph.mmap_open") + Get(s, "graph.stream_cut");
  v["partition.state_build_s"] =
      Get(s, "partition.state_build") + Get(s, "rlcut.session.open");
  v["partition.report_s"] = Get(s, "partition.report");
  v["partition.plan_save_s"] = Get(s, "partition.plan_save");
  v["rlcut.train_s"] = train;
  v["rlcut.stage.sample_s"] = sample;
  v["rlcut.stage.score_s"] = score;
  v["rlcut.stage.migrate_s"] = migrate;
  v["rlcut.train_unattributed_s"] = train - sample - score - migrate - net;
  v["rlcut.batches"] = batches;
  v["rlcut.agent_visits"] = visits;
  v["rlcut.migrations"] = migrations;
  v["rlcut.rollbacks"] = rollbacks;
  v["rlcut.accept_ratio"] = Ratio(migrations, migrations + rollbacks);
  v["rlcut.visit_us"] = Ratio(train * 1e6, visits);
  v["rlcut.session.apply_share"] = Ratio(Get(s, "rlcut.session.apply"), rep_s);
  v["rlcut.session.reopt_share"] = Ratio(Get(s, "rlcut.session.reopt"), rep_s);
  v["rlcut.session.publish_share"] =
      Ratio(Get(s, "rlcut.session.publish"), rep_s);
  v["common.threadpool_tasks"] = tasks;
  v["common.tasks_per_batch"] = Ratio(tasks, batches);
  v["net.sync_share"] = Ratio(net, train);
  v["net.heartbeats"] = Get(counters, "net.client.heartbeats");
  v["net.resyncs"] = Get(counters, "net.client.resyncs");
  v["net.reconnects"] = Get(counters, "net.client.reconnects");
  v["obs.spans"] = static_cast<double>(spans.events);
  v["bench.unattributed_s"] = rep_s - attributed;
  for (const auto& [name, value] : rep.counts) v[name] = value;
  return v;
}

std::string JsonObject(const Values& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + JsonNumber(value);
  }
  return out + "}";
}

// Every rep of a run trains the same instance with the same seed, so
// every plan it publishes must be the same plan.
void CheckSamePlan(const std::vector<RepResult>& reps, Run* run) {
  for (const RepResult& rep : reps) {
    if (!run->Check(rep.fingerprint == reps.front().fingerprint,
                    "every rep yields the same plan")) {
      return;
    }
  }
}

void CountRepOps(const std::vector<RepResult>& reps, Run* run) {
  for (const RepResult& rep : reps) {
    run->CountOps(1 + rep.op_ms.size() + rep.reopt_ms.size());
    for (const std::string& failure : rep.failures) run->Check(false, failure);
  }
}

// Another rep starts only if, taking as long as the last one, it ends
// within --seconds of the loop's start, so a run's length does not jump
// by a whole rep when the rep time is close to --seconds.
bool FitsAnotherRep(const Config& config, const WallTimer& clock,
                    const RepResult& last) {
  return !config.quick &&
         clock.ElapsedSeconds() + last.seconds <= config.seconds;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ", ";
    out += JsonNumber(value);
  }
  return out + "]";
}

void MeasureEndToEnd(const Config& config, Workload* workload,
                     const std::vector<double>& setup_s, Run* run) {
  std::vector<RepResult> reps;
  WallTimer clock;
  reps.push_back(workload->Rep(kTrainerThreads));
  // The high-water mark after the set-ups and one rep: a fixed amount of
  // work, so a faster rep (more reps per run) cannot move it.
  const double peak_rss_mb = static_cast<double>(PeakRssBytes()) / kMiB;
  while (FitsAnotherRep(config, clock, reps.back())) {
    reps.push_back(workload->Rep(kTrainerThreads));
  }

  CountRepOps(reps, run);
  CheckSamePlan(reps, run);
  workload->Verify(run, nullptr);

  std::vector<double> rep_s;
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> ops;
  std::vector<double> reopts;
  for (const RepResult& rep : reps) {
    rep_s.push_back(rep.seconds);
    const std::vector<double>& op = rep.op_ms.empty() ? rep.reopt_ms
                                                      : rep.op_ms;
    per_rep["op_p50_ms"].push_back(Quantile(op, 0.5));
    per_rep["op_p90_ms"].push_back(Quantile(op, 0.9));
    per_rep["reopt_p50_ms"].push_back(Quantile(rep.reopt_ms, 0.5));
    per_rep["reopt_p90_ms"].push_back(Quantile(rep.reopt_ms, 0.9));
    ops.insert(ops.end(), op.begin(), op.end());
    reopts.insert(reopts.end(), rep.reopt_ms.begin(), rep.reopt_ms.end());
  }
  // Every rep is the same fixed work and load from other tenants of the
  // host only ever adds time, so each timing is taken from the least
  // disturbed rep; README.md ("Statistics") has the measured spreads.
  run->SetMetric("setup_s", Quantile(setup_s, 0.5));
  run->SetMetric("partition_s", Quantile(rep_s, 0));
  for (const auto& [name, values] : per_rep) {
    run->SetMetric(name, Quantile(values, 0));
  }
  run->SetMetric("plan_transfer_ms", reps.back().transfer_ms);
  run->SetMetric("plan_cost_usd", reps.back().cost_usd);
  run->SetMetric("peak_rss_mb", peak_rss_mb);
  run->SetDetail("rep_s", JsonArray(rep_s));
  run->SetDetail("op_ms", StatsJson(ops));
  run->SetDetail("reopt_ms", StatsJson(reopts));
}

// One traced rep: a fresh recorder per rep, so the per-layer numbers
// and the written trace cover exactly one rep.
struct TracedRep {
  RepResult rep;
  Values layers;
  SpanTotals spans;
  std::unique_ptr<obs::TraceRecorder> recorder;
};

TracedRep RunTraced(Workload* workload, int threads) {
  TracedRep traced;
  traced.recorder = std::make_unique<obs::TraceRecorder>();
  const Values before = ReadCounters();
  obs::SetTraceRecorder(traced.recorder.get());
  traced.rep = workload->Rep(threads);
  obs::SetTraceRecorder(nullptr);
  Values counters = ReadCounters();
  for (auto& [name, value] : counters) value -= Get(before, name);
  traced.spans = Summarize(*traced.recorder);
  traced.layers = LayerValues(traced.spans, counters, traced.rep);
  return traced;
}

Status WriteTrace(const obs::TraceRecorder& recorder, const std::string& path) {
  std::ofstream os(path);
  recorder.WriteChromeTrace(os);
  os.close();
  if (!os) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

void MeasureLayers(const Config& config, Workload* workload,
                   const std::vector<double>& build_s, Run* run) {
  // Untraced reference rep for obs.trace_overhead_frac.
  const RepResult untraced = workload->Rep(kTrainerThreads);
  obs::SetDetailedMetrics(true);

  std::vector<TracedRep> reps;
  WallTimer clock;
  do {
    reps.push_back(RunTraced(workload, kTrainerThreads));
    // Only the last rep's trace is written; keep memory flat.
    if (reps.size() > 1) reps[reps.size() - 2].recorder.reset();
  } while (FitsAnotherRep(config, clock, reps.back().rep));
  TracedRep one_thread = RunTraced(workload, 1);
  obs::SetDetailedMetrics(false);

  std::vector<RepResult> results = {untraced};
  for (const TracedRep& traced : reps) results.push_back(traced.rep);
  CountRepOps(results, run);
  CountRepOps({one_thread.rep}, run);
  CheckSamePlan(results, run);
  run->Check(one_thread.rep.fingerprint == untraced.fingerprint,
             "the 1-thread and 4-thread plans match");

  Values once;
  once["graph.build_s"] = Quantile(build_s, 0.5);
  workload->Verify(run, &once);

  std::map<std::string, std::vector<double>> samples;
  Values span_medians;
  std::map<std::string, std::vector<double>> span_samples;
  for (const TracedRep& traced : reps) {
    for (const auto& [name, value] : traced.layers) {
      samples[name].push_back(value);
    }
    for (const auto& [name, value] : traced.spans.seconds) {
      span_samples[name].push_back(value);
    }
  }
  for (const auto& [name, values] : span_samples) {
    span_medians[name] = Quantile(values, 0.5);
  }
  const double train_4t = Quantile(samples["rlcut.train_s"], 0.5);
  const double train_1t = Get(one_thread.layers, "rlcut.train_s");
  once["rlcut.train_s_1t"] = train_1t;
  once["rlcut.scaling_4t"] = Ratio(train_1t, train_4t);
  std::vector<double> traced_s;
  for (const TracedRep& traced : reps) traced_s.push_back(traced.rep.seconds);
  const double traced_median = Quantile(traced_s, 0.5);
  once["obs.trace_overhead_frac"] =
      Ratio(traced_median, untraced.seconds) - 1.0;

  for (const MetricSpec& spec : kPerLayer) {
    auto it = once.find(spec.name);
    run->SetMetric(spec.name, it != once.end()
                                  ? it->second
                                  : Quantile(samples[spec.name], 0.5));
  }
  // Accounting: the layer spans must cover the rep.
  const double unattributed = Quantile(samples["bench.unattributed_s"], 0.5);
  run->Check(unattributed >= 0 && unattributed < 0.05 * traced_median,
             "bench.unattributed_s is below 5% of the traced rep");
  run->SetDetail("traced_rep_s", StatsJson(traced_s));
  run->SetDetail("untraced_rep_s", JsonNumber(untraced.seconds));
  run->SetDetail("span_seconds", JsonObject(span_medians));

  if (!config.out_dir.empty()) {
    const std::string path = config.out_dir + "/" + config.workload + ".s" +
                             std::to_string(config.seed) + ".trace.json";
    run->Check(WriteTrace(*reps.back().recorder, path).ok(),
               "write " + path);
    run->SetDetail("trace_file", JsonString(path));
  }
}

}  // namespace

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string StatsJson(const std::vector<double>& values) {
  Values stats;
  stats["n"] = static_cast<double>(values.size());
  stats["median"] = Quantile(values, 0.5);
  stats["q1"] = Quantile(values, 0.25);
  stats["q3"] = Quantile(values, 0.75);
  stats["p90"] = Quantile(values, 0.9);
  stats["p99"] = Quantile(values, 0.99);
  stats["min"] = Quantile(values, 0);
  stats["max"] = Quantile(values, 1);
  return JsonObject(stats);
}

bool Run::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n  repro: rlcut_bench"
              << " --workload=" << config_.workload
              << " --seed=" << config_.seed
              << " --trace=" << (config_.trace ? 1 : 0) << "\n";
  }
  return ok;
}

void Run::CountOps(uint64_t attempted) { attempted_ += attempted; }

void Run::SetMetric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Run::SetDetail(const std::string& key, std::string json) {
  details_[key] = std::move(json);
}

int Run::Finish() {
  std::string metrics = "{";
  const bool traced = config_.trace;
  for (const MetricSpec& spec : traced ? std::span<const MetricSpec>(kPerLayer)
                                       : std::span<const MetricSpec>(kEndToEnd)) {
    auto it = metrics_.find(spec.name);
    const bool present = it != metrics_.end() && std::isfinite(it->second);
    Check(present, std::string("metric ") + spec.name + " is measured");
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " +
               JsonNumber(present ? it->second : 0) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  metrics += "}";

  const std::string line =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": " +
      metrics + "}";

  if (!config_.out_dir.empty()) {
    std::string doc = "{\"workload\": " + JsonString(config_.workload) +
                      ", \"seed\": " + std::to_string(config_.seed) +
                      ", \"trace\": " + (traced ? "1" : "0") +
                      ", \"seconds\": " + JsonNumber(config_.seconds) +
                      ", \"quick\": " + (config_.quick ? "true" : "false") +
                      ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"trainer_threads\": " +
                      std::to_string(kTrainerThreads) +
                      ", \"result\": " + line;
    for (const auto& [key, json] : details_) {
      doc += ", " + JsonString(key) + ": " + json;
    }
    doc += "}\n";
    const std::string path = config_.out_dir + "/" + config_.workload + ".s" +
                             std::to_string(config_.seed) + ".trace" +
                             (traced ? "1" : "0") + ".json";
    std::ofstream os(path);
    os << doc;
    os.close();
    if (!os) {
      std::cerr << "failed writing " << path << "\n";
      return 1;
    }
  }
  std::cout << line << std::endl;
  return correct() ? 0 : 1;
}

void Measure(const Config& config, Workload* workload, Run* run) {
  std::vector<double> setup_s;
  std::vector<double> build_s;
  const WallTimer clock;
  while (setup_s.size() < kSetupReps ||
         clock.ElapsedSeconds() < kSetupSeconds) {
    WallTimer timer;
    build_s.push_back(workload->Setup());
    setup_s.push_back(timer.ElapsedSeconds());
  }
  run->SetDetail("args", workload->ArgsJson());
  run->SetDetail("setup_s", StatsJson(setup_s));
  if (config.trace) {
    MeasureLayers(config, workload, build_s, run);
  } else {
    MeasureEndToEnd(config, workload, setup_s, run);
  }
}

}  // namespace rlcut::bench
