// The chaos lane (docs/robustness.md): full training sessions under
// randomized fault schedules. One case builds a deterministic problem,
// trains it fault-free for a reference plan, then re-trains it with a
// seeded random FaultSchedule armed and asserts one of two acceptable
// outcomes:
//
//   * masked — retries/redispatch absorbed every fault and the final
//     masters are bit-identical to the reference, or
//   * degraded — the result differs but CheckInvariants() is clean
//     and the plan round-trips through Save/Load/Apply.
//
// Aborts, hangs, invariant violations and unloadable plans are
// failures. Cases with seed % 3 == 0 also run the crash lane: a
// fault-free run auto-checkpoints every step, the primary checkpoint
// file is then corrupted, and resume must land on the last-good
// fallback and continue to a bit-identical final plan.
//
// Cases with seed % 2 == 0 also run the streaming lane: an
// RLCutSession driven over a short diurnal stream with faults armed at
// the session.ingest_fail / session.publish_fail sites. Injected
// failures must surface as clean Status errors; retrying the failed
// call must converge on plans bit-identical to a fault-free streaming
// reference.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "fault/fault.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "partition/plan_io.h"
#include "rlcut/checkpoint.h"
#include "rlcut/session.h"

namespace rlcut {
namespace check {
namespace {

// A randomized-but-seeded schedule over the sites a training session
// can hit: pool faults, trainer chunk faults, and checkpoint I/O faults
// (the armed run auto-checkpoints, so those sites are live too).
// plan.* rules target the armed SavePlan probe after training.
const FaultCandidate kChaosFaults[] = {
    {"threadpool.task_throw",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.02 + 0.18 * g->NextDouble();
     }},
    {"threadpool.worker_stall",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.02 + 0.1 * g->NextDouble();
       r->amount = 5 + static_cast<int64_t>(g->Below(40));
     }},
    {"threadpool.worker_crash",
     [](fault::FaultRule* r, CounterRng* g) {
       r->nth = 1 + static_cast<int64_t>(g->Below(6));
       r->max_fires = 1 + static_cast<int64_t>(g->Below(2));
     }},
    {"trainer.chunk_stall",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.2 * g->NextDouble();
       r->amount = 5 + static_cast<int64_t>(g->Below(60));
     }},
    {"trainer.chunk_abandon",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.2 * g->NextDouble();
     }},
    {"checkpoint.open_fail",
     [](fault::FaultRule* r, CounterRng* g) {
       r->nth = 1 + static_cast<int64_t>(g->Below(3));
     }},
    {"checkpoint.short_write",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.3 + 0.5 * g->NextDouble();
     }},
    {"checkpoint.fsync_fail",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.3 + 0.5 * g->NextDouble();
     }},
    {"checkpoint.rename_fail",
     [](fault::FaultRule* r, CounterRng* g) {
       r->nth = 1 + static_cast<int64_t>(g->Below(3));
     }},
    {"plan.short_write", [](fault::FaultRule* r, CounterRng*) { r->nth = 1; }},
    {"plan.fsync_fail", [](fault::FaultRule* r, CounterRng*) { r->nth = 1; }},
    {"plan.rename_fail", [](fault::FaultRule* r, CounterRng*) { r->nth = 1; }},
};

// Asserts the crash-consistency contract of an atomic save target: the
// file either does not exist or loads cleanly — never a torn file.
bool CheckpointSlotIsCleanOrAbsent(const std::string& path,
                                   std::string* error) {
  if (!std::filesystem::exists(path)) return true;
  const Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
  if (loaded.ok()) return true;
  *error = path + " exists but is torn: " + loaded.status().ToString();
  return false;
}

// The faulted lane of one session. Returns true on success and bumps
// the masked/degraded counter; on failure appends to report->failures.
bool RunFaultedSession(const Problem& problem, uint64_t session_seed,
                       const std::vector<DcId>& reference, CounterRng* rng,
                       LaneReport* report) {
  const std::string ckpt_path = ScratchPath("chaos.ckpt");
  const std::string plan_path = ScratchPath("chaos.plan");
  auto fail = [&](const std::string& message) {
    fault::Disarm();
    report->failures.push_back(message);
    RemoveWithSidecars(ckpt_path);
    RemoveWithSidecars(plan_path);
    return false;
  };

  RLCutOptions topts = TrainingOptions(session_seed);
  topts.checkpoint_every_steps = 2;
  topts.checkpoint_path = ckpt_path;

  const fault::FaultSchedule schedule =
      RandomSchedule(session_seed, kChaosFaults, rng);
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(),
                     problem.topology.num_dcs(), topts);
  fault::Arm(schedule);
  try {
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
  } catch (const std::exception& e) {
    return fail(std::string("training escaped with an exception under [") +
                schedule.ToSpec() + "]: " + e.what());
  }
  report->Add("injected fires", fault::TotalFires());

  // Crash-consistency of the auto-checkpoint slots, checked while the
  // checkpoint.* rules are still armed the way the run left them (load
  // has no failure sites, so arming does not affect the probe itself).
  std::string slot_error;
  if (!CheckpointSlotIsCleanOrAbsent(ckpt_path, &slot_error) ||
      !CheckpointSlotIsCleanOrAbsent(CheckpointFallbackPath(ckpt_path),
                                     &slot_error)) {
    return fail("under [" + schedule.ToSpec() + "]: " + slot_error);
  }

  // Armed SavePlan probe: a failing save must report an error and leave
  // no torn file behind.
  const PartitionPlan armed_plan = ExtractPlan(*state);
  const Status armed_save = SavePlan(armed_plan, plan_path);
  if (std::filesystem::exists(plan_path)) {
    const Result<PartitionPlan> probe = LoadPlan(plan_path);
    if (!probe.ok()) {
      return fail("SavePlan under [" + schedule.ToSpec() +
                  "] left a torn plan: " + probe.status().ToString());
    }
  } else if (armed_save.ok()) {
    return fail("SavePlan reported Ok but wrote nothing");
  }
  fault::Disarm();

  // Outcome: bit-identical to the fault-free reference (all faults
  // masked), or degraded but valid.
  if (state->masters() == reference) {
    report->Add("masked", 1);
  } else {
    if (!state->CheckInvariants()) {
      return fail("degraded result violates invariants under [" +
                  schedule.ToSpec() + "]");
    }
    const Status saved = SavePlan(ExtractPlan(*state), plan_path);
    if (!saved.ok()) return fail("SavePlan: " + saved.ToString());
    const Result<PartitionPlan> loaded = LoadPlan(plan_path);
    if (!loaded.ok()) return fail("LoadPlan: " + loaded.status().ToString());
    auto replay = problem.MakeState();
    const Status applied = ApplyPlan(*loaded, replay.get());
    if (!applied.ok()) return fail("ApplyPlan: " + applied.ToString());
    if (replay->masters() != state->masters()) {
      return fail("degraded plan did not round-trip bit-identically");
    }
    report->Add("degraded-valid", 1);
  }
  RemoveWithSidecars(ckpt_path);
  RemoveWithSidecars(plan_path);
  return true;
}

// The crash lane: a fault-free auto-checkpointing run, then corrupt the
// primary checkpoint and require resume to land on the fallback and
// continue to a bit-identical final plan. Runs unarmed because armed
// runs are not reproducible (thread timing permutes hit indices).
bool RunCrashResumeSession(const Problem& problem, uint64_t session_seed,
                           const std::vector<DcId>& reference,
                           CounterRng* rng, LaneReport* report) {
  const std::string ckpt_path = ScratchPath("chaos_crash.ckpt");
  auto fail = [&](const std::string& message) {
    report->failures.push_back("crash lane: " + message);
    RemoveWithSidecars(ckpt_path);
    return false;
  };

  RLCutOptions topts = TrainingOptions(session_seed);
  // Checkpoint after every step: convergence can stop a session after
  // as few as two steps, and each one autosaves before the convergence
  // check runs, so a primary + fallback pair always exists.
  topts.checkpoint_every_steps = 1;
  topts.checkpoint_path = ckpt_path;
  {
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(),
                       problem.topology.num_dcs(), topts);
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
    if (state->masters() != reference) {
      return fail("auto-checkpointing perturbed the training result");
    }
  }
  if (!std::filesystem::exists(ckpt_path) ||
      !std::filesystem::exists(CheckpointFallbackPath(ckpt_path))) {
    return fail("run did not leave a primary + fallback checkpoint pair");
  }

  // Corrupt the primary: truncate at a random offset or flip a byte.
  std::string bytes;
  {
    std::ifstream in(ckpt_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  if (bytes.empty()) return fail("primary checkpoint is empty");
  if (rng->Below(2) == 0) {
    bytes.resize(rng->Below(bytes.size()));
  } else {
    bytes[rng->Below(bytes.size())] ^= 0x40;
  }
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const Result<LoadedCheckpoint> loaded =
      LoadTrainerCheckpointWithFallback(ckpt_path);
  if (!loaded.ok()) {
    return fail("resume did not reach the fallback checkpoint: " +
                loaded.status().ToString());
  }
  if (!loaded->used_fallback) {
    return fail("corrupted primary unexpectedly loaded");
  }

  // Continue from the last-good checkpoint on a fresh problem build;
  // the continuation must reproduce the uninterrupted final plan.
  RLCutOptions resume_opts = TrainingOptions(session_seed);
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(),
                     problem.topology.num_dcs(), resume_opts);
  TrainerSession session;
  const Status restored =
      RestoreCheckpoint(loaded->checkpoint, state.get(), &pool, &session);
  if (!restored.ok()) {
    return fail("RestoreCheckpoint: " + restored.ToString());
  }
  RLCutTrainer trainer(resume_opts);
  const Status resumable = trainer.ValidateResume(session);
  if (!resumable.ok()) {
    return fail("ValidateResume: " + resumable.ToString());
  }
  trainer.Train(state.get(), problem.AllVertices(), &pool, &session);
  if (state->masters() != reference) {
    return fail("resumed run diverged from the uninterrupted run");
  }
  report->Add("crash resumes", 1);
  RemoveWithSidecars(ckpt_path);
  return true;
}

// The streaming lane: an RLCutSession over a short diurnal stream,
// first fault-free for a reference publish sequence, then with faults
// armed at the session ingest/publish sites. Injected failures must
// come back as clean Status errors (never aborts or torn state), and
// retrying the failed call must converge on the reference bit-exactly:
// both sites fail before any mutation, so a retry is a pure re-attempt.
bool RunStreamingFaultedSession(uint64_t session_seed, CounterRng* rng,
                                LaneReport* report) {
  auto fail = [&](const std::string& message) {
    fault::Disarm();
    report->failures.push_back("streaming lane: " + message);
    return false;
  };

  // A small temporal problem: half the stream seeds the base graph,
  // the rest arrives in four micro-batches.
  constexpr int kDcs = 4;
  TemporalStreamOptions stream;
  stream.num_vertices = 96;
  stream.num_edges = 576;
  stream.seed = session_seed;
  const TemporalGraph temporal = GenerateDiurnalStream(stream);
  const uint64_t base_count = temporal.edges().size() / 2;
  const Graph base_graph = temporal.Prefix(base_count);
  GeoLocatorOptions geo;
  geo.num_dcs = kDcs;
  geo.seed = session_seed + 77;
  const Topology topology = MakeEc2Topology(kDcs, Heterogeneity::kMedium);
  const std::vector<DcId> locations = AssignGeoLocations(base_graph, geo);
  const std::vector<double> sizes = AssignInputSizes(base_graph);

  PartitionerContext ctx;
  ctx.graph = &base_graph;
  ctx.topology = &topology;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(base_graph);

  RLCutSessionOptions sopts;
  sopts.initial = TrainingOptions(session_seed);
  sopts.initial.checkpoint_every_steps = 0;
  sopts.incremental = sopts.initial;

  constexpr int kNumBatches = 4;
  std::vector<MicroBatch> batches;
  {
    StreamBuffer buffer;
    const std::vector<TimedEdge>& all = temporal.edges();
    const SimTime start = all[base_count].time;
    const SimTime end = all.back().time + SimTime(1);
    const int64_t span = end.micros() - start.micros();
    uint64_t next = base_count;
    for (int b = 0; b < kNumBatches; ++b) {
      SimTime watermark = b + 1 == kNumBatches
                              ? end
                              : SimTime::Micros(start.micros() +
                                                span * (b + 1) / kNumBatches);
      while (next < all.size() && all[next].time <= watermark) {
        buffer.Push(StreamEvent{all[next], next});
        ++next;
      }
      batches.push_back(buffer.Cut(watermark));
    }
  }
  const MigrationBudget budget{48, 1e9};

  // One drive of the whole stream; with `armed`, every call retries
  // through injected failures (each site fails before any mutation).
  auto drive = [&](bool armed, std::vector<std::vector<DcId>>* published,
                   std::string* error) {
    Result<std::unique_ptr<RLCutSession>> opened =
        RLCutSession::Open(ctx, sopts);
    if (!opened.ok()) {
      *error = "Open: " + opened.status().ToString();
      return false;
    }
    std::unique_ptr<RLCutSession> session = std::move(*opened);
    auto retry = [&](auto&& call, const char* what,
                     std::string* err) -> bool {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const Status status = call();
        if (status.ok()) return true;
        if (!armed) {
          *err = std::string(what) + ": " + status.ToString();
          return false;
        }
        if (status.message().find("injected fault") == std::string::npos) {
          *err = std::string(what) +
                 " failed with a non-injected error under faults: " +
                 status.ToString();
          return false;
        }
      }
      *err = std::string(what) + ": injected fault did not stop firing";
      return false;
    };
    for (const MicroBatch& batch : batches) {
      if (!retry(
              [&] {
                Result<ApplyResult> r = session->ApplyDelta(batch);
                return r.ok() ? Status::Ok() : r.status();
              },
              "ApplyDelta", error)) {
        return false;
      }
      Result<ReoptimizeResult> reopt = session->MaybeReoptimize(budget);
      if (!reopt.ok()) {
        *error = "MaybeReoptimize: " + reopt.status().ToString();
        return false;
      }
      std::vector<DcId> masters;
      if (!retry(
              [&] {
                Result<PublishedPlan> r = session->PublishPlan();
                if (r.ok()) masters = std::move(r->masters);
                return r.ok() ? Status::Ok() : r.status();
              },
              "PublishPlan", error)) {
        return false;
      }
      published->push_back(std::move(masters));
    }
    if (session->live_state() == nullptr ||
        !session->live_state()->CheckInvariants()) {
      *error = "final streaming state violates invariants";
      return false;
    }
    return true;
  };

  std::vector<std::vector<DcId>> reference;
  std::string error;
  if (!drive(/*armed=*/false, &reference, &error)) {
    return fail("fault-free drive: " + error);
  }

  fault::FaultSchedule schedule;
  schedule.seed = session_seed;
  for (const char* site : {"session.ingest_fail", "session.publish_fail"}) {
    if (rng->Below(2) == 0 && schedule.rules.size() < 1) {
      // At most one probabilistic rule; the other site gets a bounded
      // deterministic rule so both fire in a typical run.
      fault::FaultRule rule;
      rule.site = site;
      rule.probability = 0.2 + 0.4 * rng->NextDouble();
      rule.max_fires = 1 + static_cast<int64_t>(rng->Below(4));
      schedule.rules.push_back(rule);
    } else {
      fault::FaultRule rule;
      rule.site = site;
      rule.nth = 1 + static_cast<int64_t>(rng->Below(3));
      rule.max_fires = 1 + static_cast<int64_t>(rng->Below(3));
      schedule.rules.push_back(rule);
    }
  }

  std::vector<std::vector<DcId>> faulted;
  fault::Arm(schedule);
  const bool ok = drive(/*armed=*/true, &faulted, &error);
  report->Add("injected fires", fault::TotalFires());
  fault::Disarm();
  if (!ok) {
    return fail("under [" + schedule.ToSpec() + "]: " + error);
  }
  if (faulted != reference) {
    return fail("retried streaming run diverged from the fault-free "
                "reference under [" +
                schedule.ToSpec() + "]");
  }
  report->Add("stream recoveries", 1);
  return true;
}

}  // namespace

void RunChaosCase(uint64_t seed, LaneReport* report) {
  for (const char* count : {"masked", "degraded-valid", "crash resumes",
                            "stream recoveries", "injected fires"}) {
    report->Add(count, 0);
  }
  // Never run with a leftover schedule from the caller.
  fault::Disarm();
  CounterRng rng{SplitMix64(seed) ^ 0xc4a05};
  const Problem problem = TrainingProblem(seed);

  // Fault-free reference (no checkpointing: the faulted and crash
  // lanes must match it even though they auto-checkpoint).
  std::vector<DcId> reference;
  {
    const RLCutOptions topts = TrainingOptions(seed);
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(),
                       problem.topology.num_dcs(), topts);
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
    reference = state->masters();
  }

  RunFaultedSession(problem, seed, reference, &rng, report);
  if (seed % 3 == 0) {
    RunCrashResumeSession(problem, seed, reference, &rng, report);
  }
  if (seed % 2 == 0) RunStreamingFaultedSession(seed, &rng, report);
  fault::Disarm();
}

}  // namespace check
}  // namespace rlcut
