// Crash-consistency and resume-fallback coverage (docs/robustness.md):
// atomic checkpoint saves under injected I/O faults, rotation to a
// last-good slot, a truncation/bit-flip sweep over every byte boundary
// of a real checkpoint, and fault-masked training bit-identity.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/lane.h"
#include "cloud/topology.h"
#include "common/atomic_file.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "obs/metrics.h"
#include "rlcut/checkpoint.h"

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Small deterministic problem, sized so a checkpoint is a few KB and
// the every-byte sweeps below stay fast.
class CrashRecoveryTest : public ::testing::Test {
 protected:
  CrashRecoveryTest()
      : topology_(MakeEc2Topology(4, Heterogeneity::kMedium)) {
    fault::Disarm();
    PowerLawOptions opt;
    opt.num_vertices = 96;
    opt.num_edges = 768;
    graph_ = GeneratePowerLaw(opt);
    GeoLocatorOptions geo;
    geo.num_dcs = 4;
    locations_ = AssignGeoLocations(graph_, geo);
    sizes_ = AssignInputSizes(graph_);
    config_.model = ComputeModel::kHybridCut;
    config_.theta = PartitionState::AutoTheta(graph_);
    config_.workload = Workload::PageRank();
  }

  ~CrashRecoveryTest() override { fault::Disarm(); }

  RLCutOptions Options() const {
    RLCutOptions options;
    options.max_steps = 4;
    options.batch_size = 16;
    options.num_threads = 2;
    options.seed = 11;
    options.agent_visit_budget =
        static_cast<int64_t>(graph_.num_vertices()) * 4;
    options.convergence_epsilon = 1e-12;
    return options;
  }

  std::unique_ptr<PartitionState> MakeState() const {
    auto state = std::make_unique<PartitionState>(
        &graph_, &topology_, &locations_, &sizes_, config_);
    state->ResetDerived(locations_);
    return state;
  }

  std::vector<VertexId> AllVertices() const {
    std::vector<VertexId> all(graph_.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }

  std::vector<DcId> UninterruptedMasters(const RLCutOptions& options) const {
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    RLCutTrainer(options).Train(state.get(), AllVertices(), &pool);
    return state->masters();
  }

  // Pauses a run before `stop_after_step` and captures the checkpoint.
  TrainerCheckpoint CheckpointAtStep(const RLCutOptions& options,
                                     int stop_after_step) const {
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    TrainerSession session;
    session.stop_after_step = stop_after_step;
    RLCutTrainer(options).Train(state.get(), AllVertices(), &pool,
                                &session);
    return CaptureCheckpoint(*state, pool, session, options.seed);
  }

  // Resumes `checkpoint` on a freshly built problem to completion.
  std::vector<DcId> ResumeToCompletion(const TrainerCheckpoint& checkpoint,
                                       const RLCutOptions& options) const {
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    TrainerSession session;
    EXPECT_TRUE(
        RestoreCheckpoint(checkpoint, state.get(), &pool, &session).ok());
    RLCutTrainer trainer(options);
    EXPECT_TRUE(trainer.ValidateResume(session).ok());
    trainer.Train(state.get(), AllVertices(), &pool, &session);
    return state->masters();
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  static void RemoveSlots(const std::string& path) {
    std::remove(path.c_str());
    std::remove(TempPathFor(path).c_str());
    const std::string prev = CheckpointFallbackPath(path);
    std::remove(prev.c_str());
    std::remove(TempPathFor(prev).c_str());
  }

  Topology topology_;
  Graph graph_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionConfig config_;
};

TEST_F(CrashRecoveryTest, FailedSaveNeverTearsAnExistingCheckpoint) {
  const RLCutOptions options = Options();
  const TrainerCheckpoint old_ckpt = CheckpointAtStep(options, 1);
  const TrainerCheckpoint new_ckpt = CheckpointAtStep(options, 3);
  const char* kSites[] = {"checkpoint.open_fail", "checkpoint.short_write",
                          "checkpoint.fsync_fail",
                          "checkpoint.rename_fail"};
  for (const char* site : kSites) {
    const std::string path = TempPath(std::string("torn_") + site);
    RemoveSlots(path);
    ASSERT_TRUE(SaveTrainerCheckpoint(old_ckpt, path).ok());
    const std::string old_bytes = ReadFileBytes(path);

    fault::Arm(MustParse(std::string(site) + ":nth=1"));
    const Status failed = SaveTrainerCheckpoint(new_ckpt, path);
    fault::Disarm();

    EXPECT_FALSE(failed.ok()) << site;
    // The target is byte-identical to the previous good save and the
    // staging file was cleaned up.
    EXPECT_EQ(ReadFileBytes(path), old_bytes) << site;
    EXPECT_FALSE(std::filesystem::exists(TempPathFor(path))) << site;
    const Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << site;
    EXPECT_EQ(loaded->session.next_step, old_ckpt.session.next_step);
    RemoveSlots(path);
  }
}

TEST_F(CrashRecoveryTest, FailedFreshSaveLeavesNothingBehind) {
  const TrainerCheckpoint checkpoint = CheckpointAtStep(Options(), 1);
  const std::string path = TempPath("fresh_fail.ckpt");
  RemoveSlots(path);
  fault::Arm(MustParse("checkpoint.short_write:nth=1"));
  EXPECT_FALSE(SaveTrainerCheckpoint(checkpoint, path).ok());
  fault::Disarm();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(TempPathFor(path)));
}

TEST_F(CrashRecoveryTest, RotatingSaveKeepsALastGoodFallback) {
  const RLCutOptions options = Options();
  const TrainerCheckpoint first = CheckpointAtStep(options, 1);
  const TrainerCheckpoint second = CheckpointAtStep(options, 3);
  const std::string path = TempPath("rotate.ckpt");
  RemoveSlots(path);

  ASSERT_TRUE(SaveTrainerCheckpointRotating(first, path).ok());
  EXPECT_FALSE(std::filesystem::exists(CheckpointFallbackPath(path)));
  ASSERT_TRUE(SaveTrainerCheckpointRotating(second, path).ok());

  Result<TrainerCheckpoint> primary = LoadTrainerCheckpoint(path);
  ASSERT_TRUE(primary.ok());
  EXPECT_EQ(primary->session.next_step, second.session.next_step);
  Result<TrainerCheckpoint> prev =
      LoadTrainerCheckpoint(CheckpointFallbackPath(path));
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev->session.next_step, first.session.next_step);

  // Healthy primary: the fallback loader uses it.
  Result<LoadedCheckpoint> loaded = LoadTrainerCheckpointWithFallback(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->used_fallback);

  // Corrupt primary: the loader reports the fallback and why.
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
  loaded = LoadTrainerCheckpointWithFallback(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->used_fallback);
  EXPECT_EQ(loaded->loaded_from, CheckpointFallbackPath(path));
  EXPECT_FALSE(loaded->primary_error.empty());
  EXPECT_EQ(loaded->checkpoint.session.next_step, first.session.next_step);

  // Both slots missing: the primary's error is what surfaces.
  RemoveSlots(path);
  EXPECT_FALSE(LoadTrainerCheckpointWithFallback(path).ok());
}

TEST_F(CrashRecoveryTest, EveryTruncationBoundaryFallsBackToLastGood) {
  const RLCutOptions options = Options();
  const std::vector<DcId> reference = UninterruptedMasters(options);
  const TrainerCheckpoint first = CheckpointAtStep(options, 1);
  const TrainerCheckpoint second = CheckpointAtStep(options, 3);
  const std::string path = TempPath("truncsweep.ckpt");
  RemoveSlots(path);
  ASSERT_TRUE(SaveTrainerCheckpointRotating(first, path).ok());
  ASSERT_TRUE(SaveTrainerCheckpointRotating(second, path).ok());
  const std::string full = ReadFileBytes(path);
  ASSERT_GT(full.size(), 0u);

  // Load-only sweep: a primary cut at ANY byte boundary must reject and
  // fall back to the intact previous checkpoint.
  for (size_t len = 0; len < full.size(); ++len) {
    WriteFileBytes(path, full.substr(0, len));
    const Result<LoadedCheckpoint> loaded =
        LoadTrainerCheckpointWithFallback(path);
    ASSERT_TRUE(loaded.ok()) << "truncated at " << len;
    ASSERT_TRUE(loaded->used_fallback) << "truncated at " << len;
    ASSERT_EQ(loaded->checkpoint.session.next_step,
              first.session.next_step)
        << "truncated at " << len;
  }

  // Bit-flip sweep: same contract for single-byte corruption anywhere.
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::string bad = full;
    bad[pos] ^= 0x20;
    WriteFileBytes(path, bad);
    const Result<LoadedCheckpoint> loaded =
        LoadTrainerCheckpointWithFallback(path);
    ASSERT_TRUE(loaded.ok()) << "flipped byte " << pos;
    ASSERT_TRUE(loaded->used_fallback) << "flipped byte " << pos;
  }

  // The continuation from the fallback is bit-identical to the
  // uninterrupted run (the fallback is the same object at every
  // boundary, so one resume covers the whole sweep).
  WriteFileBytes(path, full.substr(0, full.size() / 2));
  const Result<LoadedCheckpoint> loaded =
      LoadTrainerCheckpointWithFallback(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(ResumeToCompletion(loaded->checkpoint, options), reference);
  RemoveSlots(path);
}

TEST_F(CrashRecoveryTest, AutoCheckpointedRunResumesToTheSameResult) {
  RLCutOptions options = Options();
  const std::vector<DcId> reference = UninterruptedMasters(options);
  const std::string path = TempPath("autosave.ckpt");
  RemoveSlots(path);
  options.checkpoint_every_steps = 2;
  options.checkpoint_path = path;
  {
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    RLCutTrainer(options).Train(state.get(), AllVertices(), &pool);
    // Auto-checkpointing must not perturb training.
    EXPECT_EQ(state->masters(), reference);
  }
  // max_steps=4 with saves every 2 steps: primary at next_step=4,
  // fallback at next_step=2, no staging leftovers.
  ASSERT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(CheckpointFallbackPath(path)));
  EXPECT_FALSE(std::filesystem::exists(TempPathFor(path)));

  RLCutOptions resume_options = Options();  // no further autosaves
  Result<TrainerCheckpoint> prev =
      LoadTrainerCheckpoint(CheckpointFallbackPath(path));
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev->session.next_step, 2);
  EXPECT_EQ(ResumeToCompletion(*prev, resume_options), reference);
  RemoveSlots(path);
}

TEST_F(CrashRecoveryTest, MaskedFaultsLeaveTrainingBitIdentical) {
  const RLCutOptions options = Options();
  const std::vector<DcId> reference = UninterruptedMasters(options);
  obs::Counter* inline_runs =
      obs::DefaultRegistry().GetCounter("trainer.chunk_inline_runs");

  // The faults fire on helpers only. Holding the caller of every batch
  // until the helper has claimed a chunk puts the helper to work in every
  // batch, however quickly the caller could score a batch alone.
  const std::string hold = "threadpool.caller_stall:prob=1;";
  const std::string mixed = hold +
                            "threadpool.task_throw:prob=0.1;"
                            "trainer.chunk_stall:prob=0.2,amount=10;"
                            "trainer.chunk_abandon:prob=0.1";
  // Abandons every chunk the helper claims, so the caller re-scores each
  // of them inline.
  const std::string abandon_all = hold + "trainer.chunk_abandon:prob=1";
  for (const std::string& schedule : {mixed, abandon_all}) {
    SCOPED_TRACE(schedule);
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    const uint64_t inline_before = inline_runs->value();
    fault::Arm(MustParse(schedule));
    RLCutTrainer(options).Train(state.get(), AllVertices(), &pool);
    const uint64_t fires =
        fault::TotalFires() - fault::FireCount("threadpool.caller_stall");
    fault::Disarm();

    EXPECT_GT(fires, 0u);
    if (schedule == abandon_all) {
      EXPECT_GT(inline_runs->value(), inline_before);
    }
    // Scoring is pure and retried work is idempotent, so every one of
    // these faults must be absorbed without changing the result.
    EXPECT_EQ(state->masters(), reference);
  }
}

TEST_F(CrashRecoveryTest, StaleTempFilesAreDetectedAndRemoved) {
  const std::string path = TempPath("stale.ckpt");
  RemoveSlots(path);
  EXPECT_FALSE(RemoveStaleTempFile(path));  // nothing to clean
  WriteFileBytes(TempPathFor(path), "half-written garbage");
  EXPECT_TRUE(RemoveStaleTempFile(path));
  EXPECT_FALSE(std::filesystem::exists(TempPathFor(path)));
  EXPECT_FALSE(RemoveStaleTempFile(path));
}

TEST_F(CrashRecoveryTest, MiniChaosAuditPasses) {
  const check::Lane* chaos = check::FindLane("chaos");
  ASSERT_NE(chaos, nullptr);
  // Seeds 77..79: one is a multiple of 3, so one crash-lane resume.
  const check::LaneReport report = check::RunLane(*chaos, 77, 3);
  EXPECT_EQ(report.Count("cases"), 3u);
  EXPECT_EQ(report.Count("masked") + report.Count("degraded-valid"), 3u);
  EXPECT_EQ(report.Count("crash resumes"), 1u);
  EXPECT_TRUE(report.failures.empty()) << report.failures.front();
}

}  // namespace
}  // namespace rlcut
