#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "rlcut/checkpoint.h"

namespace rlcut {
namespace {

// Small deterministic problem + trainer options shared by all tests.
// Determinism requires a visit budget instead of wall-clock T_opt (the
// thread count is a host property and may vary freely across
// pause/resume).
class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : topology_(MakeEc2Topology(4, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 384;
    opt.num_edges = 3072;
    graph_ = GeneratePowerLaw(opt);
    GeoLocatorOptions geo;
    geo.num_dcs = 4;
    locations_ = AssignGeoLocations(graph_, geo);
    sizes_ = AssignInputSizes(graph_);
    config_.model = ComputeModel::kHybridCut;
    config_.theta = PartitionState::AutoTheta(graph_);
    config_.workload = Workload::PageRank();
  }

  RLCutOptions Options(uint64_t seed) const {
    RLCutOptions options;
    options.max_steps = 6;
    options.batch_size = 16;
    options.num_threads = 2;
    options.seed = seed;
    options.agent_visit_budget =
        static_cast<int64_t>(graph_.num_vertices()) * 4;
    // Keep early convergence out of the way of the pause points below.
    options.convergence_epsilon = 1e-9;
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

  // Reference: the uninterrupted run.
  std::vector<DcId> UninterruptedMasters(const RLCutOptions& options) const {
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    RLCutTrainer(options).Train(state.get(), AllVertices(), &pool);
    return state->masters();
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  Topology topology_;
  Graph graph_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionConfig config_;
};

TEST_F(CheckpointTest, InMemoryPauseResumeMatchesUninterrupted) {
  const RLCutOptions options = Options(/*seed=*/1);
  const std::vector<DcId> reference = UninterruptedMasters(options);

  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  RLCutTrainer trainer(options);
  TrainerSession session;
  session.stop_after_step = 2;
  trainer.Train(state.get(), AllVertices(), &pool, &session);
  ASSERT_TRUE(session.paused);
  ASSERT_FALSE(session.finished);
  ASSERT_EQ(session.next_step, 2);

  session.stop_after_step = -1;
  const TrainResult result =
      trainer.Train(state.get(), AllVertices(), &pool, &session);
  EXPECT_TRUE(session.finished);
  EXPECT_EQ(state->masters(), reference);
  // The stitched telemetry spans the whole run from step 0.
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps.front().step, 0);
}

TEST_F(CheckpointTest, SeedSweepResumeEqualsUninterrupted) {
  for (const uint64_t seed : {1ull, 7ull, 23ull}) {
    for (const int pause_at : {1, 3}) {
      const RLCutOptions options = Options(seed);
      const std::vector<DcId> reference = UninterruptedMasters(options);

      // Pause, checkpoint through disk, restore onto a *fresh* problem
      // and a fresh trainer, then run to completion.
      const std::string path = TempPath(
          "sweep_" + std::to_string(seed) + "_" + std::to_string(pause_at));
      {
        auto state = MakeState();
        AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(),
                           options);
        RLCutTrainer trainer(options);
        TrainerSession session;
        session.stop_after_step = pause_at;
        trainer.Train(state.get(), AllVertices(), &pool, &session);
        const TrainerCheckpoint checkpoint =
            CaptureCheckpoint(*state, pool, session, options.seed);
        ASSERT_TRUE(SaveTrainerCheckpoint(checkpoint, path).ok());
      }
      Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::remove(path.c_str());

      auto state = MakeState();
      AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(),
                         options);
      TrainerSession session;
      ASSERT_TRUE(
          RestoreCheckpoint(*loaded, state.get(), &pool, &session).ok());
      RLCutTrainer(options).Train(state.get(), AllVertices(), &pool,
                                  &session);
      EXPECT_EQ(state->masters(), reference)
          << "seed=" << seed << " pause_at=" << pause_at;
    }
  }
}

TEST_F(CheckpointTest, ProbabilitySelectionRestoresRngExactly) {
  // kProbability is the only selection strategy that draws from the
  // PRNG stream, so it exercises the RNG state round-trip.
  RLCutOptions options = Options(/*seed=*/5);
  options.selection = ActionSelection::kProbability;
  const std::vector<DcId> reference = UninterruptedMasters(options);

  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  RLCutTrainer trainer(options);
  TrainerSession session;
  session.stop_after_step = 2;
  trainer.Train(state.get(), AllVertices(), &pool, &session);
  ASSERT_EQ(session.rng_states.size(), 1u);

  session.stop_after_step = -1;
  trainer.Train(state.get(), AllVertices(), &pool, &session);
  EXPECT_EQ(state->masters(), reference);
}

TEST_F(CheckpointTest, ResumeUnderDifferentThreadCountIsBitIdentical) {
  // The thread count is a host property. A run paused on a 2-thread
  // host and resumed on 1- and 4-thread hosts must finish bit-identical
  // to the uninterrupted run — including when kProbability draws from
  // the PRNG stream.
  for (const ActionSelection selection :
       {ActionSelection::kUcbBlend, ActionSelection::kProbability}) {
    RLCutOptions options = Options(/*seed=*/11);
    options.selection = selection;
    const std::vector<DcId> reference = UninterruptedMasters(options);

    const std::string path = TempPath("xthread.ckpt");
    {
      auto state = MakeState();
      AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(),
                         options);
      RLCutTrainer trainer(options);
      TrainerSession session;
      session.stop_after_step = 3;
      trainer.Train(state.get(), AllVertices(), &pool, &session);
      const TrainerCheckpoint checkpoint =
          CaptureCheckpoint(*state, pool, session, options.seed);
      ASSERT_TRUE(SaveTrainerCheckpoint(checkpoint, path).ok());
    }
    Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::remove(path.c_str());

    for (const int resume_threads : {1, 4}) {
      RLCutOptions resume_options = options;
      resume_options.num_threads = resume_threads;
      auto state = MakeState();
      AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(),
                         resume_options);
      TrainerSession session;
      ASSERT_TRUE(
          RestoreCheckpoint(*loaded, state.get(), &pool, &session).ok());
      RLCutTrainer trainer(resume_options);
      ASSERT_TRUE(trainer.ValidateResume(session).ok());
      trainer.Train(state.get(), AllVertices(), &pool, &session);
      EXPECT_EQ(state->masters(), reference)
          << "resume_threads=" << resume_threads
          << " selection=" << static_cast<int>(selection);
    }
  }
}

TEST_F(CheckpointTest, ValidateResumeRejectsShardCountMismatch) {
  // A session saved by a sharded build carries one PRNG stream per
  // shard. kProbability draws from the stream, so the one-stream trainer
  // refuses to continue such a session; the deterministic modes never
  // draw and resume it bit-identically.
  for (const ActionSelection selection :
       {ActionSelection::kUcbBlend, ActionSelection::kProbability}) {
    RLCutOptions options = Options(/*seed=*/3);
    options.selection = selection;
    const std::vector<DcId> reference = UninterruptedMasters(options);
    auto state = MakeState();
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    RLCutTrainer trainer(options);
    TrainerSession session;
    session.stop_after_step = 2;
    trainer.Train(state.get(), AllVertices(), &pool, &session);
    ASSERT_TRUE(trainer.ValidateResume(session).ok());

    TrainerSession sharded = session;
    for (uint64_t s = 1; s < 8; ++s) {
      sharded.rng_states.push_back(Rng(options.seed + 0x9e37 * (s + 1)).State());
    }
    const Status status = trainer.ValidateResume(sharded);
    if (selection == ActionSelection::kProbability) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(status.message().find("8 PRNG streams"), std::string::npos)
          << status.ToString();
      continue;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    sharded.stop_after_step = -1;
    trainer.Train(state.get(), AllVertices(), &pool, &sharded);
    EXPECT_EQ(state->masters(), reference);
    EXPECT_EQ(sharded.rng_states.size(), 1u);
  }
}

TEST_F(CheckpointTest, ProbabilityStreamIsSeededFromTheRunSeed) {
  // The one commit-phase stream starts at seed + 0x9e37, the stream the
  // sharded builds gave shard 0, so kProbability plans equal theirs at
  // one shard.
  RLCutOptions options = Options(/*seed=*/21);
  options.selection = ActionSelection::kProbability;
  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  TrainerSession session;
  session.stop_after_step = 0;
  RLCutTrainer(options).Train(state.get(), AllVertices(), &pool, &session);
  ASSERT_TRUE(session.paused);
  ASSERT_EQ(session.rng_states.size(), 1u);
  EXPECT_EQ(session.rng_states[0], Rng(21 + 0x9e37).State());
}

TEST_F(CheckpointTest, ResumingFinishedRunIsANoOp) {
  const RLCutOptions options = Options(/*seed=*/1);
  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  RLCutTrainer trainer(options);
  TrainerSession session;
  trainer.Train(state.get(), AllVertices(), &pool, &session);
  ASSERT_TRUE(session.finished);
  const std::vector<DcId> final_masters = state->masters();

  const TrainResult again =
      trainer.Train(state.get(), AllVertices(), &pool, &session);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(state->masters(), final_masters);
}

TEST_F(CheckpointTest, CheckpointFileRoundTripsAllFields) {
  const RLCutOptions options = Options(/*seed=*/9);
  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  RLCutTrainer trainer(options);
  TrainerSession session;
  session.stop_after_step = 2;
  trainer.Train(state.get(), AllVertices(), &pool, &session);

  const TrainerCheckpoint saved =
      CaptureCheckpoint(*state, pool, session, options.seed);
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveTrainerCheckpoint(saved, path).ok());
  Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_vertices, saved.num_vertices);
  EXPECT_EQ(loaded->num_dcs, saved.num_dcs);
  EXPECT_EQ(loaded->seed, saved.seed);
  EXPECT_EQ(loaded->model, saved.model);
  EXPECT_EQ(loaded->theta, saved.theta);
  EXPECT_EQ(loaded->masters, saved.masters);
  EXPECT_EQ(loaded->pool.prob, saved.pool.prob);
  EXPECT_EQ(loaded->pool.mean_q, saved.pool.mean_q);
  EXPECT_EQ(loaded->pool.count, saved.pool.count);
  EXPECT_EQ(loaded->session.next_step, saved.session.next_step);
  EXPECT_EQ(loaded->session.started, saved.session.started);
  EXPECT_EQ(loaded->session.finished, saved.session.finished);
  EXPECT_EQ(loaded->session.visits_remaining,
            saved.session.visits_remaining);
  ASSERT_EQ(loaded->session.history.size(), saved.session.history.size());
  for (size_t i = 0; i < saved.session.history.size(); ++i) {
    EXPECT_EQ(loaded->session.history[i].step,
              saved.session.history[i].step);
    EXPECT_EQ(loaded->session.history[i].transfer_seconds,
              saved.session.history[i].transfer_seconds);
    EXPECT_EQ(loaded->session.history[i].migrations,
              saved.session.history[i].migrations);
  }
  EXPECT_EQ(loaded->session.rng_states, saved.session.rng_states);
}

TEST_F(CheckpointTest, LoadRejectsCorruptedFiles) {
  const RLCutOptions options = Options(/*seed=*/1);
  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  TrainerSession session;
  session.stop_after_step = 1;
  RLCutTrainer(options).Train(state.get(), AllVertices(), &pool, &session);
  const TrainerCheckpoint checkpoint =
      CaptureCheckpoint(*state, pool, session, options.seed);
  const std::string path = TempPath("corrupt.ckpt");
  ASSERT_TRUE(SaveTrainerCheckpoint(checkpoint, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto write_bytes = [&](const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  };

  {
    // Wrong magic.
    std::string bad = bytes;
    bad[0] = 'X';
    write_bytes(bad);
    const Result<TrainerCheckpoint> r = LoadTrainerCheckpoint(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("not an rlcut checkpoint"),
              std::string::npos);
  }
  {
    // Unsupported version.
    std::string bad = bytes;
    bad[8] = 99;
    write_bytes(bad);
    const Result<TrainerCheckpoint> r = LoadTrainerCheckpoint(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unsupported checkpoint version"),
              std::string::npos);
  }
  {
    // Truncated payload.
    write_bytes(bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(LoadTrainerCheckpoint(path).ok());
  }
  {
    // Flipped payload byte: checksum mismatch.
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;
    write_bytes(bad);
    const Result<TrainerCheckpoint> r = LoadTrainerCheckpoint(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("checksum mismatch"),
              std::string::npos);
  }
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTrainerCheckpoint(path).ok());  // missing file
}

TEST_F(CheckpointTest, RestoreValidatesProblemFingerprint) {
  const RLCutOptions options = Options(/*seed=*/1);
  auto state = MakeState();
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  TrainerSession session;
  session.stop_after_step = 1;
  RLCutTrainer(options).Train(state.get(), AllVertices(), &pool, &session);
  TrainerCheckpoint checkpoint =
      CaptureCheckpoint(*state, pool, session, options.seed);

  {
    // Different graph size.
    TrainerCheckpoint bad = checkpoint;
    bad.num_vertices += 1;
    TrainerSession fresh;
    EXPECT_FALSE(
        RestoreCheckpoint(bad, state.get(), &pool, &fresh).ok());
  }
  {
    // Different DC count.
    TrainerCheckpoint bad = checkpoint;
    bad.num_dcs = 8;
    TrainerSession fresh;
    EXPECT_FALSE(
        RestoreCheckpoint(bad, state.get(), &pool, &fresh).ok());
  }
  {
    // Different theta.
    TrainerCheckpoint bad = checkpoint;
    bad.theta += 1;
    TrainerSession fresh;
    EXPECT_FALSE(
        RestoreCheckpoint(bad, state.get(), &pool, &fresh).ok());
  }
  {
    // Master referencing a DC outside the topology.
    TrainerCheckpoint bad = checkpoint;
    bad.masters[0] = 40;
    TrainerSession fresh;
    EXPECT_FALSE(
        RestoreCheckpoint(bad, state.get(), &pool, &fresh).ok());
  }
  {
    // The unmodified checkpoint restores fine.
    TrainerSession fresh;
    EXPECT_TRUE(
        RestoreCheckpoint(checkpoint, state.get(), &pool, &fresh).ok());
  }
}

TEST_F(CheckpointTest, PoolSnapshotRestoreRejectsDimensionMismatch) {
  const RLCutOptions options = Options(/*seed=*/1);
  AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
  AutomatonPoolState snapshot = pool.Snapshot();
  EXPECT_TRUE(pool.Restore(snapshot).ok());

  AutomatonPool smaller(graph_.num_vertices() / 2, topology_.num_dcs(),
                        options);
  EXPECT_FALSE(smaller.Restore(snapshot).ok());

  AutomatonPoolState malformed = snapshot;
  malformed.prob.pop_back();
  EXPECT_FALSE(pool.Restore(malformed).ok());
}

}  // namespace
}  // namespace rlcut
