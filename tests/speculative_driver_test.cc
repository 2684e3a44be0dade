// Unit tests of the speculative commit driver the BU/TD lattice searches
// share (DESIGN.md §10): the slot claim machine, cancellation, the driver's
// wait on a lane-claimed slot, and the single-lane configuration. Suite
// names carry "Parallel" so the sanitizer CI filters select them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/dcc.h"
#include "dccs/execution.h"
#include "dccs/params.h"
#include "dccs/speculative_driver.h"
#include "graph/generators.h"
#include "graph/multilayer_graph.h"

namespace mlcore {
namespace {

class SpeculativeDriverParallelTest : public ::testing::Test {
 protected:
  SpeculativeDriverParallelTest()
      : graph_(GenerateErdosRenyi(48, 2, 0.2, 11)),
        scope_(AllVertices(graph_)),
        solver_(graph_) {}

  /// A driver over `lanes` lanes, recording into stats_.
  std::unique_ptr<SpeculativeDriver> MakeDriver(int lanes) {
    exec_.search_threads = lanes;
    return std::make_unique<SpeculativeDriver>(graph_, params_, exec_,
                                               solver_, stats_,
                                               /*lane_parent=*/0);
  }

  /// An evaluation that makes one dCC call and counts its runs.
  auto CountingEval(std::atomic<int>* runs) {
    return [this, runs](int /*lane*/, DccSolver& solver) {
      runs->fetch_add(1, std::memory_order_relaxed);
      VertexSet core;
      solver.Compute({0}, 2, scope_, &core);
    };
  }

  MultiLayerGraph graph_;
  VertexSet scope_;
  DccSolver solver_;
  DccsParams params_;
  DccsExecution exec_;
  SearchStats stats_;
};

TEST_F(SpeculativeDriverParallelTest, RacedSlotRunsItsEvaluationOnce) {
  constexpr size_t kSlots = 64;
  constexpr int kClaimsPerSlot = 8;
  auto slots = std::make_shared<std::vector<SpeculativeSlot>>(kSlots);
  std::vector<std::atomic<int>> runs(kSlots);
  auto driver = MakeDriver(4);
  ASSERT_TRUE(driver->parallel());
  for (int claim = 0; claim < kClaimsPerSlot; ++claim) {
    for (size_t i = 0; i < kSlots; ++i) {
      driver->Spawn(slots, (*slots)[i], CountingEval(&runs[i]));
    }
  }
  for (size_t i = 0; i < kSlots; ++i) {
    driver->WaitSlot((*slots)[i], CountingEval(&runs[i]));
  }
  driver->Finish();

  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "slot " << i;
    EXPECT_EQ((*slots)[i].state.load(), kSlotDone) << "slot " << i;
    EXPECT_EQ((*slots)[i].solver_calls, 1) << "slot " << i;
  }
  // Every evaluation was committed, so none counts as speculative waste.
  EXPECT_EQ(stats_.candidates_generated, static_cast<int64_t>(kSlots));
  EXPECT_EQ(stats_.speculative_evals, 0);
}

TEST_F(SpeculativeDriverParallelTest, CancelledSlotIsNeverEvaluated) {
  constexpr size_t kSlots = 16;
  auto slots = std::make_shared<std::vector<SpeculativeSlot>>(kSlots);
  std::atomic<int> runs{0};
  auto driver = MakeDriver(4);
  SpeculativeDriver::CancelPending(slots->data(), kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    driver->Spawn(slots, (*slots)[i], CountingEval(&runs));
    driver->RunSlot((*slots)[i], 0, CountingEval(&runs));
  }
  driver->Finish();

  EXPECT_EQ(runs.load(), 0);
  for (const SpeculativeSlot& slot : *slots) {
    EXPECT_EQ(slot.state.load(), kSlotCancelled);
  }
  EXPECT_EQ(stats_.candidates_generated, 0);
  EXPECT_EQ(stats_.speculative_evals, 0);
}

TEST_F(SpeculativeDriverParallelTest, CancellingAFinishedSlotKeepsItsResult) {
  SpeculativeSlot slot;
  std::atomic<int> runs{0};
  auto driver = MakeDriver(1);
  driver->WaitSlot(slot, CountingEval(&runs));
  SpeculativeDriver::CancelSlot(slot);
  driver->Finish();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(slot.state.load(), kSlotDone);
}

TEST_F(SpeculativeDriverParallelTest, WaitSlotReturnsAfterTheClaimingLane) {
  auto slot = std::make_shared<SpeculativeSlot>();
  std::atomic<int> runs{0};
  std::atomic<int> claimed_lane{-1};
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  auto eval = [&](int lane, DccSolver& /*solver*/) {
    runs.fetch_add(1);
    claimed_lane.store(lane);
    while (!release.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    finished.store(true);
  };
  auto driver = MakeDriver(2);
  driver->Spawn(slot, *slot, eval);

  // Wait until the worker lane has claimed the slot.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (claimed_lane.load() < 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  if (claimed_lane.load() < 0) release.store(true);  // let the group join
  ASSERT_EQ(claimed_lane.load(), 1) << "no worker lane claimed the slot";

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  driver->WaitSlot(*slot, eval);
  EXPECT_TRUE(finished.load()) << "WaitSlot returned before the lane finished";
  EXPECT_EQ(slot->state.load(), kSlotDone);
  EXPECT_EQ(runs.load(), 1);
  releaser.join();
  driver->Finish();
}

TEST_F(SpeculativeDriverParallelTest, OneLaneBuildsNoTaskGroup) {
  for (int lanes : {0, 1}) {
    SpeculativeSlot slot;
    std::atomic<int> runs{0};
    DccSolver* used = nullptr;
    int used_lane = -1;
    auto eval = [&](int lane, DccSolver& solver) {
      runs.fetch_add(1);
      used = &solver;
      used_lane = lane;
    };
    auto driver = MakeDriver(lanes);
    EXPECT_FALSE(driver->parallel()) << lanes;
    EXPECT_EQ(driver->lanes(), 1) << lanes;
    // With no task group a spawn queues nothing; the slot runs inline when
    // the driver commits it, on lane 0 with the driver's own solver.
    driver->Spawn(nullptr, slot, eval);
    EXPECT_EQ(runs.load(), 0) << lanes;
    EXPECT_EQ(slot.state.load(), kSlotPending) << lanes;
    driver->WaitSlot(slot, eval);
    EXPECT_EQ(runs.load(), 1) << lanes;
    EXPECT_EQ(used_lane, 0) << lanes;
    EXPECT_EQ(used, &solver_) << lanes;
    driver->Finish();
  }
}

}  // namespace
}  // namespace mlcore
