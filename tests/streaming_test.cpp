// Tests for dynamic batch processing (§III-A): streamed batches whose
// items become available over time, gating the first pipeline stage.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace vs::runtime {
namespace {

using test::GreedyPolicy;
using test::make_uniform_app;

TEST(Streaming, ItemsAvailableFollowsSourceRate) {
  AppRun app;
  app.arrival = sim::ms(100);
  app.batch = 10;
  app.item_interval = sim::ms(50);
  EXPECT_EQ(app.items_available(0), 0);            // before arrival
  EXPECT_EQ(app.items_available(sim::ms(100)), 1);  // first item at arrival
  EXPECT_EQ(app.items_available(sim::ms(149)), 1);
  EXPECT_EQ(app.items_available(sim::ms(150)), 2);
  EXPECT_EQ(app.items_available(sim::ms(500)), 9);
  EXPECT_EQ(app.items_available(sim::seconds(10)), 10);  // capped at batch
}

TEST(Streaming, StagedBatchIsFullyAvailable) {
  AppRun app;
  app.batch = 7;
  app.item_interval = 0;
  EXPECT_EQ(app.items_available(0), 7);
}

TEST(Streaming, ExecutionPacedBySource) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  // Fast kernel (1 ms/item) fed by a slow source (100 ms/item): the run is
  // source-bound, so completion ≈ arrival + (batch-1)*interval + pipeline.
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, /*batch=*/5, /*arrival=*/0,
                     /*item_interval=*/sim::ms(100));
  sim.run();
  const CompletedApp* done = test::completion(rt, id);
  ASSERT_NE(done, nullptr);
  EXPECT_GE(done->completed, sim::ms(400));  // 5th item at t=400ms
  EXPECT_LT(done->completed, sim::ms(700));
  EXPECT_TRUE(audit(rt).ok());
}

TEST(Streaming, FastSourceDoesNotSlowExecution) {
  auto completion = [](sim::SimDuration interval) {
    sim::Simulator sim;
    fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
    GreedyPolicy policy;
    BoardRuntime rt(board, policy);
    apps::AppSpec app = make_uniform_app("a", 2, sim::ms(20));
    int id = rt.submit(app, 0, 10, 0, interval);
    sim.run();
    return test::completion(rt, id)->completed;
  };
  // Source faster than the kernel: negligible effect vs staged.
  sim::SimTime staged = completion(0);
  sim::SimTime fast_stream = completion(sim::ms(1));
  EXPECT_LT(fast_stream, staged + sim::ms(30));
}

TEST(Streaming, DownstreamStagesUnaffectedBySourceGating) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  GreedyPolicy policy;
  BoardRuntime rt(board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(2));
  int id = rt.submit(app, 0, 4, 0, sim::ms(30));
  sim.run();
  ASSERT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(rt.counters().items_executed, 12);  // 4 items through 3 units
}

TEST(Streaming, WorksThroughExperimentHarness) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::Sequence seq;
  for (int i = 0; i < 4; ++i) {
    apps::AppArrival a;
    a.spec_index = i % 5;
    a.batch = 8;
    a.arrival = sim::ms(200.0 * i);
    a.item_interval = sim::ms(40.0);  // 25 items/s live feed
    seq.push_back(a);
  }
  auto r = metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                     suite, seq);
  EXPECT_EQ(r.completed, 4);
}

TEST(Streaming, StreamedBatchSurvivesMigrationExtraction) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  BoardRuntime rt(board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  rt.submit(app, 0, 6, 0, sim::ms(10));
  auto migrated = rt.extract_unstarted();
  ASSERT_EQ(migrated.size(), 1u);
  // Descriptor is staged-size based (items stream on the target too).
  EXPECT_GT(migrated[0].state_bytes, 4096);
}

}  // namespace
}  // namespace vs::runtime
