// Tests for the BoardRuntime execution engine: admission, PR flow, slot
// lifecycle, item-wise pipeline dependencies, single- vs dual-core PR
// blocking, preemption, full-fabric reconfiguration, utilisation
// accounting, migration extraction, and the retirement of finished apps
// from the app table (rows reused, stale ids finding nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "obs/metrics.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "serve/resource_manager.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace vs::runtime {
namespace {

using test::GreedyPolicy;
using test::ScriptedPolicy;
using test::make_uniform_app;

struct Fixture {
  sim::Simulator sim;
  fpga::Board board;
  Fixture(fpga::FabricConfig fabric = fpga::FabricConfig::only_little())
      : board(sim, "b0", fabric) {}
};

TEST(BoardRuntime, SubmitCreatesLittleUnitsByDefault) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 4, sim::ms(1));
  int id = rt.submit(app, 0, 7, 0);
  EXPECT_EQ(id, 0);
  const AppRun& run = rt.app(id);
  EXPECT_EQ(run.units.size(), 4u);
  EXPECT_EQ(run.batch, 7);
  EXPECT_FALSE(run.started);
  EXPECT_FALSE(run.done());
  EXPECT_EQ(run.units_unfinished(), 4);
  EXPECT_EQ(run.units_placed(), 0);
}

TEST(BoardRuntime, SetUnitsRebundles) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 6, sim::ms(1));
  int id = rt.submit(app, 0, 5, 0);
  auto bundles = apps::make_big_units(app, 5, f.board.params());
  rt.set_units(id, bundles);
  EXPECT_EQ(rt.app(id).units.size(), 2u);
  EXPECT_EQ(rt.app(id).units[0].spec.slot_kind, fpga::SlotKind::kBig);
}

TEST(BoardRuntime, RequestPrDrivesSlotLifecycle) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(2));
  int id = rt.submit(app, 0, 1, 0);
  rt.request_pr(id, 0, 0);
  EXPECT_EQ(f.board.slot(0).state(), fpga::SlotState::kReconfiguring);
  EXPECT_EQ(rt.app(id).units[0].state, UnitState::kReconfiguring);
  EXPECT_TRUE(rt.app(id).started);
  EXPECT_EQ(rt.counters().pr_requests, 1);
  f.sim.run();
  // The single unit ran its single item and completed the app.
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_EQ(f.board.slot(0).state(), fpga::SlotState::kIdle);
  EXPECT_EQ(rt.counters().items_executed, 1);
  EXPECT_EQ(rt.counters().apps_completed, 1);
}

TEST(BoardRuntime, PipelineRespectsItemDependencies) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(10));
  int id = rt.submit(app, 0, 3, 0);
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(rt.counters().items_executed, 6);  // 3 items through 2 units
  // Downstream cannot finish before upstream produced its items: the app
  // completes no earlier than PR + 4 pipeline steps of 10 ms.
  sim::SimDuration pr =
      f.board.params().pcap_load_time(f.board.params().little_bitstream_bytes);
  EXPECT_GE(run->completed, pr + sim::ms(40));
}

TEST(BoardRuntime, ItemReadySemantics) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 2, 0);
  const AppRun& run = rt.app(id);
  EXPECT_TRUE(rt.item_ready(run, 0));   // first unit always ready
  EXPECT_FALSE(rt.item_ready(run, 1));  // upstream produced nothing yet
}

TEST(BoardRuntime, DualCoreKeepsSchedulerFree) {
  // With a dual-core policy the PR occupies core 1; the scheduler core must
  // stay available during the load.
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/true);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));  // let the submit pass execute
  // Pre-stage the bitstream so the PCAP load starts immediately.
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  bool checked = false;
  f.sim.schedule(sim::ms(20), [&] {
    EXPECT_TRUE(f.board.pr_core().busy());
    EXPECT_FALSE(f.board.scheduler_core().busy());
    checked = true;
  });
  f.sim.run();
  EXPECT_TRUE(checked);
}

TEST(BoardRuntime, SingleCorePrSuspendsScheduler) {
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/false);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  bool checked = false;
  f.sim.schedule(sim::ms(20), [&] {
    EXPECT_TRUE(f.board.scheduler_core().busy());
    EXPECT_EQ(f.board.scheduler_core().current_kind(), sim::OpKind::kPcapLoad);
    checked = true;
  });
  f.sim.run();
  EXPECT_TRUE(checked);
}

TEST(BoardRuntime, BlockedAccountingCountsPcapQueueing) {
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/true);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  for (int unit = 0; unit < 3; ++unit) {
    f.board.sdcard().prewarm(
        unit_bitstream_key(0, rt.app(id).units[static_cast<std::size_t>(unit)].spec,
                           unit));
  }
  rt.request_pr(id, 0, 0);
  rt.request_pr(id, 1, 1);
  rt.request_pr(id, 2, 2);
  EXPECT_EQ(rt.counters().pr_blocked, 2);
  EXPECT_EQ(rt.window_blocked(), 2);
  rt.reset_window();
  EXPECT_EQ(rt.window_blocked(), 0);
  EXPECT_EQ(rt.counters().pr_blocked, 2);  // cumulative survives reset
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);
}

TEST(BoardRuntime, PreemptionPreservesProgress) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(10));
  int id = rt.submit(app, 0, 5, 0);
  // Run until a few items are done, then preempt at an item boundary.
  while (rt.app(id).units[0].items_done < 2 && f.sim.step()) {
  }
  AppRun& run = rt.app(id);
  ASSERT_GE(run.units[0].items_done, 2);
  // Wait until not mid-item.
  while (run.units[0].item_in_flight && f.sim.step()) {
  }
  if (run.units[0].state == UnitState::kRunning) {
    int done_before = run.units[0].items_done;
    rt.preempt_unit(id, 0);
    EXPECT_EQ(run.units[0].state, UnitState::kPending);
    EXPECT_EQ(run.units[0].items_done, done_before);
    EXPECT_EQ(rt.counters().preemptions, 1);
  }
  f.sim.run();
  EXPECT_NE(test::completion(rt, id), nullptr);  // greedy policy re-places it
  EXPECT_EQ(rt.counters().items_executed, 5);
}

TEST(BoardRuntime, FullReconfigRunsWholeAppWithoutSlots) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(5));
  int id = rt.submit(app, 0, 4, 0);
  rt.request_full_reconfig(id);
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(rt.counters().pr_requests, 1);  // one monolithic load
  // All slots stayed untouched.
  for (const fpga::Slot& s : f.board.slots()) {
    EXPECT_EQ(s.state(), fpga::SlotState::kIdle);
  }
  // Completion not before full load + restart + pipeline.
  const fpga::BoardParams& p = f.board.params();
  EXPECT_GT(run->completed, p.pcap_load_time(p.full_bitstream_bytes) +
                                p.full_reconfig_restart);
}

TEST(BoardRuntime, ExtractUnstartedRemovesOnlyUnstarted) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int started_id = rt.submit(app, 0, 3, 0);
  int waiting_id = rt.submit(app, 0, 5, sim::ms(1));
  rt.request_pr(started_id, 0, 0);
  rt.request_pr(started_id, 1, 1);
  auto migrated = rt.extract_unstarted();
  ASSERT_EQ(migrated.size(), 1u);
  EXPECT_EQ(migrated[0].batch, 5);
  EXPECT_EQ(migrated[0].spec_index, 0);
  EXPECT_GT(migrated[0].state_bytes, 4096);
  EXPECT_EQ(rt.find(waiting_id), nullptr);  // left the table
  EXPECT_EQ(rt.active_apps(), 1);
  f.sim.run();
  EXPECT_NE(test::completion(rt, started_id), nullptr);
  EXPECT_TRUE(rt.drained());
}

// The live-app index through every retirement kind: completion,
// extract_unstarted and crash, audited after each step.
TEST(BoardRuntime, LiveIndexTracksEveryRetirement) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  auto expect_live = [&rt](const std::vector<int>& ids) {
    EXPECT_EQ(rt.live_ids().to_vector(), ids);
    EXPECT_EQ(rt.active_apps(), static_cast<int>(ids.size()));
    InvariantReport report = audit(rt);
    EXPECT_TRUE(report.ok()) << report.to_string();
  };
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  expect_live({});
  int a = rt.submit(app, 0, 1, 0);
  int b = rt.submit(app, 0, 1, 0);
  int c = rt.submit(app, 0, 1, 0);
  int d = rt.submit(app, 0, 1, 0);
  expect_live({a, b, c, d});

  rt.request_pr(a, 0, 0);
  f.sim.run();
  ASSERT_NE(test::completion(rt, a), nullptr);
  expect_live({b, c, d});

  rt.request_pr(c, 0, 0);
  f.sim.run(f.sim.now() + sim::us(1));  // c is mid-PR: slot occupied
  expect_live({b, c, d});
  EXPECT_EQ(rt.extract_unstarted().size(), 2u);  // b and d
  expect_live({c});

  BoardRuntime::CrashReport report = rt.crash();
  EXPECT_EQ(report.killed.size(), 1u);
  expect_live({});
  EXPECT_TRUE(rt.drained());
}

// A completion inside a scheduling pass whose hook admits new work on the
// same board (the serving plane's admission pump does exactly this): the
// completed app leaves the index and the admission joins its tail.
TEST(BoardRuntime, LiveIndexFollowsAdmissionFromCompletionMidPass) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int waiting = rt.submit(app, 0, 1, 0);
  int admitted = -1;
  rt.set_on_app_complete([&](const CompletedApp&) {
    if (admitted >= 0) return;
    admitted = rt.submit(app, 0, 1, f.sim.now());
  });
  int finished = -1;
  bool ran = false;
  policy.set_pass([&](BoardRuntime& r) {
    if (ran) return;
    ran = true;
    // A restore that arrives complete retires inside its own submission.
    finished = r.submit_with_progress(app, 0, 1, 0, {1});
    EXPECT_NE(test::completion(r, finished), nullptr);
    EXPECT_EQ(r.live_ids().to_vector(), (std::vector<int>{waiting, admitted}));
    EXPECT_EQ(r.active_apps(), 2);
    InvariantReport report = audit(r);
    EXPECT_TRUE(report.ok()) << report.to_string();
  });
  f.sim.run();
  ASSERT_TRUE(ran);
  EXPECT_EQ(finished, 1);
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(rt.live_ids().to_vector(), (std::vector<int>{waiting, admitted}));

  // Both remaining apps run to completion; the index drains.
  rt.request_pr(waiting, 0, 0);
  rt.request_pr(admitted, 0, 1);
  f.sim.run();
  EXPECT_TRUE(rt.live_ids().empty());
  EXPECT_TRUE(rt.drained());
  InvariantReport report = audit(rt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(BoardRuntime, StopAdmissionFlag) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  EXPECT_TRUE(rt.admission_open());
  rt.stop_admission();
  EXPECT_FALSE(rt.admission_open());
}

TEST(BoardRuntime, CompletedAppsRecordResponseTimes) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(5));
  // Arrival time 100 ms before admission: queueing time counts.
  f.sim.schedule(sim::ms(100), [&] { rt.submit(app, 0, 2, 0); });
  f.sim.run();
  ASSERT_EQ(rt.completed().size(), 1u);
  const CompletedApp& c = rt.completed()[0];
  EXPECT_EQ(c.arrival, 0);
  EXPECT_GT(c.response_ms(), 100.0);
  EXPECT_EQ(c.name, "a");
}

TEST(BoardRuntime, OnAppCompleteHookFires) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  int fired = 0;
  rt.set_on_app_complete([&](const CompletedApp&) { ++fired; });
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(BoardRuntime, UtilizationIntegralsArePlausible) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(10));
  rt.submit(app, 0, 10, 0);
  f.sim.run();
  const UtilizationIntegral& u = rt.utilization();
  EXPECT_GT(u.lut_used, 0.0);
  EXPECT_GT(u.lut_capacity, 0.0);
  EXPECT_GE(u.lut_capacity, u.lut_used);  // usage never exceeds capacity
  EXPECT_GE(u.lut_fabric, u.lut_capacity);
  double occ = u.lut_of_occupied();
  EXPECT_GT(occ, 0.0);
  EXPECT_LE(occ, 1.0);
}

TEST(BoardRuntime, ParallelBundleFillChargedOnFirstItemOnly) {
  Fixture f(fpga::FabricConfig::big_little());
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 3, sim::ms(10));
  int id = rt.submit(app, 0, 4, 0);
  auto units = apps::make_big_units(app, 4, f.board.params());
  ASSERT_EQ(units.size(), 1u);
  ASSERT_EQ(units[0].mode, apps::BundleMode::kParallel);
  rt.set_units(id, units);
  rt.request_pr(id, 0, 0);  // slot 0 is Big
  f.sim.run();
  const CompletedApp* run = test::completion(rt, id);
  ASSERT_NE(run, nullptr);
  // Execution time = fill (2*10) + 4 items * 10 = 60 ms plus the PR path
  // (SD fetch + PCAP load) and small DMA/core overheads; it must exceed
  // 60 ms but stay well under the serial-execution 120 ms alternative.
  const fpga::BoardParams& p = f.board.params();
  sim::SimDuration pr_path = p.sd_read_time(units[0].bitstream_bytes) +
                             p.pcap_load_time(units[0].bitstream_bytes);
  EXPECT_GT(run->completed, sim::ms(60));
  EXPECT_LT(run->completed, sim::ms(120) + pr_path);
}

TEST(BoardRuntime, LaunchBlockedCounterSingleCore) {
  // Single-core: a kick issued while the core is suspended by a PR counts
  // as a blocked launch (the Fig 2 task-execution-blocking event).
  Fixture f;
  ScriptedPolicy policy(nullptr, /*dual=*/false);
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 2, sim::ms(1));
  int id = rt.submit(app, 0, 1, 0);
  f.sim.run(sim::ms(1));
  f.board.sdcard().prewarm(unit_bitstream_key(0, rt.app(id).units[0].spec, 0));
  rt.request_pr(id, 0, 0);
  std::int64_t before = rt.counters().launch_blocked;
  f.sim.schedule(sim::ms(5), [&] { rt.kick(); });
  f.sim.run(sim::ms(10));
  EXPECT_GT(rt.counters().launch_blocked, before);
}

TEST(BoardRuntime, SdCacheMakesSecondPrFaster) {
  Fixture f;
  GreedyPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  f.sim.run();
  sim::SimTime first_done = rt.completed()[0].completed;
  rt.submit(app, 0, 1, f.sim.now());
  sim::SimTime second_start = f.sim.now();
  f.sim.run();
  sim::SimTime second_done = rt.completed()[1].completed - second_start;
  EXPECT_LT(second_done, first_done);  // bitstream already in DDR
  EXPECT_EQ(f.board.sdcard().misses(), 1);
}

// ------------------------------------------------------------ retirement
//
// A completed or extracted app leaves the app table: its row is vacated and
// reused by a later admission, so the table never holds more rows than the
// peak live-app count, and an event naming a retired id finds nothing.

/// Every occupied row holds a live app that its id finds, and the audit
/// (whose I4 and I9 check the same against the live-app index) holds.
void expect_table_holds_only_live_apps(const BoardRuntime& rt) {
  for (const AppRun& a : rt.rows()) {
    if (a.id < 0) continue;  // vacant, awaiting reuse
    EXPECT_EQ(rt.find(a.id), &a);
    EXPECT_NE(a.spec, nullptr);
    EXPECT_FALSE(a.done()) << "app " << a.id << " completed but kept a row";
  }
  InvariantReport report = audit(rt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AppRetirement, SingleBoardRunKeepsTheTableWithinPeakLive) {
  Fixture f(fpga::FabricConfig::big_little());
  auto suite = apps::make_suite(f.board.params());
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  BoardRuntime rt(f.board, *policy);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 60;
  util::Rng rng(7);
  const workload::Sequence seq = workload::generate_sequence(config, rng);
  for (const apps::AppArrival& a : seq) {
    f.sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival);
    });
  }
  int peak_live = 0;
  std::size_t completed = 0;
  while (f.sim.step()) {
    peak_live = std::max(peak_live, rt.active_apps());
    ASSERT_LE(rt.rows().size(), static_cast<std::size_t>(peak_live));
    if (rt.completed().size() != completed) {
      // A completion just retired an app: it must be gone from the table.
      completed = rt.completed().size();
      EXPECT_EQ(rt.find(rt.completed().back().app_id), nullptr);
      expect_table_holds_only_live_apps(rt);
    }
  }
  EXPECT_EQ(rt.completed().size(), seq.size());
  EXPECT_TRUE(rt.drained());
  EXPECT_LT(rt.rows().size(), seq.size());  // rows were reused
  expect_table_holds_only_live_apps(rt);
}

TEST(AppRetirement, ServeCellKeepsEveryBoardTableWithinPeakLive) {
  auto suite = apps::make_suite(fpga::BoardParams{});
  serve::ServeConfig config;
  config.horizon = sim::seconds(8.0);
  config.rebalance = true;  // rebalancing extracts unstarted apps
  config.rebalance_period = 2;
  config.rebalance_spread = 1;
  config.classes = {{"interactive", sim::ms(2500.0), 0}};
  for (const char* name : {"a", "b"}) {
    serve::Tenant t;
    t.name = name;
    t.arrivals.kind = workload::ArrivalKind::kPoisson;
    t.arrivals.rate_per_s = 6.0;
    t.min_batch = 5;
    t.max_batch = 12;
    config.tenants.push_back(t);
  }
  cluster::ClusterOptions options;
  options.boards_per_config = 2;
  options.enable_switching = false;  // a fixed active pool to watch
  obs::MetricsRegistry registry;     // to read the rebalance moves
  options.metrics = &registry;

  sim::Simulator sim;
  cluster::Cluster cluster(sim, suite, options);
  serve::ResourceManager manager(sim, cluster, config);
  manager.start(static_cast<int>(suite.size()));
  std::map<const BoardRuntime*, int> peak_live;
  while (sim.step()) {
    for (BoardRuntime* rt : cluster.active_runtimes()) {
      int& peak = peak_live[rt];
      peak = std::max(peak, rt->active_apps());
      ASSERT_LE(rt->rows().size(), static_cast<std::size_t>(peak));
    }
  }
  EXPECT_GT(manager.completions(), 20);
  const obs::Counter* moved =
      registry.find_counter("vs_cluster_migrated_apps_total");
  ASSERT_NE(moved, nullptr);
  EXPECT_GT(moved->value(), 0);  // extractions retired apps too
  ASSERT_FALSE(peak_live.empty());
  for (BoardRuntime* rt : cluster.active_runtimes()) {
    EXPECT_TRUE(rt->drained());
    EXPECT_LT(rt->rows().size(), rt->completed().size());
    expect_table_holds_only_live_apps(*rt);
  }
}

// A streamed app's wake-up outlives the app: extracted while it waits for
// its source, the app leaves the table and its row goes to a new streamed
// app. The stale wake-up must find nothing and leave the new app alone.
TEST(AppRetirement, StaleStreamKickNeverReachesAReusedRow) {
  Fixture f;
  ScriptedPolicy policy;
  BoardRuntime rt(f.board, policy);
  apps::AppSpec app = make_uniform_app("a", 1, sim::ms(1));
  int old_id = rt.submit(app, 0, /*batch=*/3, /*arrival=*/0,
                         /*item_interval=*/sim::seconds(1.0));
  rt.request_pr(old_id, 0, 0);
  f.sim.run(sim::ms(500));
  ASSERT_EQ(rt.app(old_id).units[0].items_done, 1);
  ASSERT_EQ(rt.app(old_id).stream_kick, sim::seconds(1.0));  // pending
  const std::size_t old_row = rt.row(rt.app(old_id));

  rt.preempt_unit(old_id, 0);
  ASSERT_EQ(rt.extract_migratable().size(), 1u);
  EXPECT_EQ(rt.find(old_id), nullptr);
  EXPECT_THROW((void)rt.app(old_id), std::out_of_range);

  const sim::SimTime now = f.sim.now();
  int new_id = rt.submit(app, 0, /*batch=*/3, now,
                         /*item_interval=*/sim::seconds(2.0));
  ASSERT_NE(new_id, old_id);
  ASSERT_EQ(rt.row(rt.app(new_id)), old_row);  // the vacated row is reused
  EXPECT_EQ(rt.find(old_id), nullptr);  // the id check rejects the row
  rt.request_pr(new_id, 0, 0);
  f.sim.run(sim::ms(900));
  const sim::SimTime own_kick = now + sim::seconds(2.0);
  ASSERT_EQ(rt.app(new_id).stream_kick, own_kick);

  // The old app's wake-up fires at t = 1 s and must not clear the new
  // app's pending wake-up.
  f.sim.run(sim::ms(1100));
  EXPECT_EQ(rt.app(new_id).stream_kick, own_kick);
  expect_table_holds_only_live_apps(rt);
  f.sim.run();
  EXPECT_NE(test::completion(rt, new_id), nullptr);
  expect_table_holds_only_live_apps(rt);
}

}  // namespace
}  // namespace vs::runtime
