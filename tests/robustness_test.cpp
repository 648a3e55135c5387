// Robustness and auditing tests: runtime invariants under every policy,
// PCAP fault injection (DFX verification failures with retry), Chrome
// trace export, and the DML extension policy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/benchmarks.h"
#include "baselines/dml.h"
#include "faults/scenario.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "obs/trace_hub.h"
#include "runtime/board_runtime.h"
#include "runtime/invariants.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "workload/generator.h"

namespace vs {
namespace {

// ----------------------------------------------------------- invariants

TEST(Invariants, HoldOnFreshRuntime) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  EXPECT_TRUE(runtime::audit(rt).ok());
}

TEST(Invariants, HoldThroughoutAnExecution) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::GreedyPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 4, sim::ms(3));
  rt.submit(app, 0, 5, 0);
  rt.submit(app, 0, 3, 0);
  int checked = 0;
  while (sim.step()) {
    if (++checked % 7 == 0) {
      auto report = runtime::audit(rt);
      ASSERT_TRUE(report.ok()) << report.to_string();
    }
  }
  EXPECT_TRUE(runtime::audit(rt).ok());
  EXPECT_EQ(rt.completed().size(), 2u);
}

class InvariantSweep
    : public ::testing::TestWithParam<metrics::SystemKind> {};

TEST_P(InvariantSweep, HoldAtCompletionForEverySystem) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 12;
  util::Rng rng(17);
  auto seq = workload::generate_sequence(config, rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0", metrics::fabric_for(GetParam()), params);
  auto policy = metrics::make_policy(GetParam());
  runtime::BoardRuntime rt(board, *policy);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  // Audit at periodic checkpoints and at the end.
  for (int i = 1; i <= 10; ++i) {
    sim.run(sim::seconds(3.0 * i));
    auto report = runtime::audit(rt);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }
  sim.run();
  auto report = runtime::audit(rt);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(rt.completed().size(), seq.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, InvariantSweep,
    ::testing::Values(metrics::SystemKind::kBaseline,
                      metrics::SystemKind::kFcfs,
                      metrics::SystemKind::kRoundRobin,
                      metrics::SystemKind::kNimblock,
                      metrics::SystemKind::kVersaOnlyLittle,
                      metrics::SystemKind::kVersaBigLittle,
                      metrics::SystemKind::kDml),
    [](const auto& info) {
      std::string n = metrics::system_name(info.param);
      for (char& c : n) {
        if (c == '-' || c == '.') c = '_';
      }
      return n;
    });

TEST(Invariants, DetectInconsistentState) {
  // Manually corrupt a runtime into an inconsistent state and verify the
  // audit reports it: a slot left reconfiguring with no unit claiming it.
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  test::ScriptedPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 1, sim::ms(1));
  rt.submit(app, 0, 1, 0);
  board.slot(3).begin_reconfig(/*app=*/0, /*key=*/1);  // no unit owns this
  auto report = runtime::audit(rt);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("slot L3"), std::string::npos);
}

// -------------------------------------------------------- fault injection

TEST(FaultInjection, FailedLoadsRetryAndComplete) {
  sim::Simulator sim;
  sim::Core core(sim, "c0");
  fpga::Pcap pcap(sim);
  faults::FaultScenario scenario;
  scenario.seed = 42;
  scenario.pcap_crc_probability = 0.5;
  pcap.set_fault_model(scenario.pcap_crc_probability,
                       scenario.stream("pcap/0"));
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    pcap.request(sim::ms(1), core, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(pcap.stats().loads_completed, 20);
  EXPECT_GT(pcap.stats().load_failures, 0);
  // Total load time covers the retries.
  EXPECT_EQ(pcap.stats().total_load,
            sim::ms(1) * (20 + pcap.stats().load_failures));
}

TEST(FaultInjection, DeterministicGivenSeed) {
  auto run_one = [] {
    sim::Simulator sim;
    sim::Core core(sim, "c0");
    fpga::Pcap pcap(sim);
    faults::FaultScenario scenario;
    scenario.seed = 7;
    scenario.pcap_crc_probability = 0.3;
    pcap.set_fault_model(scenario.pcap_crc_probability,
                         scenario.stream("pcap/0"));
    for (int i = 0; i < 50; ++i) pcap.request(sim::ms(1), core, [] {});
    sim.run();
    return pcap.stats().load_failures;
  };
  EXPECT_EQ(run_one(), run_one());
}

TEST(FaultInjection, ZeroProbabilityNeverFails) {
  sim::Simulator sim;
  sim::Core core(sim, "c0");
  fpga::Pcap pcap(sim);
  faults::FaultScenario scenario;
  scenario.seed = 7;
  pcap.set_fault_model(scenario.pcap_crc_probability,
                       scenario.stream("pcap/0"));
  for (int i = 0; i < 50; ++i) pcap.request(sim::ms(1), core, [] {});
  sim.run();
  EXPECT_EQ(pcap.stats().load_failures, 0);
}

TEST(FaultInjection, WholeSystemSurvivesFlakyPcap) {
  // End-to-end: a VersaSlot run where 20% of PCAP loads fail verification
  // still completes every application, with invariants intact.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStandard;
  config.apps_per_sequence = 8;
  util::Rng rng(5);
  auto seq = workload::generate_sequence(config, rng);

  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::big_little(), params);
  faults::FaultScenario scenario;
  scenario.seed = 99;
  scenario.pcap_crc_probability = 0.2;
  board.pcap().set_fault_model(scenario.pcap_crc_probability,
                               scenario.stream("pcap/0"));
  auto policy = metrics::make_policy(metrics::SystemKind::kVersaBigLittle);
  runtime::BoardRuntime rt(board, *policy);
  for (const auto& a : seq) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite[static_cast<std::size_t>(a.spec_index)], a.spec_index,
                a.batch, a.arrival);
    });
  }
  sim.run();
  EXPECT_EQ(rt.completed().size(), seq.size());
  EXPECT_GT(board.pcap().stats().load_failures, 0);
  auto report = runtime::audit(rt);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ----------------------------------------------------------- trace export
// A single board's span log exports through obs::ClusterTraceHub, the one
// Chrome-trace writer.

TEST(TraceExport, EmitsValidChromeJson) {
  sim::TraceRecorder rec;
  rec.enable();
  rec.add(0, sim::ms(10), "L0", "App1.T1 PR", sim::SpanKind::kReconfig);
  rec.add(sim::ms(10), sim::ms(15), "L0", "App1.T1 B1", sim::SpanKind::kExec);
  rec.add(sim::ms(2), sim::ms(4), "PS0", "pass \"q\"", sim::SpanKind::kCoreOp);
  obs::ClusterTraceHub hub;
  hub.attach_spans("b0", &rec);
  std::ostringstream out;
  hub.write_chrome_trace(out);
  std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"reconfig\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exec\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Quotes in labels must be escaped.
  EXPECT_NE(json.find("pass \\\"q\\\""), std::string::npos);
  // Two lanes -> two thread_name metadata records.
  EXPECT_NE(json.find("\"name\":\"L0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PS0\""), std::string::npos);
}

TEST(TraceExport, FileRoundTrip) {
  sim::TraceRecorder rec;
  rec.enable();
  rec.add(0, 100, "lane", "x", sim::SpanKind::kExec);
  obs::ClusterTraceHub hub;
  hub.attach_spans("b0", &rec);
  std::string path = testing::TempDir() + "/vs_trace.json";
  hub.write_chrome_trace_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"dur\":0.1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, ThrowsOnBadPath) {
  obs::ClusterTraceHub hub;
  EXPECT_THROW(hub.write_chrome_trace_file("/nonexistent_dir_xyz/trace.json"),
               std::runtime_error);
}

TEST(TraceExport, RealRunExportsAllSpanKinds) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.apps_per_sequence = 4;
  util::Rng rng(3);
  auto seq = workload::generate_sequence(config, rng);
  obs::ClusterTraceHub hub;
  hub.enable_trace();
  metrics::RunOptions options;
  options.hub = &hub;
  auto r = metrics::run_single_board(metrics::SystemKind::kVersaBigLittle,
                                     suite, seq, options);
  EXPECT_EQ(r.completed, 4);
  // The harness sealed the run's spans into the hub before its board
  // epochs were torn down; both kinds the runtime records are exported.
  std::ostringstream out;
  hub.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"cat\":\"reconfig\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exec\""), std::string::npos);
  // Timestamps and durations are plain decimals, never exponent notation.
  for (const std::string key : {"\"ts\":", "\"dur\":"}) {
    for (auto at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      const auto value = json.substr(at + key.size(),
                                     json.find_first_of(",}", at) -
                                         (at + key.size()));
      EXPECT_EQ(value.find_first_of("eE"), std::string::npos) << value;
    }
  }
}

// ------------------------------------------------------------------- DML

TEST(Dml, CompletesAndPipelinesMultiSlot) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  baselines::DmlPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  auto app = test::make_uniform_app("a", 6, sim::ms(5));
  int id = rt.submit(app, 0, 10, 0);
  int max_placed = 0;
  while (sim.step()) {
    if (const auto* a = rt.find(id)) {
      max_placed = std::max(max_placed, a->units_placed());
    }
  }
  EXPECT_GT(max_placed, 1);  // pipelined, unlike naive FCFS
  EXPECT_NE(test::completion(rt, id), nullptr);
  EXPECT_STREQ(policy.name(), "DML");
  EXPECT_FALSE(policy.dual_core());
}

TEST(Dml, BackfillsPastBlockedHead) {
  sim::Simulator sim;
  fpga::Board board(sim, "b0", fpga::FabricConfig::only_little());
  baselines::DmlPolicy policy;
  runtime::BoardRuntime rt(board, policy);
  // First app grabs most slots with a long run; a second app wanting many
  // slots cannot start, but a third small app backfills ahead of it.
  auto big = test::make_uniform_app("big", 6, sim::ms(100));
  auto mid = test::make_uniform_app("mid", 6, sim::ms(50));
  auto tiny = test::make_uniform_app("tiny", 1, sim::ms(1));
  rt.submit(big, 0, 25, 0);
  sim.run(sim::ms(50));
  int mid_id = rt.submit(mid, 1, 25, sim.now());
  int tiny_id = rt.submit(tiny, 2, 1, sim.now());
  sim.run(sim::ms(2000));
  // tiny got a slot even while mid waits for its full allocation.
  EXPECT_TRUE(test::completion(rt, tiny_id) != nullptr ||
              rt.app(tiny_id).started);
  (void)mid_id;
  sim.run();
  EXPECT_EQ(rt.completed().size(), 3u);
}

TEST(Dml, InExperimentHarness) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 10;
  util::Rng rng(23);
  auto seq = workload::generate_sequence(config, rng);
  auto r = metrics::run_single_board(metrics::SystemKind::kDml, suite, seq);
  EXPECT_EQ(r.completed, 10);
  EXPECT_EQ(r.system, "DML");
}

}  // namespace
}  // namespace vs
