// vsbench: the repository benchmark program.
//
//   vsbench --workload W --seed N --seconds S --trace 0|1
//           [--source-rev REV] [--spans-out FILE]
//   vsbench --self-test
//
// A run repeats the workload (set-up, then execution and output checks)
// until --seconds have passed and reports medians. It prints a `context`
// line, one `e2e` / `layer` / `self` line per metric with its unit, and
// as its last line one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics untraced, the per-layer
// metrics with --trace 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"
#include "workloads.h"

#ifndef VSB_BUILD_TYPE
#define VSB_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Set-up repeats at least this often per run, for a steady setup_s median.
constexpr int kMinSetups = 21;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"mean_response_ms", "ms"},
    {"p99_response_ms", "ms"},
};

/// The per-layer metrics every traced run reports (BENCHMARK.json). A layer
/// that does no work on a workload reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.step_ns_p50", "ns"},
    {"sim.step_ns_p99", "ns"},
    {"runtime.passes", "count"},
    {"runtime.items_executed", "count"},
    {"runtime.host_ns_per_item", "ns"},
    {"runtime.pr_requests", "count"},
    {"runtime.pr_blocked_ratio", "fraction"},
    {"runtime.launch_blocked", "count"},
    {"runtime.preemptions", "count"},
    {"cluster.switches", "count"},
    {"cluster.apps_migrated", "count"},
    {"cluster.migration_bytes", "bytes"},
    {"cluster.precopy_rounds", "count"},
    {"cluster.readmissions", "count"},
    {"cluster.availability", "fraction"},
    {"cluster.ckpt_snapshots", "count"},
    {"cluster.ckpt_bytes", "bytes"},
    {"serve.arrivals", "count"},
    {"serve.admitted", "count"},
    {"serve.deferred", "count"},
    {"serve.rejected", "count"},
    {"serve.attainment.interactive", "fraction"},
    {"serve.attainment.standard", "fraction"},
    {"serve.attainment.batch", "fraction"},
    {"obs.export_bytes", "bytes"},
    {"obs.snapshots", "count"},
    {"obs.journal_records", "count"},
    {"metrics.sweep_workers", "count"},
    {"metrics.sweep_efficiency", "fraction"},
    {"workload.generate_s", "s"},
    {"apps.make_suite_s", "s"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string source_rev = "unknown";
  std::string spans_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vsbench: " << why << "\n"
            << "usage: vsbench --workload board_sweep|serve_mt|cluster_chaos|"
               "obs_replay --seed N --seconds S --trace 0|1 "
               "[--source-rev REV] [--spans-out FILE]\n"
            << "       vsbench --self-test\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (flag == "--source-rev") {
        a.source_rev = v;
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!a.self_test && a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("bad --seconds");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0;  // keep the JSON valid
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Counts, checks and failures accumulated over every execution of a run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Outcome& o) {
    attempted += o.arrivals;
    failed += o.failed;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
  /// Every execution of one seed must simulate exactly the same thing.
  void expect_same(const Outcome& reference, const Outcome& o,
                   const std::string& what) {
    if (o.digest != reference.digest) {
      errors.push_back(what + " digest differs from the first execution");
      failed += o.arrivals - o.failed;
    }
  }
};

/// The pinned-digest check at kDefaultSeed, which every run makes: on the
/// run's own first execution when it used that seed, else on one extra
/// untraced execution.
void check_default_seed(const Args& args, Workload& w, const Outcome& first,
                        Tally& tally) {
  Outcome pin;
  pin.digest = first.digest;
  pin.arrivals = first.arrivals;
  if (args.seed != kDefaultSeed) {
    w.prepare(kDefaultSeed, nullptr);
    const Outcome o = w.execute(nullptr);
    tally.add(o);
    pin.digest = o.digest;
    pin.arrivals = o.arrivals;
  }
  check_pinned(args.workload, pin);
  tally.errors.insert(tally.errors.end(), pin.errors.begin(), pin.errors.end());
  tally.failed = std::min(tally.attempted, tally.failed + pin.failed);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) std::cout << "error " << e << "\n";
  std::cout << "{\"correct\": " << (tally.errors.empty() ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i > 0 ? ", " : "") << quoted(m.name) << ": {\"value\": "
              << num(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

void print_line(const char* kind, const Metric& m) {
  std::cout << kind << " " << m.name << " " << num(m.value) << " " << m.unit
            << "\n";
}

int run_untraced(const Args& args, Workload& w) {
  Tally tally;
  std::vector<double> setups, walls;
  Outcome first;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    w.release();
    const std::int64_t t0 = now_ns();
    w.prepare(args.seed, nullptr);
    const std::int64_t t1 = now_ns();
    Outcome o = w.execute(nullptr);
    const std::int64_t t2 = now_ns();
    setups.push_back(double(t1 - t0) * 1e-9);
    walls.push_back(double(t2 - t1) * 1e-9);
    tally.add(o);
    if (walls.size() == 1) {
      first = std::move(o);
    } else {
      tally.expect_same(first, o, "execution " + std::to_string(walls.size()));
    }
  } while (now_ns() < deadline);
  while (setups.size() < kMinSetups) {
    w.release();
    const std::int64_t t0 = now_ns();
    w.prepare(args.seed, nullptr);
    setups.push_back(double(now_ns() - t0) * 1e-9);
  }
  check_default_seed(args, w, first, tally);

  std::map<std::string, Metric> e2e;
  e2e["wall_s"] = {"wall_s", median(walls), "s"};
  e2e["setup_s"] = {"setup_s", median(setups), "s"};
  e2e["peak_rss_mb"] = {"peak_rss_mb", peak_rss_mb(), "MiB"};
  for (const Metric& m : first.simulated) e2e[m.name] = m;
  e2e["failed_ratio"] = {
      "failed_ratio",
      tally.attempted > 0 ? double(tally.failed) / double(tally.attempted) : 0,
      "fraction"};
  e2e["executions"] = {"executions", double(walls.size()), "count"};
  for (const auto& [name, m] : e2e) print_line("e2e", m);

  std::vector<Metric> out;
  for (const MetricSpec& spec : kEndToEnd) out.push_back(e2e[spec.name]);
  print_result(tally, out);
  return 0;
}

int run_traced(const Args& args, Workload& w) {
  Tally tally;
  std::vector<double> plain_walls, plain_runs, traced_walls, companion_runs;
  std::map<std::string, std::vector<double>> host, self;
  Outcome first, first_traced;
  SpanLog last_log;
  // obs_replay's instrumentation overhead is measured against the same run
  // with obs off, which must simulate exactly the same thing.
  std::unique_ptr<Workload> companion;
  if (args.workload == "obs_replay") {
    companion = make_workload("cluster_chaos");
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    w.prepare(args.seed, nullptr);
    std::int64_t t0 = now_ns();
    Outcome plain = w.execute(nullptr);
    plain_walls.push_back(double(now_ns() - t0) * 1e-9);
    plain_runs.push_back(plain.run_s);
    tally.add(plain);
    const bool is_first = plain_walls.size() == 1;
    if (is_first) {
      first = plain;
    } else {
      tally.expect_same(first, plain, "untraced execution");
    }

    SpanLog log;
    w.prepare(args.seed, &log);
    t0 = now_ns();
    Outcome traced = w.execute(&log);
    traced_walls.push_back(double(now_ns() - t0) * 1e-9);
    tally.add(traced);
    tally.expect_same(first, traced, "traced execution");
    for (const Metric& m : traced.host) host[m.name].push_back(m.value);
    for (const auto& [name, s] : log.self_seconds()) self[name].push_back(s);
    if (is_first) first_traced = traced;
    last_log = std::move(log);

    if (companion != nullptr) {
      companion->prepare(args.seed, nullptr);
      Outcome c = companion->execute(nullptr);
      companion_runs.push_back(c.run_s);
      tally.add(c);
      tally.expect_same(first, c, "cluster_chaos companion");
    }
  } while (now_ns() < deadline);
  check_default_seed(args, w, first, tally);

  std::map<std::string, Metric> layers;
  auto set = [&](const std::string& name, double value, const char* unit) {
    layers[name] = {name, value, unit};
  };
  for (const Metric& m : first_traced.layers) layers[m.name] = m;
  for (const Metric& m : first_traced.host) {
    set(m.name, median(host[m.name]), m.unit.c_str());
  }
  const double run_s = median(plain_runs);
  set("sim.events", double(first_traced.events), "count");
  set("sim.events_per_s", run_s > 0 ? double(first_traced.events) / run_s : 0,
      "1/s");
  if (first_traced.items > 0) {
    set("runtime.host_ns_per_item", run_s * 1e9 / double(first_traced.items),
        "ns");
  }
  auto self_s = [&](const char* span) { return median(self[span]); };
  set("apps.make_suite_s", self_s("apps.make_suite"), "s");
  if (args.workload == "serve_mt") {
    // The open-loop trace is generated inside ResourceManager::start.
    set("workload.generate_s", self_s("serve.start"), "s");
    set("serve.trace_gen_s", self_s("serve.start"), "s");
    set("serve.host_us_per_arrival",
        median(plain_walls) * 1e6 / double(first.arrivals), "us");
  } else {
    set("workload.generate_s", self_s("workload.generate_sequences"), "s");
  }
  if (self.count("cluster.construct") > 0) {
    set("cluster.construct_s", self_s("cluster.construct"), "s");
  }
  if (companion != nullptr) {
    set("obs.run_overhead_s", run_s - median(companion_runs), "s");
  }
  set("trace.overhead_s", median(traced_walls) - median(plain_walls), "s");
  set("trace.executions", double(traced_walls.size()), "count");
  for (const auto& [name, m] : layers) print_line("layer", m);
  for (const auto& [name, values] : self) {
    print_line("self", {name, median(values), "s"});
  }
  if (!args.spans_out.empty()) {
    std::ofstream spans(args.spans_out);
    last_log.write_jsonl(spans);
  }

  std::vector<Metric> out;
  for (const MetricSpec& spec : kPerLayer) {
    auto it = layers.find(spec.name);
    out.push_back(it != layers.end() ? it->second
                                     : Metric{spec.name, 0.0, spec.unit});
  }
  print_result(tally, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Pinned, whatever VS_LOG says, so fault-path WARN lines cost the same in
  // every run.
  vs::util::Log::set_level(vs::util::LogLevel::kWarn);
  const std::string build_type = VSB_BUILD_TYPE;
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (build_type == "Debug" || !optimized) {
    std::cerr << "vsbench: refusing to measure an unoptimised (" << build_type
              << ") build\n";
    return 3;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  if (args.self_test) {
    const std::vector<std::string> failures = self_test();
    for (const std::string& f : failures) std::cout << "FAIL " << f << "\n";
    std::cout << (failures.empty() ? "self-test ok" : "self-test FAILED")
              << std::endl;
    return failures.empty() ? 0 : 1;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);

  const char* env_log = std::getenv("VS_LOG");
  std::cout << "context {\"workload\": " << quoted(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << num(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << nproc
            << ", \"cpu_model\": " << quoted(cpu_model())
            << ", \"compiler\": " << quoted(__VERSION__)
            << ", \"build_type\": " << quoted(build_type)
            << ", \"source_rev\": " << quoted(args.source_rev)
            << ", \"sweep_workers\": " << sweep_workers()
            << ", \"vs_log\": \"warn\", \"vs_log_env\": "
            << quoted(env_log != nullptr ? env_log : "") << "}\n";
  return args.trace ? run_traced(args, *w) : run_untraced(args, *w);
}
