#include "workloads.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/benchmarks.h"
#include "cluster/cluster.h"
#include "digest.h"
#include "faults/fault_plane.h"
#include "fpga/board.h"
#include "metrics/experiment.h"
#include "metrics/sweep.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "serve/resource_manager.h"
#include "serve/serve.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace perfbench {

using namespace vs;

namespace {

// ------------------------------------------------------------ workload sizes
// Every workload runs independent replicas on kSweepWorkers sweep workers.
// Simulated metrics pool over the replicas, so they vary little from seed
// to seed.
constexpr int kSweepWorkers = 4;
//
// board_sweep: the fig5/6 grid, six systems x four congestion conditions x
// kSweepSequences sequences of kAppsPerSequence apps, one board each.
constexpr int kSweepSequences = 40;
constexpr int kAppsPerSequence = 20;
// serve_mt: kServeReplicas runs of the ext_multitenant cell at 2 x 256
// boards, rate x2.0, over a kServeHorizonS open-loop horizon. Host time per
// arrival grows with the horizon (70, 87 and 109 us per arrival at 20, 40
// and 60 s on a 4-vCPU VM), but so does the backlog at rate x2.0, and with
// it the spread of p99_response_ms between seeds (0.07 at 16 x 20 s, 0.11
// at 16 x 40 s). The benchmark keeps 20 s and pools more replicas.
constexpr int kServeReplicas = 24;
constexpr int kServeBoardsPerConfig = 256;
constexpr double kServeRate = 2.0;
constexpr double kServeHorizonS = 20.0;
// ext_multitenant's batch class is one MMPP tenant: at 512 boards one 2 s
// burst is ~600 arrivals, so the burst count alone moves the work of a
// run by a fifth between seeds. The benchmark splits the class into this
// many independent MMPP tenants with the same class totals.
constexpr int kServeBatchTenants = 8;
// cluster_chaos / obs_replay: kChaosReplicas two-pool clusters of 2 x
// kChaosBoardsPerConfig boards, kChaosApps stress arrivals each.
constexpr int kChaosReplicas = 16;
constexpr int kChaosBoardsPerConfig = 4;
constexpr int kChaosApps = 500;

const sim::SimTime kTimeLimit = sim::seconds(36000.0);

/// Seed of replica `k` of a run seeded `seed`.
std::uint64_t replica_seed(std::uint64_t seed, int k, int replicas) {
  return seed * static_cast<std::uint64_t>(replicas) +
         static_cast<std::uint64_t>(k);
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << v;
  return s.str();
}

double ns_percentile(std::vector<std::uint32_t> ns, double q) {
  if (ns.empty()) return 0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return ns[k];
}

std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      ns, 0, std::numeric_limits<std::uint32_t>::max()));
}

double seconds_since(std::int64_t t0) { return double(now_ns() - t0) * 1e-9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host time per Simulator::step() of one traced run.
struct StepTimes {
  std::vector<std::uint32_t> ns;
  std::int64_t total_ns = 0;
};

/// Drives `sim` one event at a time, timing each step, and leaves it where
/// Simulator::run(limit) would: drained, with the clock at the limit.
/// Returns false if an event past the limit ran (the run did not drain).
bool run_stepped(sim::Simulator& sim, sim::SimTime limit, StepTimes& st) {
  while (sim.now() <= limit) {
    const std::int64_t t0 = now_ns();
    if (!sim.step()) break;
    const std::int64_t d = now_ns() - t0;
    st.ns.push_back(clamp_ns(d));
    st.total_ns += d;
  }
  if (sim.now() > limit) return false;
  sim.run(limit);
  return true;
}

/// What one replica produced, besides its workload-specific results.
struct Part {
  std::uint64_t digest = 0;
  std::int64_t arrivals = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> responses;
  runtime::RuntimeCounters counters;
  std::uint64_t events = 0;
  double sim_s = 0;  ///< host seconds in the simulation
  StepTimes steps;   ///< traced only
  SpanLog log;       ///< traced only
};

/// Runs, untraced (Simulator::run) or traced (every step timed under a
/// "sim.run" span), the simulation a replica prepared.
void run_sim(sim::Simulator& sim, bool traced, Part& p) {
  const std::int64_t t0 = now_ns();
  bool drained = false;
  if (!traced) {
    sim.run(kTimeLimit);
    drained = sim.idle();
  } else {
    Scope span(&p.log, "sim.run");
    drained = run_stepped(sim, kTimeLimit, p.steps);
    p.log.aggregate("sim.step", span.id(), p.steps.total_ns,
                    static_cast<std::int64_t>(p.steps.ns.size()));
  }
  p.sim_s = seconds_since(t0);
  p.events = sim.events_executed();
  if (!drained) p.errors.push_back("the run did not drain by the time limit");
}

/// Runs `n` replicas on the sweep workers (`run_one(i, part)`), adopts
/// their span logs under a "metrics.sweep" span, and reports what every
/// workload measures the same way.
template <typename P>
std::vector<P> run_replicas(const metrics::SweepRunner& runner, std::size_t n,
                            const std::function<void(std::size_t, P&)>& run_one,
                            SpanLog* log, Outcome& out) {
  Scope sweep(log, "metrics.sweep");
  const std::int64_t t0 = now_ns();
  std::vector<double> busy(n, 0.0);
  std::vector<P> parts = runner.map<P>(n, [&](std::size_t i) {
    const std::int64_t start = now_ns();
    P p;
    run_one(i, p);
    busy[i] = seconds_since(start);
    return p;
  });
  const double wall = seconds_since(t0);
  double busy_s = 0;
  for (double b : busy) busy_s += b;
  std::vector<std::uint32_t> steps;
  for (P& p : parts) {
    out.events += p.events;
    out.run_s += p.sim_s;
    if (log != nullptr) {
      log->adopt(p.log, sweep.id());
      steps.insert(steps.end(), p.steps.ns.begin(), p.steps.ns.end());
    }
  }
  out.layers.push_back(
      {"metrics.sweep_workers", double(runner.jobs()), "count"});
  if (log != nullptr) {
    out.host.push_back(
        {"metrics.sweep_efficiency",
         ratio(busy_s, double(runner.jobs()) * wall), "fraction"});
    out.host.push_back({"sim.step_ns_p50", ns_percentile(steps, 0.50), "ns"});
    out.host.push_back({"sim.step_ns_p99", ns_percentile(steps, 0.99), "ns"});
  }
  return parts;
}

void add_runtime_counters(Outcome& out, const runtime::RuntimeCounters& c) {
  out.items = c.items_executed;
  out.layers.push_back({"runtime.passes", double(c.passes), "count"});
  out.layers.push_back(
      {"runtime.items_executed", double(c.items_executed), "count"});
  out.layers.push_back(
      {"runtime.pr_requests", double(c.pr_requests), "count"});
  out.layers.push_back(
      {"runtime.pr_blocked_ratio",
       ratio(double(c.pr_blocked), double(c.pr_requests)), "fraction"});
  out.layers.push_back(
      {"runtime.launch_blocked", double(c.launch_blocked), "count"});
  out.layers.push_back(
      {"runtime.preemptions", double(c.preemptions), "count"});
}

void accumulate(runtime::RuntimeCounters& total,
                const runtime::RuntimeCounters& c) {
  total.pr_requests += c.pr_requests;
  total.pr_blocked += c.pr_blocked;
  total.launch_blocked += c.launch_blocked;
  total.items_executed += c.items_executed;
  total.apps_completed += c.apps_completed;
  total.preemptions += c.preemptions;
  total.passes += c.passes;
}

/// Sums a runtime counter over every board label of a registry.
std::int64_t registry_sum(const obs::MetricsRegistry& registry,
                          const std::string& name) {
  std::int64_t total = 0;
  for (const auto& row : registry.counters()) {
    if (row.name == name) total += row.cell.value();
  }
  return total;
}

/// The RuntimeCounters of every board epoch bound to `registry`, retired
/// epochs included.
runtime::RuntimeCounters counters_from(const obs::MetricsRegistry& registry) {
  runtime::RuntimeCounters c;
  c.pr_requests = registry_sum(registry, "vs_runtime_pr_requests_total");
  c.pr_blocked = registry_sum(registry, "vs_runtime_pr_blocked_total");
  c.launch_blocked = registry_sum(registry, "vs_runtime_launch_blocked_total");
  c.items_executed = registry_sum(registry, "vs_runtime_items_total");
  c.apps_completed = registry_sum(registry, "vs_runtime_apps_completed_total");
  c.preemptions = registry_sum(registry, "vs_runtime_preemptions_total");
  c.passes = registry_sum(registry, "vs_runtime_passes_total");
  return c;
}

void add_response_metrics(Outcome& out, const std::vector<double>& ms) {
  const util::Summary s = util::summarize(ms);
  out.simulated.push_back({"mean_response_ms", s.mean, "ms"});
  out.simulated.push_back({"p99_response_ms", s.p99, "ms"});
  out.simulated.push_back({"response_samples", double(ms.size()), "count"});
}

/// Merges the parts' digests, counts, checks and responses, in order.
template <typename P>
void merge_parts(const std::vector<P>& parts, Outcome& out) {
  Digest d;
  std::vector<double> responses;
  runtime::RuntimeCounters counters;
  for (const P& p : parts) {
    d.add(p.digest);
    out.arrivals += p.arrivals;
    out.failed += p.failed;
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
    responses.insert(responses.end(), p.responses.begin(), p.responses.end());
    accumulate(counters, p.counters);
  }
  out.digest = d.value();
  add_response_metrics(out, responses);
  if (counters.passes > 0) add_runtime_counters(out, counters);
}

void digest_app(Digest& d, const runtime::CompletedApp& c) {
  d.add(c.app_id).add(c.spec_index).add(c.tenant).add(c.arrival).add(
      c.completed);
}

/// Stream buffer that counts the bytes and lines written to it.
class CountingSink final : public std::streambuf {
 public:
  std::int64_t bytes = 0;
  std::int64_t lines = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      ++bytes;
      if (traits_type::to_char_type(c) == '\n') ++lines;
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes += n;
    lines += std::count(s, s + n, '\n');
    return n;
  }
};

// ------------------------------------------------------------- board_sweep

/// Forwards every call to the policy metrics::make_policy builds, timing
/// each scheduling pass.
class TimedPolicy final : public runtime::SchedulerPolicy {
 public:
  TimedPolicy(std::unique_ptr<runtime::SchedulerPolicy> inner,
              std::vector<std::uint32_t>& pass_ns)
      : inner_(std::move(inner)), pass_ns_(pass_ns) {}

  const char* name() const override { return inner_->name(); }
  bool dual_core() const override { return inner_->dual_core(); }
  void attach(runtime::BoardRuntime& rt) override { inner_->attach(rt); }
  void bind_metrics(obs::MetricsRegistry& registry,
                    const std::string& board) override {
    inner_->bind_metrics(registry, board);
  }
  void on_app_submitted(runtime::BoardRuntime& rt, int app_id) override {
    inner_->on_app_submitted(rt, app_id);
  }
  void on_pass(runtime::BoardRuntime& rt) override {
    const std::int64_t t0 = now_ns();
    inner_->on_pass(rt);
    pass_ns_.push_back(clamp_ns(now_ns() - t0));
  }

 private:
  std::unique_ptr<runtime::SchedulerPolicy> inner_;
  std::vector<std::uint32_t>& pass_ns_;
};

struct BoardPart : Part {
  metrics::RunResult result;
  std::vector<std::uint32_t> pass_ns;  ///< traced only
};

/// metrics::run_single_board's fault-free path built from the same public
/// parts, with the policy wrapped and every event stepped and timed. Its
/// results must equal the library run's.
void run_traced_board(const metrics::SweepJob& job,
                      const std::vector<apps::AppSpec>& suite, BoardPart& p) {
  Scope replica(&p.log, "metrics.replica");
  sim::Simulator sim;
  fpga::Board board(sim, "fpga0", metrics::fabric_for(job.kind),
                    job.options.board_params);
  TimedPolicy policy(metrics::make_policy(job.kind, job.options.vs_options),
                     p.pass_ns);
  runtime::BoardRuntime rt(board, policy);
  rt.enable_checkpoints(job.options.checkpoint);
  for (const apps::AppArrival& a : job.sequence) {
    sim.schedule_at(a.arrival, [&rt, &suite, a] {
      rt.submit(suite.at(static_cast<std::size_t>(a.spec_index)),
                a.spec_index, a.batch, a.arrival, a.item_interval);
    });
  }
  {
    Scope run(&p.log, "sim.run");
    const std::int64_t t0 = now_ns();
    if (!run_stepped(sim, job.options.time_limit, p.steps)) {
      p.errors.push_back("the run did not drain by the time limit");
    }
    p.sim_s = seconds_since(t0);
    p.events = sim.events_executed();
    const int step = p.log.aggregate(
        "sim.step", run.id(), p.steps.total_ns,
        static_cast<std::int64_t>(p.steps.ns.size()));
    std::int64_t pass_total = 0;
    for (std::uint32_t ns : p.pass_ns) pass_total += ns;
    p.log.aggregate("policy.on_pass", step, pass_total,
                    static_cast<std::int64_t>(p.pass_ns.size()));
  }
  metrics::RunResult& r = p.result;
  r.system = metrics::system_name(job.kind);
  r.submitted = static_cast<int>(job.sequence.size());
  r.apps = rt.completed();
  for (const runtime::CompletedApp& c : r.apps) {
    r.response_ms.push_back(c.response_ms());
    r.makespan = std::max(r.makespan, c.completed);
  }
  r.counters = rt.counters();
  r.utilization = rt.utilization();
  r.checkpoint = rt.checkpoint_stats();
  r.completed = static_cast<int>(r.apps.size());
  r.response = util::summarize(r.response_ms);
}

/// The fig5/6 grid on metrics::SweepRunner workers, one
/// metrics::run_single_board per (system, congestion, sequence) job.
class BoardSweep final : public Workload {
 public:
  explicit BoardSweep(int workers) : runner_(workers) {}

  void prepare(std::uint64_t seed, SpanLog* log) override {
    {
      Scope s(log, "apps.make_suite");
      suite_ = apps::make_suite(fpga::BoardParams{});
    }
    Scope s(log, "workload.generate_sequences");
    grid_.clear();
    for (int ci = 0; ci < workload::kCongestionCount; ++ci) {
      workload::WorkloadConfig config;
      config.congestion = static_cast<workload::Congestion>(ci);
      config.apps_per_sequence = kAppsPerSequence;
      auto sequences =
          workload::generate_sequences(config, kSweepSequences, seed);
      for (int k = 0; k < metrics::kSystemCount; ++k) {
        for (const workload::Sequence& seq : sequences) {
          grid_.push_back(metrics::SweepJob{
              static_cast<metrics::SystemKind>(k), seq, {}});
        }
      }
    }
  }

  void release() override {
    suite_.clear();
    grid_.clear();
  }

  Outcome execute(SpanLog* log) override {
    Outcome out;
    const std::vector<BoardPart> parts = run_replicas<BoardPart>(
        runner_, grid_.size(),
        [&](std::size_t i, BoardPart& p) {
          const metrics::SweepJob& job = grid_[i];
          if (log != nullptr) {
            run_traced_board(job, suite_, p);
            return;
          }
          const std::int64_t t0 = now_ns();
          p.result = metrics::run_single_board(job.kind, suite_, job.sequence,
                                               job.options);
          p.sim_s = seconds_since(t0);
        },
        log, out);
    Scope collect(log, "bench.collect_and_check");
    std::vector<metrics::RunResult> cells;
    for (const BoardPart& p : parts) {
      out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
      cells.push_back(p.result);
    }
    collect_results(cells, out);
    if (log != nullptr) add_policy_metrics(parts, out);
    return out;
  }

  [[nodiscard]] const std::vector<apps::AppSpec>& suite() const {
    return suite_;
  }
  [[nodiscard]] const std::vector<metrics::SweepJob>& grid() const {
    return grid_;
  }

  /// Checks and digests one result per grid job, in grid order.
  void collect_results(const std::vector<metrics::RunResult>& cells,
                       Outcome& out) const {
    Digest d;
    runtime::RuntimeCounters total;
    std::vector<double> bl_responses;
    double baseline_sum = 0;
    std::size_t baseline_n = 0;
    double lut = 0, ff = 0;
    int bl_cells = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const metrics::RunResult& r = cells[i];
      const metrics::SweepJob& job = grid_[i];
      const auto arrivals = static_cast<std::int64_t>(job.sequence.size());
      out.arrivals += arrivals;
      // A fault-free board completes every arrival.
      if (r.submitted != arrivals || r.completed != r.submitted ||
          r.counters.apps_completed != r.completed ||
          r.system != metrics::system_name(job.kind)) {
        out.errors.push_back("board_sweep replica " + std::to_string(i) +
                             " (" + r.system + ") completed " +
                             std::to_string(r.completed) + " of " +
                             std::to_string(arrivals));
        out.failed += arrivals;
      }
      d.add(r.system).add(r.submitted).add(r.completed).add(r.makespan);
      for (const runtime::CompletedApp& c : r.apps) digest_app(d, c);
      const runtime::RuntimeCounters& c = r.counters;
      d.add(c.pr_requests).add(c.pr_blocked).add(c.launch_blocked)
          .add(c.items_executed).add(c.apps_completed).add(c.preemptions)
          .add(c.passes).add(c.ckpt_snapshots).add(c.ckpt_bytes);
      const runtime::UtilizationIntegral& u = r.utilization;
      d.add(u.lut_used).add(u.ff_used).add(u.lut_capacity)
          .add(u.ff_capacity).add(u.lut_fabric).add(u.ff_fabric);
      accumulate(total, c);
      if (job.kind == metrics::SystemKind::kVersaBigLittle) {
        bl_responses.insert(bl_responses.end(), r.response_ms.begin(),
                            r.response_ms.end());
        // fig7's dynamic check: occupied-slot utilisation per replica.
        lut += u.lut_of_occupied();
        ff += u.ff_of_occupied();
        ++bl_cells;
      } else if (job.kind == metrics::SystemKind::kBaseline) {
        for (double ms : r.response_ms) baseline_sum += ms;
        baseline_n += r.response_ms.size();
      }
    }
    out.digest = d.value();
    add_response_metrics(out, bl_responses);
    out.simulated.push_back(
        {"speedup_vs_baseline",
         ratio(ratio(baseline_sum, double(baseline_n)),
               out.simulated.front().value),
         "x"});
    out.simulated.push_back({"lut_util", ratio(lut, bl_cells), "fraction"});
    out.simulated.push_back({"ff_util", ratio(ff, bl_cells), "fraction"});
    add_runtime_counters(out, total);
  }

 private:
  void add_policy_metrics(const std::vector<BoardPart>& parts,
                          Outcome& out) const {
    std::vector<std::uint32_t> pass_ns;
    for (const BoardPart& p : parts) {
      pass_ns.insert(pass_ns.end(), p.pass_ns.begin(), p.pass_ns.end());
    }
    std::int64_t pass_total = 0;
    for (std::uint32_t ns : pass_ns) pass_total += ns;
    out.host.push_back(
        {"policy.on_pass_calls", double(pass_ns.size()), "count"});
    out.host.push_back({"policy.on_pass_s", double(pass_total) * 1e-9, "s"});
    out.host.push_back(
        {"policy.on_pass_ns_p99", ns_percentile(pass_ns, 0.99), "ns"});
    out.host.push_back({"policy.share_of_run",
                        ratio(double(pass_total) * 1e-9, out.run_s),
                        "fraction"});
  }

  metrics::SweepRunner runner_;
  std::vector<apps::AppSpec> suite_;
  std::vector<metrics::SweepJob> grid_;
};

// ---------------------------------------------------------------- serve_mt

/// The ext_multitenant tenant mix: three SLO classes (diurnal interactive,
/// Poisson standard, MMPP batch) with base rates scaled by the board pool
/// and the rate multiplier, the batch class split kServeBatchTenants ways.
serve::ServeConfig make_serve_config(std::uint64_t seed) {
  const int boards = kServeBoardsPerConfig;
  const double horizon_s = kServeHorizonS;
  serve::ServeConfig config;
  config.seed = seed;
  config.horizon = sim::seconds(horizon_s);
  config.max_inflight = 3 * boards;
  config.rebalance = true;
  config.classes = {
      {"interactive", sim::ms(2500.0), 0},
      {"standard", sim::ms(4000.0), 1},
      {"batch", sim::ms(12000.0), 2},
  };
  const double scale = kServeRate * static_cast<double>(boards);

  serve::Tenant interactive;
  interactive.name = "interactive";
  interactive.slo_class = 0;
  interactive.weight = 3.0;
  interactive.arrivals.kind = workload::ArrivalKind::kDiurnal;
  interactive.arrivals.rate_per_s = 0.25 * scale;
  interactive.arrivals.diurnal_depth = 0.6;
  interactive.arrivals.diurnal_period_s = horizon_s / 2.0;
  interactive.min_batch = 5;
  interactive.max_batch = 10;
  config.tenants.push_back(interactive);

  serve::Tenant standard;
  standard.name = "standard";
  standard.slo_class = 1;
  standard.weight = 2.0;
  standard.arrivals.kind = workload::ArrivalKind::kPoisson;
  standard.arrivals.rate_per_s = 0.15 * scale;
  standard.min_batch = 8;
  standard.max_batch = 20;
  config.tenants.push_back(standard);

  const double split = kServeBatchTenants;
  for (int b = 0; b < kServeBatchTenants; ++b) {
    serve::Tenant batch;
    batch.name = "batch-" + std::to_string(b);
    batch.slo_class = 2;
    batch.weight = 1.0 / split;
    batch.quota = boards / kServeBatchTenants;
    batch.defer_limit = boards / kServeBatchTenants;
    batch.arrivals.kind = workload::ArrivalKind::kMmpp;
    batch.arrivals.rate_per_s = 0.05 * scale / split;
    batch.arrivals.burst_rate_per_s = 0.6 * scale / split;
    batch.arrivals.burst_on_s = 2.0;
    batch.arrivals.burst_off_s = 6.0;
    batch.min_batch = 15;
    batch.max_batch = 30;
    config.tenants.push_back(batch);
  }
  return config;
}

cluster::ClusterOptions make_serve_options() {
  cluster::ClusterOptions options;
  options.boards_per_config = kServeBoardsPerConfig;
  // Flat capacity: both pools serve, no D_switch churn.
  options.enable_switching = false;
  return options;
}

struct ServePart : Part {
  std::vector<serve::TenantResult> tenants;
};

/// serve::run_serve's serial path, split at the points the benchmark times.
class ServeReplica {
 public:
  void prepare(std::uint64_t seed, const std::vector<apps::AppSpec>& suite,
               SpanLog* log) {
    manager_.reset();
    cluster_.reset();
    sim_.reset();
    config_ = make_serve_config(seed);
    cluster::ClusterOptions options = make_serve_options();
    // The traced run binds a bare registry to read the runtime counters.
    registry_ = std::make_unique<obs::MetricsRegistry>();
    if (log != nullptr) options.metrics = registry_.get();
    {
      Scope s(log, "cluster.construct");
      sim_ = std::make_unique<sim::Simulator>();
      cluster_ = std::make_unique<cluster::Cluster>(*sim_, suite, options);
    }
    {
      Scope s(log, "serve.construct");
      manager_ = std::make_unique<serve::ResourceManager>(
          *sim_, *cluster_, config_, options.metrics);
    }
    // Generates the open-loop arrival trace and schedules every arrival.
    Scope s(log, "serve.start");
    manager_->start(static_cast<int>(suite.size()));
  }

  void run(bool traced, ServePart& p) {
    run_sim(*sim_, traced, p);
    const auto& admission = manager_->admission().tenants();
    const auto& counters = manager_->tenant_counters();
    const cluster::RecoveryStats& rec = cluster_->recovery_stats();
    Digest d;
    std::int64_t admitted = 0, completed = 0;
    for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
      const auto& a = admission[i];
      const auto& c = counters[i];
      serve::TenantResult t;
      t.name = config_.tenants[i].name;
      t.slo_class = config_.tenants[i].slo_class;
      t.submitted = a.submitted;
      t.admitted = a.admitted;
      t.deferred = a.deferred;
      t.rejected = a.rejected;
      t.completed = c.completed;
      t.slo_miss = c.slo_miss;
      d.add(t.name).add(t.submitted).add(t.admitted).add(t.deferred)
          .add(t.rejected).add(t.completed).add(t.slo_miss);
      for (double ms : c.response_ms) d.add(ms);
      // Per tenant: arrivals == admitted + rejected, and
      // admitted == completed + in flight.
      if (t.submitted != t.admitted + t.rejected || !a.queue.empty() ||
          t.admitted != t.completed + a.outstanding) {
        p.errors.push_back("serve_mt tenant " + t.name +
                           " does not conserve arrivals");
      }
      p.arrivals += t.submitted;
      p.failed += a.outstanding + static_cast<std::int64_t>(a.queue.size());
      admitted += t.admitted;
      completed += t.completed;
      p.responses.insert(p.responses.end(), c.response_ms.begin(),
                         c.response_ms.end());
      p.tenants.push_back(std::move(t));
    }
    for (const runtime::CompletedApp& c : cluster_->completed()) {
      digest_app(d, c);
    }
    d.add(rec.apps_lost).add(rec.apps_shed).add(rec.arrivals_shed)
        .add(rec.readmissions);
    p.digest = d.value();
    if (p.arrivals != manager_->arrivals() ||
        cluster_->submitted() != admitted ||
        static_cast<std::int64_t>(cluster_->completed().size()) != completed ||
        completed != manager_->completions()) {
      p.errors.push_back("serve_mt cluster and tenant counts disagree");
    }
    // An admission rejection is the plane's answer to overload: it counts
    // as an SLO miss in slo_attainment, not as a failed operation.
    if (!p.errors.empty()) p.failed = p.arrivals;
    if (traced) p.counters = counters_from(*registry_);
    release();
  }

  [[nodiscard]] const serve::ServeConfig& config() const { return config_; }

  /// Frees the simulated system once its results are collected, so only
  /// the replicas still running hold memory.
  void release() {
    manager_.reset();
    cluster_.reset();
    sim_.reset();
    registry_.reset();
  }

 private:
  serve::ServeConfig config_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<serve::ResourceManager> manager_;
};

class ServeMt final : public Workload {
 public:
  explicit ServeMt(int workers)
      : runner_(workers), replicas_(kServeReplicas) {}

  void prepare(std::uint64_t seed, SpanLog* log) override {
    {
      Scope s(log, "apps.make_suite");
      suite_ = apps::make_suite(fpga::BoardParams{});
    }
    for (int k = 0; k < kServeReplicas; ++k) {
      replicas_[static_cast<std::size_t>(k)].prepare(
          replica_seed(seed, k, kServeReplicas), suite_, log);
    }
  }

  void release() override {
    for (ServeReplica& r : replicas_) r.release();
    suite_.clear();
  }

  Outcome execute(SpanLog* log) override {
    Outcome out;
    const std::vector<ServePart> parts = run_replicas<ServePart>(
        runner_, replicas_.size(),
        [&](std::size_t i, ServePart& p) {
          replicas_[i].run(log != nullptr, p);
        },
        log, out);
    Scope collect(log, "bench.collect_and_check");
    merge_parts(parts, out);
    const std::vector<serve::SloClass>& classes =
        replicas_.front().config().classes;
    std::int64_t admitted = 0, deferred = 0, rejected = 0, met = 0;
    std::vector<std::int64_t> class_arrivals(classes.size(), 0);
    std::vector<std::int64_t> class_met(classes.size(), 0);
    for (const ServePart& p : parts) {
      for (const serve::TenantResult& t : p.tenants) {
        admitted += t.admitted;
        deferred += t.deferred;
        rejected += t.rejected;
        met += t.completed - t.slo_miss;
        const auto c = static_cast<std::size_t>(t.slo_class);
        class_arrivals[c] += t.submitted;
        class_met[c] += t.completed - t.slo_miss;
      }
    }
    // SLO-met completions over arrivals: a rejected arrival is a miss.
    out.simulated.push_back(
        {"slo_attainment", ratio(double(met), double(out.arrivals)),
         "fraction"});
    out.layers.push_back({"serve.arrivals", double(out.arrivals), "count"});
    out.layers.push_back({"serve.admitted", double(admitted), "count"});
    out.layers.push_back({"serve.deferred", double(deferred), "count"});
    out.layers.push_back({"serve.rejected", double(rejected), "count"});
    for (std::size_t c = 0; c < classes.size(); ++c) {
      out.layers.push_back(
          {"serve.attainment." + classes[c].name,
           ratio(double(class_met[c]), double(class_arrivals[c])),
           "fraction"});
    }
    return out;
  }

  [[nodiscard]] const std::vector<apps::AppSpec>& suite() const {
    return suite_;
  }
  [[nodiscard]] const ServeReplica& replica(std::size_t k) const {
    return replicas_[k];
  }
  [[nodiscard]] ServePart run_replica(std::size_t k) {
    ServePart p;
    replicas_[k].run(false, p);
    return p;
  }

 private:
  metrics::SweepRunner runner_;
  std::vector<apps::AppSpec> suite_;
  std::vector<ServeReplica> replicas_;
};

// ------------------------------------------------ cluster_chaos, obs_replay

/// Two pools of kChaosBoardsPerConfig boards with D_switch switching,
/// pre-copy migration, delta checkpointing and recovery at its defaults.
/// Crash, SEU, link-flap and rack hazards stop at `hazard_horizon` (the
/// last arrival), so the run drains; each rack pairs OL_r with BL_r.
cluster::ClusterOptions make_chaos_options(std::uint64_t seed,
                                           sim::SimTime hazard_horizon) {
  cluster::ClusterOptions options;
  options.boards_per_config = kChaosBoardsPerConfig;
  options.migration.precopy = true;
  options.checkpoint.enabled = true;
  options.checkpoint.delta = true;
  faults::FaultScenario& s = options.faults;
  s.seed = seed;
  s.horizon = hazard_horizon;
  s.hazards.board_crash_per_s = 0.005;
  s.hazards.slot_seu_per_s = 0.02;
  s.hazards.link_flap_per_s = 0.01;
  s.hazards.rack_event_per_s = 0.002;
  for (int r = 0; r < kChaosBoardsPerConfig; ++r) {
    faults::FailureDomain dom;
    dom.name = "r" + std::to_string(r);
    dom.boards = {r, kChaosBoardsPerConfig + r};
    if (r > 0) {
      dom.jitter = sim::ms(1.0);
      dom.survival_probability = 0.25;
    }
    s.domains.push_back(std::move(dom));
  }
  return options;
}

std::uint64_t digest_cluster(const std::vector<runtime::CompletedApp>& apps,
                             const std::vector<cluster::SwitchEvent>& switches,
                             const cluster::RecoveryStats& rec,
                             const runtime::CheckpointStats& ckpt,
                             double availability, int submitted) {
  Digest d;
  for (const runtime::CompletedApp& c : apps) digest_app(d, c);
  for (const cluster::SwitchEvent& s : switches) {
    d.add(s.time).add(static_cast<int>(s.to)).add(s.dswitch)
        .add(s.apps_migrated).add(s.bytes).add(s.overhead)
        .add(s.precopy_rounds).add(s.precopy_bytes).add(s.stopcopy_bytes)
        .add(s.downtime);
  }
  d.add(rec.boards_crashed).add(rec.boards_rebooted).add(rec.link_flaps)
      .add(rec.slot_seus).add(rec.apps_evacuated)
      .add(rec.apps_checkpoint_restored).add(rec.apps_restarted)
      .add(rec.apps_lost).add(rec.apps_shed).add(rec.readmissions)
      .add(rec.rack_events).add(rec.spare_exhausted)
      .add(rec.arrivals_deferred).add(rec.arrivals_shed)
      .add(rec.mttr_total).add(rec.mttr_count);
  d.add(ckpt.bases).add(ckpt.deltas).add(ckpt.compactions)
      .add(ckpt.base_bytes).add(ckpt.delta_bytes).add(ckpt.dirty_regions)
      .add(ckpt.skipped_clean).add(ckpt.skipped_empty);
  d.add(availability).add(submitted);
  return d.value();
}

struct ChaosPart : Part {
  cluster::RecoveryStats recovery;
  runtime::CheckpointStats checkpoint;
  double availability = 1.0;
  std::int64_t switches = 0, migrated = 0, migration_bytes = 0, rounds = 0;
  sim::SimDuration downtime = 0;
  std::int64_t export_bytes = 0, snapshots = 0, journal_records = 0;
  double export_s = 0;
};

/// metrics::run_cluster's serial path, split at the points the benchmark
/// times. `observed` adds telemetry, the trace hub (trace and journal),
/// phase accounting and an in-memory export of every obs output.
class ChaosReplica {
 public:
  explicit ChaosReplica(bool observed) : observed_(observed) {}

  void prepare(std::uint64_t seed, const std::vector<apps::AppSpec>& suite,
               SpanLog* log) {
    cluster_.reset();
    sim_.reset();
    hub_ = std::make_unique<obs::ClusterTraceHub>();
    telemetry_ = std::make_unique<obs::Telemetry>();
    registry_ = std::make_unique<obs::MetricsRegistry>();
    {
      Scope s(log, "workload.generate_sequences");
      workload::WorkloadConfig config;
      config.congestion = workload::Congestion::kStress;
      config.apps_per_sequence = kChaosApps;
      sequence_ = workload::generate_sequences(config, 1, seed).front();
    }
    options_ = make_chaos_options(seed, sequence_.back().arrival);
    cluster::ClusterOptions options = options_;
    if (observed_) {
      hub_->enable_trace();
      hub_->enable_journal();
      options.hub = hub_.get();
      options.phase_accounting = true;
      options.metrics = &telemetry_->registry();
      telemetry_->info().experiment = "cluster";
      telemetry_->info().config = {
          {"apps", std::to_string(sequence_.size())},
          {"boards_per_config", std::to_string(kChaosBoardsPerConfig)}};
    } else if (log != nullptr) {
      // The traced run binds a bare registry to read the runtime counters.
      options.metrics = registry_.get();
    }
    {
      Scope s(log, "cluster.construct");
      sim_ = std::make_unique<sim::Simulator>();
      cluster_ = std::make_unique<cluster::Cluster>(*sim_, suite, options);
    }
    if (observed_) {
      Scope s(log, "obs.start_sampling");
      telemetry_->start_sampling(*sim_);
    }
    Scope s(log, "cluster.submit_sequence");
    cluster_->submit_sequence(sequence_);
  }

  void run(bool traced, ChaosPart& p) {
    run_sim(*sim_, traced, p);
    if (observed_) {
      hub_->seal();
      export_all(traced ? &p.log : nullptr, p);
    }
    collect(p);
    if (observed_) {
      p.counters = counters_from(telemetry_->registry());
    } else if (traced) {
      p.counters = counters_from(*registry_);
    }
    release();
  }

  [[nodiscard]] const workload::Sequence& sequence() const {
    return sequence_;
  }
  [[nodiscard]] const cluster::ClusterOptions& options() const {
    return options_;
  }

  /// Frees the simulated system once its results are collected, so only
  /// the replicas still running hold memory.
  void release() {
    cluster_.reset();
    sim_.reset();
    hub_.reset();
    telemetry_.reset();
    registry_.reset();
  }

 private:
  /// Serialises every obs output through the public ostream exporters
  /// into a sink that only counts, so the number measures the program, not
  /// the filesystem or string growth.
  void export_all(SpanLog* log, ChaosPart& p) {
    Scope span(log, "obs.export");
    const std::int64_t t0 = now_ns();
    CountingSink sink;
    std::ostream os(&sink);
    {
      Scope s(log, "obs.write_prometheus");
      obs::write_prometheus(telemetry_->registry(), os);
    }
    {
      Scope s(log, "obs.write_timeseries_jsonl");
      obs::write_timeseries_jsonl(telemetry_->sampler(),
                                  telemetry_->registry(), os);
    }
    {
      Scope s(log, "obs.write_run_report");
      obs::write_run_report(telemetry_->registry(), telemetry_->info(),
                            &telemetry_->sampler(), os);
    }
    {
      Scope s(log, "obs.write_chrome_trace");
      hub_->write_chrome_trace(os);
    }
    const std::int64_t lines_before = sink.lines;
    {
      Scope s(log, "obs.write_journal");
      hub_->write_journal(os);
    }
    p.journal_records = sink.lines - lines_before;
    p.export_bytes = sink.bytes;
    p.snapshots =
        static_cast<std::int64_t>(telemetry_->sampler().snapshots().size());
    p.export_s = seconds_since(t0);
  }

  void collect(ChaosPart& p) const {
    p.recovery = cluster_->recovery_stats();
    p.checkpoint = cluster_->checkpoint_stats();
    sim::SimTime last_completion = 0;
    for (const runtime::CompletedApp& c : cluster_->completed()) {
      p.responses.push_back(c.response_ms());
      last_completion = std::max(last_completion, c.completed);
    }
    // The digest keeps metrics::run_cluster's availability, taken over
    // [0, time limit]; the layer metric covers the span the run simulates,
    // up to its last completion.
    const faults::FaultPlane* plane = cluster_->fault_plane();
    p.digest = digest_cluster(
        cluster_->completed(), cluster_->switches(), p.recovery, p.checkpoint,
        plane != nullptr ? plane->mean_availability(sim_->now()) : 1.0,
        cluster_->submitted());
    p.availability = plane != nullptr
                         ? std::clamp(plane->mean_availability(last_completion),
                                      0.0, 1.0)
                         : 1.0;
    for (const cluster::SwitchEvent& s : cluster_->switches()) {
      ++p.switches;
      p.migrated += s.apps_migrated;
      p.migration_bytes += s.bytes;
      p.rounds += s.precopy_rounds;
      p.downtime += s.downtime;
    }
    p.arrivals = static_cast<std::int64_t>(sequence_.size());
    const auto completed =
        static_cast<std::int64_t>(cluster_->completed().size());
    const cluster::RecoveryStats& rec = p.recovery;
    const std::int64_t dropped =
        rec.apps_lost + rec.apps_shed + rec.arrivals_shed;
    // Conservation: submitted == completed + lost + shed.
    if (cluster_->submitted() != p.arrivals ||
        completed + dropped != p.arrivals || cluster_->readmit_pending() != 0) {
      p.errors.push_back("cluster does not conserve apps: submitted " +
                         std::to_string(cluster_->submitted()) +
                         ", completed " + std::to_string(completed) +
                         ", lost+shed " + std::to_string(dropped));
    }
    p.failed = p.errors.empty() ? p.arrivals - completed : p.arrivals;
  }

  bool observed_;
  workload::Sequence sequence_;
  cluster::ClusterOptions options_;
  std::unique_ptr<obs::ClusterTraceHub> hub_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
};

class ClusterChaos final : public Workload {
 public:
  ClusterChaos(int workers, bool observed) : runner_(workers) {
    for (int k = 0; k < kChaosReplicas; ++k) replicas_.emplace_back(observed);
  }

  void prepare(std::uint64_t seed, SpanLog* log) override {
    {
      Scope s(log, "apps.make_suite");
      suite_ = apps::make_suite(fpga::BoardParams{});
    }
    for (int k = 0; k < kChaosReplicas; ++k) {
      replicas_[static_cast<std::size_t>(k)].prepare(
          replica_seed(seed, k, kChaosReplicas), suite_, log);
    }
  }

  void release() override {
    for (ChaosReplica& r : replicas_) r.release();
    suite_.clear();
  }

  Outcome execute(SpanLog* log) override {
    Outcome out;
    const std::vector<ChaosPart> parts = run_replicas<ChaosPart>(
        runner_, replicas_.size(),
        [&](std::size_t i, ChaosPart& p) {
          replicas_[i].run(log != nullptr, p);
        },
        log, out);
    Scope collect(log, "bench.collect_and_check");
    merge_parts(parts, out);
    ChaosPart total;
    double availability = 0;
    for (const ChaosPart& p : parts) {
      total.recovery.readmissions += p.recovery.readmissions;
      total.recovery.mttr_total += p.recovery.mttr_total;
      total.recovery.mttr_count += p.recovery.mttr_count;
      total.checkpoint += p.checkpoint;
      availability += p.availability / double(parts.size());
      total.switches += p.switches;
      total.migrated += p.migrated;
      total.migration_bytes += p.migration_bytes;
      total.rounds += p.rounds;
      total.downtime += p.downtime;
      total.export_bytes += p.export_bytes;
      total.snapshots += p.snapshots;
      total.journal_records += p.journal_records;
      total.export_s += p.export_s;
    }
    out.layers.push_back(
        {"cluster.switches", double(total.switches), "count"});
    out.layers.push_back(
        {"cluster.apps_migrated", double(total.migrated), "count"});
    out.layers.push_back(
        {"cluster.migration_bytes", double(total.migration_bytes), "bytes"});
    out.layers.push_back(
        {"cluster.precopy_rounds", double(total.rounds), "count"});
    out.layers.push_back({"cluster.readmissions",
                          double(total.recovery.readmissions), "count"});
    out.layers.push_back({"cluster.availability", availability, "fraction"});
    out.layers.push_back(
        {"cluster.ckpt_snapshots",
         double(total.checkpoint.bases + total.checkpoint.deltas), "count"});
    out.layers.push_back({"cluster.ckpt_bytes",
                          double(total.checkpoint.total_bytes()), "bytes"});
    out.layers.push_back(
        {"cluster.downtime_ms", sim::to_ms(total.downtime), "ms"});
    out.layers.push_back(
        {"cluster.mttr_ms", total.recovery.mttr_ms_mean(), "ms"});
    if (total.snapshots > 0) {
      out.layers.push_back(
          {"obs.export_bytes", double(total.export_bytes), "bytes"});
      out.layers.push_back(
          {"obs.snapshots", double(total.snapshots), "count"});
      out.layers.push_back(
          {"obs.journal_records", double(total.journal_records), "count"});
      out.host.push_back({"obs.export_s", total.export_s, "s"});
    }
    return out;
  }

  [[nodiscard]] const std::vector<apps::AppSpec>& suite() const {
    return suite_;
  }
  [[nodiscard]] const ChaosReplica& replica(std::size_t k) const {
    return replicas_[k];
  }
  [[nodiscard]] ChaosPart run_replica(std::size_t k) {
    ChaosPart p;
    replicas_[k].run(false, p);
    return p;
  }

 private:
  metrics::SweepRunner runner_;
  std::vector<apps::AppSpec> suite_;
  std::vector<ChaosReplica> replicas_;
};

}  // namespace

int sweep_workers() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(nproc, 1, kSweepWorkers);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  const int workers = sweep_workers();
  if (name == "board_sweep") return std::make_unique<BoardSweep>(workers);
  if (name == "serve_mt") return std::make_unique<ServeMt>(workers);
  if (name == "cluster_chaos") {
    return std::make_unique<ClusterChaos>(workers, false);
  }
  if (name == "obs_replay") {
    return std::make_unique<ClusterChaos>(workers, true);
  }
  return nullptr;
}

std::uint64_t pinned_digest(const std::string& name) {
  // Pinned at kDefaultSeed. Only a change whose purpose is a deliberate
  // behaviour change may re-pin these. obs_replay simulates exactly what
  // cluster_chaos does, so the two share a digest.
  if (name == "board_sweep") return 0x3127c321d5c6144bULL;
  if (name == "serve_mt") return 0x4287c5c8374f574cULL;
  if (name == "cluster_chaos" || name == "obs_replay") {
    return 0x2d36d322c99461eeULL;
  }
  throw std::invalid_argument("no pinned digest for " + name);
}

void check_pinned(const std::string& name, Outcome& outcome) {
  const std::uint64_t pin = pinned_digest(name);
  if (outcome.digest != pin) {
    outcome.errors.push_back(name + " digest " + hex(outcome.digest) +
                             " at seed " + std::to_string(kDefaultSeed) +
                             " differs from the pinned " + hex(pin));
    outcome.failed = outcome.arrivals;
  }
}

std::vector<std::string> self_test() {
  const int workers = sweep_workers();
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const std::uint64_t seed = kDefaultSeed;

  // Traced and untraced runs simulate the same thing, and both match the
  // pinned digest.
  std::map<std::string, std::uint64_t> digests;
  for (const char* name : kWorkloadNames) {
    auto w = make_workload(name);
    w->prepare(seed, nullptr);
    Outcome plain = w->execute(nullptr);
    SpanLog log;
    w->prepare(seed, &log);
    const Outcome traced = w->execute(&log);
    expect(plain.errors.empty() && traced.errors.empty(),
           std::string(name) + ": output checks failed");
    expect(plain.failed == 0, std::string(name) + ": failed operations");
    expect(plain.digest == traced.digest,
           std::string(name) + ": traced digest differs from untraced");
    check_pinned(name, plain);
    expect(plain.errors.empty(), std::string(name) + ": pinned digest");
    digests[name] = plain.digest;
  }
  expect(digests["cluster_chaos"] == digests["obs_replay"],
         "obs_replay digest differs from cluster_chaos");

  // The benchmark's assembly of public parts matches the library's own
  // entry points.
  {
    ClusterChaos chaos(workers, false);
    chaos.prepare(seed, nullptr);
    const ChaosPart mine = chaos.run_replica(0);
    const ChaosReplica& r = chaos.replica(0);
    const metrics::ClusterRunResult lib =
        metrics::run_cluster(chaos.suite(), r.sequence(), r.options());
    expect(digest_cluster(lib.apps, lib.switches, lib.recovery, lib.checkpoint,
                          lib.availability, lib.submitted) == mine.digest &&
               lib.events == mine.events,
           "cluster_chaos differs from metrics::run_cluster");
  }
  {
    ServeMt serve_mt(workers);
    serve_mt.prepare(seed, nullptr);
    const ServePart mine = serve_mt.run_replica(0);
    const serve::ServeResult lib = serve::run_serve(
        serve_mt.suite(), serve_mt.replica(0).config(), make_serve_options());
    bool same = lib.events == mine.events &&
                lib.tenants.size() == mine.tenants.size();
    for (std::size_t i = 0; same && i < lib.tenants.size(); ++i) {
      const serve::TenantResult& a = lib.tenants[i];
      const serve::TenantResult& b = mine.tenants[i];
      same = a.submitted == b.submitted && a.admitted == b.admitted &&
             a.deferred == b.deferred && a.rejected == b.rejected &&
             a.completed == b.completed && a.slo_miss == b.slo_miss;
    }
    expect(same, "serve_mt differs from serve::run_serve");
  }

  // A perturbed simulated result trips the digest and conservation checks.
  {
    BoardSweep sweep(workers);
    sweep.prepare(seed, nullptr);
    std::vector<metrics::RunResult> cells =
        metrics::run_sweep(sweep.suite(), sweep.grid(), workers);
    Outcome clean;
    sweep.collect_results(cells, clean);
    check_pinned("board_sweep", clean);
    expect(clean.errors.empty(), "board_sweep: library sweep digest");

    cells[7].apps[3].completed += 1;
    Outcome shifted;
    sweep.collect_results(cells, shifted);
    check_pinned("board_sweep", shifted);
    expect(shifted.errors.size() == 1 && shifted.failed == shifted.arrivals,
           "a 1 ns completion shift must trip the pinned digest");

    cells[0].apps.pop_back();
    cells[0].completed -= 1;
    Outcome lost;
    sweep.collect_results(cells, lost);
    expect(!lost.errors.empty() &&
               lost.failed ==
                   static_cast<std::int64_t>(sweep.grid()[0].sequence.size()),
           "a missing completion must fail its replica's arrivals");
  }
  return failures;
}

}  // namespace perfbench
