// The benchmark's four workloads. Each builds its inputs from a seed
// (prepare, timed as set-up), runs them through the versaslot library's
// public entry points (execute, timed as the run) and checks the simulated
// results. Given a SpanLog, the same run is traced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one execution of a workload produced.
struct Outcome {
  std::uint64_t digest = 0;   ///< over every simulated result
  std::int64_t arrivals = 0;  ///< operations attempted: simulated app arrivals
  /// Arrivals lost, shed or unfinished at the time limit, plus every
  /// arrival of a replica that failed a check.
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<Metric> simulated;    ///< end-to-end, modelled cluster
  std::vector<Metric> layers;       ///< per-layer, simulated counts
  std::vector<Metric> host;         ///< per-layer host timings (traced)
  std::uint64_t events = 0;         ///< simulator events executed
  std::int64_t items = 0;           ///< runtime items executed
  double run_s = 0;                 ///< host time of the simulation alone
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the simulated system for `seed`.
  virtual void prepare(std::uint64_t seed, SpanLog* log) = 0;
  /// Runs what prepare() built, then collects and checks the results.
  virtual Outcome execute(SpanLog* log) = 0;
  /// Frees what prepare() built, so that a timed prepare() allocates from
  /// scratch and frees nothing.
  virtual void release() = 0;
};

/// The seed whose result digests are pinned.
inline constexpr std::uint64_t kDefaultSeed = 2025;

inline constexpr const char* kWorkloadNames[] = {
    "board_sweep", "serve_mt", "cluster_chaos", "obs_replay"};

/// The metrics::SweepRunner workers every workload runs its replicas on:
/// a fixed count, capped at the host's hardware threads.
[[nodiscard]] int sweep_workers();

/// Null for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// The pinned digest of `name` at kDefaultSeed.
[[nodiscard]] std::uint64_t pinned_digest(const std::string& name);

/// On a digest that differs from the pin, appends an error and fails every
/// arrival of the run.
void check_pinned(const std::string& name, Outcome& outcome);

/// Runs the benchmark's self-checks at kDefaultSeed; returns the failures.
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace perfbench
