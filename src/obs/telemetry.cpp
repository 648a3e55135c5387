#include "obs/telemetry.h"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/trace_hub.h"
#include "util/cli.h"

namespace vs::obs {
namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open metrics output file " + path);
  }
  return out;
}

}  // namespace

Telemetry::Telemetry(sim::SimDuration sample_interval)
    : sampler_(registry_, sample_interval) {}

void Telemetry::write_outputs(const std::string& prefix) const {
  {
    auto out = open_or_throw(prefix + ".prom");
    write_prometheus(registry_, out);
  }
  {
    auto out = open_or_throw(prefix + ".jsonl");
    write_timeseries_jsonl(sampler_, registry_, out);
  }
  {
    auto out = open_or_throw(prefix + ".report.json");
    write_run_report(registry_, info_, &sampler_, out);
  }
}

namespace {

std::string resolve_out(const util::CliArgs* args, const char* flag,
                        const char* env_var) {
  if (args != nullptr && args->has(flag)) return args->get(flag);
  if (const char* env = std::getenv(env_var);
      env != nullptr && *env != '\0') {
    return env;
  }
  return {};
}

}  // namespace

std::string resolve_metrics_out(const util::CliArgs* args) {
  return resolve_out(args, "metrics-out", "VS_METRICS");
}

std::string resolve_trace_out(const util::CliArgs* args) {
  return resolve_out(args, "trace-out", "VS_TRACE");
}

std::string resolve_journal_out(const util::CliArgs* args) {
  return resolve_out(args, "journal-out", "VS_JOURNAL");
}

void write_bench_outputs(const Telemetry& telemetry,
                         const ClusterTraceHub& hub,
                         const std::string& metrics_out,
                         const std::string& trace_out,
                         const std::string& journal_out, std::ostream& log) {
  if (!metrics_out.empty()) {
    telemetry.write_outputs(metrics_out);
    log << "Telemetry written to " << metrics_out
        << ".{prom,jsonl,report.json}\n";
  }
  if (!trace_out.empty()) {
    hub.write_chrome_trace_file(trace_out);
    log << "Chrome trace written to " << trace_out << "\n";
  }
  if (!journal_out.empty()) {
    hub.write_journal_file(journal_out);
    log << "Run journal written to " << journal_out << "\n";
  }
}

}  // namespace vs::obs
