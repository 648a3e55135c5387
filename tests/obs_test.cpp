// Telemetry subsystem tests: registry semantics, histogram math, exporter
// round-trips, sampler determinism, and the pinned guarantee that enabling
// telemetry does not perturb simulation results.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/export_writer.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace_hub.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "test_helpers.h"
#include "util/cli.h"
#include "workload/generator.h"

namespace vs::obs {
namespace {

// ------------------------------------------------------------------ helpers

std::int64_t sum_counters(const MetricsRegistry& registry,
                          const std::string& name) {
  std::int64_t total = 0;
  for (const auto& row : registry.counters()) {
    if (row.name == name) total += row.cell.value();
  }
  return total;
}

double sum_gauges(const MetricsRegistry& registry, const std::string& name) {
  double total = 0;
  for (const auto& row : registry.gauges()) {
    if (row.name == name) total += row.cell.value();
  }
  return total;
}

/// Minimal parser for the flat JSON objects the JSONL exporter emits:
/// `{"key":value,...}` with numeric values and backslash-escaped keys.
/// Returns key/value pairs in order; fails the test on malformed input.
std::vector<std::pair<std::string, double>> parse_flat_json(
    const std::string& line) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t i = 0;
  auto fail = [&](const char* why) {
    ADD_FAILURE() << why << " at offset " << i << " in: " << line;
  };
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    fail("not an object");
    return out;
  }
  i = 1;
  while (i < line.size() - 1) {
    if (line[i] != '"') {
      fail("expected key quote");
      return out;
    }
    ++i;
    std::string key;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        key += line[i + 1];
        i += 2;
      } else {
        key += line[i++];
      }
    }
    ++i;  // closing quote
    if (i >= line.size() || line[i] != ':') {
      fail("expected colon");
      return out;
    }
    ++i;
    std::size_t end = line.find_first_of(",}", i);
    char* parsed_end = nullptr;
    std::string num = line.substr(i, end - i);
    double v = std::strtod(num.c_str(), &parsed_end);
    if (parsed_end == num.c_str() || *parsed_end != '\0') {
      fail("value is not a number");
      return out;
    }
    out.emplace_back(std::move(key), v);
    i = end;
    if (line[i] == ',') ++i;
  }
  return out;
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, RegistrationIsIdempotentWithStableCells) {
  MetricsRegistry registry;
  Counter& a = registry.counter("vs_ops_total", {{"board", "fpga0"}});
  a.add(3);
  Counter& b = registry.counter("vs_ops_total", {{"board", "fpga0"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3);
  // Different labels are a different cell.
  Counter& c = registry.counter("vs_ops_total", {{"board", "fpga1"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.counters().size(), 2u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, FindReturnsNullForUnknownInstrument) {
  MetricsRegistry registry;
  registry.gauge("vs_depth", {{"core", "c0"}}).set(4.0);
  EXPECT_NE(registry.find_gauge("vs_depth", {{"core", "c0"}}), nullptr);
  EXPECT_EQ(registry.find_gauge("vs_depth", {{"core", "c1"}}), nullptr);
  EXPECT_EQ(registry.find_counter("vs_depth", {{"core", "c0"}}), nullptr);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistry, FullNameFollowsPrometheusConventions) {
  EXPECT_EQ(MetricsRegistry::full_name("vs_x_total", {}), "vs_x_total");
  EXPECT_EQ(MetricsRegistry::full_name(
                "vs_x_total", {{"board", "fpga0"}, {"state", "Free"}}),
            "vs_x_total{board=\"fpga0\",state=\"Free\"}");
}

TEST(MetricsHandles, NullHandlesAreNoOps) {
  CounterHandle c;
  GaugeHandle g;
  HistogramHandle h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  c.add();        // must not crash
  g.set(1.0);
  g.add(2.0);
  h.observe(3.0);
}

TEST(MetricsHandles, BoundHandlesUpdateTheirCell) {
  MetricsRegistry registry;
  CounterHandle c(&registry.counter("vs_n_total"));
  GaugeHandle g(&registry.gauge("vs_g"));
  HistogramHandle h(&registry.histogram("vs_h_ms", {1.0, 10.0}));
  EXPECT_TRUE(static_cast<bool>(c));
  c.add(5);
  g.set(2.0);
  g.add(0.5);
  h.observe(4.0);
  EXPECT_EQ(registry.find_counter("vs_n_total")->value(), 5);
  EXPECT_DOUBLE_EQ(registry.find_gauge("vs_g")->value(), 2.5);
  EXPECT_EQ(registry.find_histogram("vs_h_ms")->count(), 1u);
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketsFollowLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);  // == bound -> that bucket (le semantics)
  h.observe(2.5);
  h.observe(9.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5 / 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, QuantileInterpolatesAndClampsToMax) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram h({10.0, 20.0});
  for (int i = 0; i < 8; ++i) h.observe(5.0);
  h.observe(15.0);
  h.observe(99.0);  // overflow
  // p50 lands inside the first bucket (0..10].
  double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  // p99/p100 land in the overflow bucket and resolve to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
}

TEST(Histogram, DefaultMsBoundsAreAscending) {
  auto bounds = default_ms_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------- exporters

// ------------------------------------------------ reference exporters
//
// The straightforward writers the exporters replaced: every field built
// into a temporary std::string (per-character escaping, a fresh key per
// time-series cell) and streamed with operator<<. They are the oracle the
// buffered ExportWriter path must match byte for byte, as ReferenceQueue
// is for the event queue.
namespace ref {

std::string fmt_double(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

std::string fmt_fixed(double v) {
  char buf[64];
  auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string label_escape(const std::string& v) {
  std::string out;
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_block(const Labels& labels, const std::string* le) {
  if (labels.empty() && le == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + label_escape(v) + "\"";
  }
  if (le != nullptr) {
    if (!first) out += ',';
    out += "le=\"" + *le + "\"";
  }
  out += '}';
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(k) + "\":\"" + json_escape(v) + '"';
  }
  return out + '}';
}

std::string prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  std::set<std::string> seen;
  auto type = [&](const std::string& name, const char* kind) {
    if (seen.insert(name).second) {
      out << "# TYPE " << name << ' ' << kind << '\n';
    }
  };
  for (const auto& row : registry.counters()) {
    type(row.name, "counter");
    out << row.name << label_block(row.labels, nullptr) << ' '
        << row.cell.value() << '\n';
  }
  for (const auto& row : registry.gauges()) {
    type(row.name, "gauge");
    out << row.name << label_block(row.labels, nullptr) << ' '
        << fmt_double(row.cell.value()) << '\n';
  }
  for (const auto& row : registry.histograms()) {
    type(row.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < row.cell.bounds().size(); ++i) {
      cumulative += row.cell.bucket_counts()[i];
      std::string le = fmt_double(row.cell.bounds()[i]);
      out << row.name << "_bucket" << label_block(row.labels, &le) << ' '
          << cumulative << '\n';
    }
    std::string inf = "+Inf";
    out << row.name << "_bucket" << label_block(row.labels, &inf) << ' '
        << row.cell.count() << '\n';
    out << row.name << "_sum" << label_block(row.labels, nullptr) << ' '
        << fmt_double(row.cell.sum()) << '\n';
    out << row.name << "_count" << label_block(row.labels, nullptr) << ' '
        << row.cell.count() << '\n';
  }
  return out.str();
}

std::string timeseries(const Sampler& sampler,
                       const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& snap : sampler.snapshots()) {
    std::string line = "{\"t_ms\":" + fmt_double(sim::to_ms(snap.time));
    std::size_t col = 0;
    for (const auto& row : registry.gauges()) {
      if (col >= snap.gauge_count) break;
      line += ",\"" +
              json_escape(MetricsRegistry::full_name(row.name, row.labels)) +
              "\":" + fmt_double(snap.values[col]);
      ++col;
    }
    std::size_t counter_cols = snap.values.size() - snap.gauge_count;
    std::size_t counter_idx = 0;
    for (const auto& row : registry.counters()) {
      if (counter_idx >= counter_cols) break;
      line += ",\"" +
              json_escape(MetricsRegistry::full_name(row.name, row.labels)) +
              "\":" + fmt_double(snap.values[snap.gauge_count + counter_idx]);
      ++counter_idx;
    }
    out << line << "}" << '\n';
  }
  return out.str();
}

double merged_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts,
                       std::uint64_t count, double max, double q) {
  if (count == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (rank < cumulative) {
      if (i >= bounds.size()) return max;
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = bounds[i];
      std::uint64_t into = rank - (cumulative - counts[i]);
      double frac = counts[i] > 1 ? static_cast<double>(into) /
                                        static_cast<double>(counts[i] - 1)
                                  : 1.0;
      return lo + (hi - lo) * frac;
    }
  }
  return max;
}

std::string run_report(const MetricsRegistry& registry, const RunInfo& info,
                       const Sampler* sampler) {
  std::ostringstream out;
  out << "{\n  \"experiment\": \"" << json_escape(info.experiment) << "\",\n";
  out << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : info.config) {
    if (!first) out << ", ";
    first = false;
    out << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
  }
  out << "},\n  \"counters\": [\n";
  first = true;
  for (const auto& row : registry.counters()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << json_labels(row.labels)
        << ", \"value\": " << row.cell.value() << "}";
  }
  out << "\n  ],\n  \"gauges\": [\n";
  first = true;
  for (const auto& row : registry.gauges()) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << json_labels(row.labels)
        << ", \"value\": " << fmt_double(row.cell.value()) << "}";
  }
  out << "\n  ],\n  \"histograms\": [\n";
  first = true;
  for (const auto& row : registry.histograms()) {
    if (!first) out << ",\n";
    first = false;
    const Histogram& h = row.cell;
    out << "    {\"name\": \"" << json_escape(row.name)
        << "\", \"labels\": " << json_labels(row.labels)
        << ", \"count\": " << h.count() << ", \"sum\": " << fmt_double(h.sum())
        << ", \"mean\": " << fmt_double(h.mean())
        << ", \"p50\": " << fmt_double(h.quantile(0.50))
        << ", \"p95\": " << fmt_double(h.quantile(0.95))
        << ", \"p99\": " << fmt_double(h.quantile(0.99))
        << ", \"max\": " << fmt_double(h.max()) << "}";
  }
  out << "\n  ],\n";
  struct PhaseAgg {
    std::string phase;
    const std::vector<double>* bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  std::vector<PhaseAgg> phases;
  for (const auto& row : registry.histograms()) {
    if (row.name != "vs_app_phase_ms") continue;
    std::string phase;
    for (const auto& [k, v] : row.labels) {
      if (k == "phase") phase = v;
    }
    PhaseAgg* agg = nullptr;
    for (PhaseAgg& p : phases) {
      if (p.phase == phase) agg = &p;
    }
    if (agg == nullptr) {
      phases.push_back(PhaseAgg{
          phase, &row.cell.bounds(),
          std::vector<std::uint64_t>(row.cell.bucket_counts().size(), 0)});
      agg = &phases.back();
    }
    const Histogram& h = row.cell;
    for (std::size_t i = 0;
         i < h.bucket_counts().size() && i < agg->counts.size(); ++i) {
      agg->counts[i] += h.bucket_counts()[i];
    }
    agg->count += h.count();
    agg->sum += h.sum();
    agg->max = std::max(agg->max, h.max());
  }
  if (!phases.empty()) {
    out << "  \"phases\": [\n";
    first = true;
    for (const PhaseAgg& p : phases) {
      if (!first) out << ",\n";
      first = false;
      double mean = p.count ? p.sum / static_cast<double>(p.count) : 0.0;
      out << "    {\"phase\": \"" << json_escape(p.phase)
          << "\", \"count\": " << p.count << ", \"sum\": " << fmt_double(p.sum)
          << ", \"mean\": " << fmt_double(mean);
      for (auto [key, q] : {std::pair{"p50", 0.50}, std::pair{"p95", 0.95},
                            std::pair{"p99", 0.99}}) {
        out << ", \"" << key << "\": "
            << fmt_double(
                   merged_quantile(*p.bounds, p.counts, p.count, p.max, q));
      }
      out << ", \"max\": " << fmt_double(p.max) << "}";
    }
    out << "\n  ],\n";
  }
  out << "  \"snapshots\": "
      << (sampler != nullptr ? sampler->snapshots().size() : 0) << "\n}\n";
  return out.str();
}

std::string journal(const ClusterTraceHub& hub) {
  std::ostringstream out;
  for (const JournalRecord* r : hub.merged_journal()) {
    out << "{\"t_ns\":" << r->time
        << ",\"t_ms\":" << fmt_fixed(sim::to_ms(r->time)) << ",\"event\":\""
        << to_string(r->event) << "\",\"board\":\"" << json_escape(r->board)
        << "\"";
    if (r->app >= 0) out << ",\"app\":" << r->app;
    if (!r->spec.empty()) {
      out << ",\"spec\":\"" << json_escape(r->spec) << "\"";
    }
    if (r->flow != 0) out << ",\"flow\":" << r->flow;
    if (!r->detail.empty()) {
      out << ",\"detail\":\"" << json_escape(r->detail) << "\"";
    }
    out << "}\n";
  }
  return out.str();
}

const char* category(sim::SpanKind kind) {
  switch (kind) {
    case sim::SpanKind::kReconfig: return "reconfig";
    case sim::SpanKind::kExec: return "exec";
    case sim::SpanKind::kCoreOp: return "core";
    case sim::SpanKind::kBlocked: return "blocked";
    case sim::SpanKind::kTransfer: return "transfer";
    case sim::SpanKind::kMarker: return "marker";
  }
  return "other";
}

/// The hub's Chrome trace for recorders attached as `attached` (board,
/// recorder) in attach order, nothing sealed.
std::string chrome_trace(
    const ClusterTraceHub& hub,
    const std::vector<std::pair<std::string, const sim::TraceRecorder*>>&
        attached) {
  const std::vector<const FlowPoint*> flows = hub.merged_flows();
  std::vector<std::string> boards;
  std::map<std::string, int> pid;
  for (const auto& [b, rec] : attached) {
    if (pid.emplace(b, static_cast<int>(pid.size()) + 1).second) {
      boards.push_back(b);
    }
  }
  const std::vector<std::string> span_boards = boards;
  for (const FlowPoint* f : flows) {
    if (pid.emplace(f->board, static_cast<int>(pid.size()) + 1).second) {
      boards.push_back(f->board);
    }
  }
  std::map<std::string, std::map<std::string, int>> lane_tid;
  std::map<std::string, std::vector<std::string>> lane_order;
  auto intern_lane = [&](const std::string& board, const std::string& lane) {
    auto& tids = lane_tid[board];
    auto [it, fresh] = tids.emplace(lane, static_cast<int>(tids.size()) + 1);
    if (fresh) lane_order[board].push_back(lane);
    return it->second;
  };
  struct Placed {
    const sim::Span* span;
    int pid;
    int tid;
  };
  std::vector<Placed> placed;
  for (const std::string& b : span_boards) {
    for (const auto& [board, rec] : attached) {
      if (board != b) continue;
      for (const sim::Span& s : rec->spans()) {
        placed.push_back(Placed{&s, pid[b], intern_lane(b, s.lane)});
      }
    }
  }
  for (const FlowPoint* f : flows) intern_lane(f->board, f->lane);
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placed& a, const Placed& b) {
                     if (a.span->start != b.span->start) {
                       return a.span->start < b.span->start;
                     }
                     return a.pid < b.pid;
                   });
  std::ostringstream out;
  out << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const std::string& b : boards) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid[b]
        << ",\"args\":{\"name\":\"" << json_escape(b) << "\"}}";
    for (const std::string& lane : lane_order[b]) {
      sep();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid[b]
          << ",\"tid\":" << lane_tid[b][lane] << ",\"args\":{\"name\":\""
          << json_escape(lane) << "\"}}";
    }
  }
  for (const Placed& p : placed) {
    sep();
    out << "{\"name\":\"" << json_escape(p.span->label) << "\",\"cat\":\""
        << category(p.span->kind) << "\",\"ph\":\"X\",\"pid\":" << p.pid
        << ",\"tid\":" << p.tid << ",\"ts\":"
        << fmt_fixed(static_cast<double>(p.span->start) / 1e3) << ",\"dur\":"
        << fmt_fixed(static_cast<double>(p.span->end - p.span->start) / 1e3)
        << "}";
  }
  for (const FlowPoint* fp : flows) {
    const FlowPoint& f = *fp;
    const char* ph = f.phase == FlowPhase::kStart ? "s"
                     : f.phase == FlowPhase::kEnd ? "f"
                                                  : "t";
    sep();
    out << "{\"name\":\"" << json_escape(f.name)
        << "\",\"cat\":\"flow\",\"ph\":\"" << ph << "\",\"id\":" << f.id
        << ",\"pid\":" << pid[f.board]
        << ",\"tid\":" << lane_tid[f.board][f.lane]
        << ",\"ts\":" << fmt_fixed(static_cast<double>(f.time) / 1e3);
    if (f.phase == FlowPhase::kEnd) out << ",\"bp\":\"e\"";
    out << "}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace ref

/// Strings that exercise every escaping path: `"`, `\`, \n, \r, \t and
/// each other control byte 0x01-0x1f, plus 0x7f and UTF-8 bytes >= 0x80,
/// which pass through; escapes at the start, middle and end.
std::vector<std::string> hostile_strings() {
  std::string controls;
  for (int c = 1; c < 0x20; ++c) controls += static_cast<char>(c);
  return {"plain",
          "\"start",
          "mid\\dle",
          "end\n",
          "\r\t\"both ends\\",
          controls,
          "del\x7f",
          "utf8 \xc3\xa9\xe2\x82\xac \xf0\x9f\x9a\x80 \xff\x80",
          std::string("nul\0in", 6),
          ""};
}

/// A registry whose labels are hostile and whose values cover the
/// formatting edges: -0.0, denormals, 1e-300 .. 1e300, infinities, NaN and
/// the int64 extremes through the integer path.
void fill_hostile_registry(MetricsRegistry& registry) {
  const std::vector<std::string> strings = hostile_strings();
  const double values[] = {-0.0,
                           0.0,
                           1e-300,
                           1e300,
                           0.1,
                           -2.5,
                           300000.0,
                           1e5,
                           123456789.125,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  const std::int64_t counts[] = {0, 1, -1, 1000000,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (std::size_t i = 0; i < strings.size(); ++i) {
    Labels labels = {{"board", strings[i]},
                     {strings[(i + 1) % strings.size()], "v"}};
    registry.gauge("vs_g", labels).set(values[i % std::size(values)]);
    registry.counter("vs_c_total", labels).add(counts[i % std::size(counts)]);
    Histogram& h =
        registry.histogram("vs_h_ms", {1e-300, 0.5, 1e5, 1e300}, labels);
    for (std::size_t k = 0; k <= i; ++k) h.observe(values[(i + k) % 9]);
  }
  for (std::size_t i = 0; i < std::size(values); ++i) {
    registry.gauge("vs_value", {{"i", std::to_string(i)}}).set(values[i]);
  }
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    registry.counter("vs_count_total", {{"i", std::to_string(i)}})
        .add(counts[i]);
  }
}

TEST(ExportReference, PrometheusMatchesTheReferenceWriter) {
  MetricsRegistry registry;
  fill_hostile_registry(registry);
  EXPECT_EQ(test::exported(
                [&](std::ostream& out) { write_prometheus(registry, out); }),
            ref::prometheus(registry));
}

TEST(ExportReference, TimeseriesMatchesIncludingNarrowEarlySnapshots) {
  MetricsRegistry registry;
  Sampler sampler(registry, sim::ms(10));
  sampler.sample_now(0);  // no columns at all
  registry.gauge("vs_first", {{"board", "\"q\""}}).set(1e300);
  sampler.sample_now(sim::us(1));
  registry.counter("vs_early_total").add(3);
  sampler.sample_now(sim::ms(5));
  // Gauges and counters registered after the first snapshots make those
  // snapshots narrower than the later ones.
  fill_hostile_registry(registry);
  for (int i = 0; i < 3; ++i) sampler.sample_now(sim::ms(10 * (i + 1)));
  registry.gauge("vs_late").set(-0.0);
  registry.counter("vs_late_total").add(-5);
  sampler.sample_now(sim::seconds(3600.0));
  EXPECT_EQ(test::exported([&](std::ostream& out) {
              write_timeseries_jsonl(sampler, registry, out);
            }),
            ref::timeseries(sampler, registry));
}

TEST(ExportReference, RunReportMatchesIncludingThePhaseTable) {
  MetricsRegistry registry;
  fill_hostile_registry(registry);
  // Two boards' phase histograms merge into one table row per phase.
  for (const char* board : {"b0", "b\"1"}) {
    for (const char* phase : {"queued", "pr\\load", "exec\n"}) {
      Histogram& h = registry.histogram("vs_app_phase_ms", default_ms_bounds(),
                                        {{"board", board}, {"phase", phase}});
      for (int k = 0; k < 7; ++k) h.observe(0.3 * k * (board[1] + 1));
    }
  }
  Sampler sampler(registry, sim::ms(10));
  sampler.sample_now(sim::ms(1));
  RunInfo info;
  info.experiment = "ref\t\"test\"";
  for (const std::string& s : hostile_strings()) info.config.emplace_back(s, s);
  EXPECT_EQ(test::exported([&](std::ostream& out) {
              write_run_report(registry, info, &sampler, out);
            }),
            ref::run_report(registry, info, &sampler));
  EXPECT_EQ(test::exported([&](std::ostream& out) {
              write_run_report(registry, info, nullptr, out);
            }),
            ref::run_report(registry, info, nullptr));
}

TEST(ExportReference, JournalMatchesTheReferenceWriter) {
  ClusterTraceHub hub;
  hub.enable_journal();
  const std::vector<std::string> strings = hostile_strings();
  TraceChannel& a = hub.channel("a");
  TraceChannel& b = hub.channel("b");
  for (std::size_t i = 0; i < strings.size(); ++i) {
    TraceChannel& ch = i % 2 ? a : b;
    // Equal times across channels exercise the stable merge.
    const sim::SimTime t = static_cast<sim::SimTime>(i / 3) * 1'500'001;
    ch.journal(t, static_cast<JournalEvent>(i % 10), strings[i],
               static_cast<int>(i) - 2, strings[(i + 3) % strings.size()],
               i % 3 ? 0 : (std::uint64_t{1} << 40) + i,
               strings[(i + 5) % strings.size()]);
  }
  a.journal(300'000'000'000, JournalEvent::kCrash, "late", -1);
  EXPECT_EQ(test::exported([&](std::ostream& out) { hub.write_journal(out); }),
            ref::journal(hub));
}

TEST(ExportReference, ChromeTraceMatchesTheReferenceWriter) {
  ClusterTraceHub hub;
  hub.enable_trace();
  const std::vector<std::string> strings = hostile_strings();
  sim::TraceRecorder r0, r1, r0_again;
  for (sim::TraceRecorder* r : {&r0, &r1, &r0_again}) r->enable();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    const sim::SimTime start = static_cast<sim::SimTime>(i % 4) * 300'000'000;
    r0.add(start, start + 1, strings[i], strings[(i + 1) % strings.size()],
           static_cast<sim::SpanKind>(i % 6));
    r1.add(start, start + 33'527'312'345, "slot " + strings[i], "x",
           sim::SpanKind::kExec);
  }
  r0_again.add(7, 9, "core", "epoch 2", sim::SpanKind::kCoreOp);
  const std::vector<std::pair<std::string, const sim::TraceRecorder*>>
      attached = {{"b\"0", &r0}, {"b1\n", &r1}, {"b\"0", &r0_again}};
  for (const auto& [board, rec] : attached) hub.attach_spans(board, rec);
  TraceChannel& ch = hub.channel("cluster");
  for (std::size_t i = 0; i < strings.size(); ++i) {
    ch.flow(ch.new_flow_id(), static_cast<FlowPhase>(i % 3),
            static_cast<sim::SimTime>(i) * 100'000'000,
            i % 2 ? "b\"0" : strings[i], strings[(i + 2) % strings.size()],
            strings[(i + 4) % strings.size()]);
  }
  EXPECT_EQ(
      test::exported([&](std::ostream& out) { hub.write_chrome_trace(out); }),
      ref::chrome_trace(hub, attached));
}

/// Stream buffer recording the size of every write the writer makes.
class WriteSizes final : public std::streambuf {
 public:
  std::vector<std::streamsize> sizes;
  std::string bytes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    sizes.push_back(n);
    bytes.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      sizes.push_back(1);
      bytes += traits_type::to_char_type(c);
    }
    return traits_type::not_eof(c);
  }
};

TEST(ExportWriter, HandsBytesToTheStreamInBoundedChunks) {
  MetricsRegistry registry;
  Sampler sampler(registry, sim::ms(1));
  for (int i = 0; i < 40; ++i) {
    registry.gauge("vs_depth", {{"board", "fpga" + std::to_string(i)}})
        .set(0.1 * i);
  }
  for (int i = 0; i < 2000; ++i) sampler.sample_now(sim::ms(i));
  WriteSizes sink;
  std::ostream out(&sink);
  write_timeseries_jsonl(sampler, registry, out);
  const std::string expected = ref::timeseries(sampler, registry);
  ASSERT_GT(expected.size(), 20 * ExportWriter::kChunk);
  EXPECT_EQ(sink.bytes, expected);
  // Every write is at most one chunk: the export is never held whole.
  EXPECT_GE(sink.sizes.size(), expected.size() / ExportWriter::kChunk);
  for (std::streamsize n : sink.sizes) {
    EXPECT_LE(static_cast<std::size_t>(n), ExportWriter::kChunk);
  }
}

TEST(ExportWriter, StringsAndNumbersAcrossChunkBoundariesMatch) {
  // A label longer than a chunk, with escapes in it, takes the writer's
  // direct path; the numbers around it straddle chunk boundaries.
  std::string huge;
  for (int i = 0; i < 3 * static_cast<int>(ExportWriter::kChunk) / 7; ++i) {
    huge += i % 97 ? "abcdef" : "\"\\\n\x01";
  }
  ClusterTraceHub hub;
  hub.enable_trace();
  hub.enable_journal();
  sim::TraceRecorder rec;
  rec.enable();
  for (sim::SimTime i = 0; i < 5000; ++i) {
    rec.add(i * 1'234'567, i * 1'234'567 + 89, "lane", i % 1000 ? "s" : huge,
            sim::SpanKind::kExec);
  }
  hub.attach_spans("b0", &rec);
  TraceChannel& ch = hub.channel("b0");
  for (int i = 0; i < 5000; ++i) {
    ch.journal(sim::SimTime{i} * 7'654'321, JournalEvent::kBind, "b0", i, "spec",
               static_cast<std::uint64_t>(i), i % 1000 ? "d" : huge);
  }
  EXPECT_EQ(
      test::exported([&](std::ostream& out) { hub.write_chrome_trace(out); }),
      ref::chrome_trace(hub, {{"b0", &rec}}));
  EXPECT_EQ(test::exported([&](std::ostream& out) { hub.write_journal(out); }),
            ref::journal(hub));
}


TEST(PrometheusExport, LinesParseAndHistogramSeriesAreConsistent) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total", {{"board", "fpga0"}}).add(7);
  registry.counter("vs_ops_total", {{"board", "fpga1"}}).add(2);
  registry.gauge("vs_depth").set(3.5);
  Histogram& h = registry.histogram("vs_lat_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  std::string text = test::exported(
      [&](std::ostream& out) { write_prometheus(registry, out); });
  // Every non-comment line must be `name{labels} value` with a numeric
  // value; `# TYPE` appears exactly once per metric name.
  std::regex sample_re(
      R"(^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.+eEinf]+$)");
  int type_ops = 0, bucket_lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE", 0) == 0) {
      if (line.find(" vs_ops_total ") != std::string::npos) ++type_ops;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    if (line.rfind("vs_lat_ms_bucket", 0) == 0) ++bucket_lines;
  }
  EXPECT_EQ(type_ops, 1);
  EXPECT_EQ(bucket_lines, 3);  // le="1", le="10", le="+Inf"
  EXPECT_NE(text.find("vs_ops_total{board=\"fpga0\"} 7"), std::string::npos);
  EXPECT_NE(text.find("vs_depth 3.5"), std::string::npos);
  // The +Inf bucket is cumulative == _count.
  EXPECT_NE(text.find("vs_lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("vs_lat_ms_count 3"), std::string::npos);
}

TEST(JsonlExport, SnapshotsRoundTripIncludingNarrowEarlyRows) {
  MetricsRegistry registry;
  Sampler sampler(registry, sim::ms(10));
  Gauge& g = registry.gauge("vs_g", {{"board", "fpga0"}});
  g.set(1.5);
  sampler.sample_now(sim::ms(10));  // narrow: one gauge, no counters
  registry.counter("vs_c_total").add(4);
  g.set(2.5);
  sampler.sample_now(sim::ms(20));  // wide: gauge + counter

  std::string jsonl = test::exported([&](std::ostream& out) {
    write_timeseries_jsonl(sampler, registry, out);
  });
  std::istringstream in(jsonl);
  std::string line;
  std::vector<std::vector<std::pair<std::string, double>>> rows;
  while (std::getline(in, line)) rows.push_back(parse_flat_json(line));
  ASSERT_EQ(rows.size(), 2u);

  ASSERT_EQ(rows[0].size(), 2u);  // t_ms + the one gauge
  EXPECT_EQ(rows[0][0].first, "t_ms");
  EXPECT_DOUBLE_EQ(rows[0][0].second, 10.0);
  EXPECT_EQ(rows[0][1].first, "vs_g{board=\"fpga0\"}");
  EXPECT_DOUBLE_EQ(rows[0][1].second, 1.5);

  ASSERT_EQ(rows[1].size(), 3u);  // t_ms + gauge + counter
  EXPECT_DOUBLE_EQ(rows[1][0].second, 20.0);
  EXPECT_DOUBLE_EQ(rows[1][1].second, 2.5);
  EXPECT_EQ(rows[1][2].first, "vs_c_total");
  EXPECT_DOUBLE_EQ(rows[1][2].second, 4.0);
}

TEST(RunReportExport, ContainsConfigEchoAndHistogramPercentiles) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total").add(11);
  registry.histogram("vs_lat_ms", {1.0, 10.0}).observe(5.0);
  RunInfo info;
  info.experiment = "unit";
  info.config = {{"seed", "2025"}, {"note", "a\"b\\c"}};

  std::string json = test::exported([&](std::ostream& out) {
    write_run_report(registry, info, nullptr, out);
  });
  // Structural sanity: balanced braces/brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"2025\""), std::string::npos);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("vs_ops_total"), std::string::npos);
  for (const char* key : {"\"count\":", "\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  auto escaped = [](const std::string& s) {
    std::string out;
    append_escaped(out, s);
    // The writer and the key builder share one escaping.
    EXPECT_EQ(test::exported([&](std::ostream& os) {
                ExportWriter(os).escaped(s).flush();
              }),
              out);
    return out;
  };
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(escaped(std::string(1, '\x01')), "\\u0001");
}

TEST(Dashboard, RendersEverySection) {
  MetricsRegistry registry;
  registry.counter("vs_ops_total", {{"board", "fpga0"}}).add(42);
  registry.gauge("vs_depth").set(2.0);
  Histogram& h = registry.histogram("vs_lat_ms", default_ms_bounds());
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i));
  std::string dash = format_dashboard(registry, "unit test");
  EXPECT_NE(dash.find("unit test"), std::string::npos);
  EXPECT_NE(dash.find("vs_ops_total{board=\"fpga0\"}"), std::string::npos);
  EXPECT_NE(dash.find("42"), std::string::npos);
  EXPECT_NE(dash.find("vs_depth"), std::string::npos);
  EXPECT_NE(dash.find("vs_lat_ms"), std::string::npos);
}

// ------------------------------------------------------------------ sampler

TEST(Sampler, TicksAtFixedCadenceAndLetsTheSimulatorDrain) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("vs_g");
  Sampler sampler(registry, sim::ms(50));
  sim::Simulator sim;
  sim.schedule(sim::ms(10), [&] { g.set(1.0); });
  sim.schedule(sim::ms(220), [&] { g.set(2.0); });
  sampler.start(sim);
  sim.run();
  EXPECT_TRUE(sim.idle());  // the sampler must not keep the queue alive

  // Ticks at 50/100/150/200 while the 220 ms event is pending, then one
  // final tick at 250 that finds the queue idle and does not re-arm.
  ASSERT_EQ(sampler.snapshots().size(), 5u);
  const auto& snaps = sampler.snapshots();
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].time, sim::ms(50) * static_cast<sim::SimTime>(i + 1));
    ASSERT_EQ(snaps[i].gauge_count, 1u);
    ASSERT_EQ(snaps[i].values.size(), 1u);
  }
  EXPECT_DOUBLE_EQ(snaps[0].values[0], 1.0);   // after the 10 ms event
  EXPECT_DOUBLE_EQ(snaps[4].values[0], 2.0);   // after the 220 ms event
}

// --------------------------------------------- determinism + instrumentation

TEST(TelemetryDeterminism, SingleBoardResultsAreBitIdenticalWithMetricsOn) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 15;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  metrics::RunResult plain = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq);

  obs::Telemetry telemetry;
  metrics::RunOptions opts;
  opts.telemetry = &telemetry;
  metrics::RunResult instrumented = metrics::run_single_board(
      metrics::SystemKind::kVersaBigLittle, suite, seq, opts);

  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.makespan, plain.makespan);
  EXPECT_EQ(instrumented.completed, plain.completed);
  EXPECT_EQ(instrumented.counters.items_executed,
            plain.counters.items_executed);
  // And the sampler actually ran.
  EXPECT_GT(telemetry.sampler().snapshots().size(), 0u);
  // Slot-state gauges partition the board's slots: their sum is a whole
  // number of slots at all times, including at end of run.
  double slots = sum_gauges(telemetry.registry(), "vs_slot_state_count");
  EXPECT_GT(slots, 0.0);
  EXPECT_DOUBLE_EQ(slots, std::floor(slots));
}

TEST(TelemetryDeterminism, ClusterResultsAreBitIdenticalWithMetricsOn) {
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 30;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  metrics::ClusterRunResult plain =
      metrics::run_cluster(suite, seq, cluster::ClusterOptions{});

  obs::Telemetry telemetry;
  metrics::ClusterRunResult instrumented = metrics::run_cluster(
      suite, seq, cluster::ClusterOptions{}, sim::seconds(36000.0),
      &telemetry);

  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  ASSERT_EQ(instrumented.dswitch_trace.size(), plain.dswitch_trace.size());
  for (std::size_t i = 0; i < plain.dswitch_trace.size(); ++i) {
    EXPECT_EQ(instrumented.dswitch_trace[i].time,
              plain.dswitch_trace[i].time);
    EXPECT_EQ(instrumented.dswitch_trace[i].value,
              plain.dswitch_trace[i].value);
  }
  ASSERT_EQ(instrumented.switches.size(), plain.switches.size());
  for (std::size_t i = 0; i < plain.switches.size(); ++i) {
    EXPECT_EQ(instrumented.switches[i].time, plain.switches[i].time);
    EXPECT_EQ(instrumented.switches[i].overhead, plain.switches[i].overhead);
  }
}

TEST(TelemetryDeterminism, FaultyClusterResultsAreBitIdenticalWithMetricsOn) {
  // Same guarantee under an active fault plane: attaching telemetry to a
  // run with crashes, flaps and SEUs must not perturb a single event.
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 25;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  cluster::ClusterOptions options;
  options.faults.seed = 77;
  options.faults.hazards.board_crash_per_s = 0.05;
  options.faults.hazards.link_flap_per_s = 0.05;
  options.faults.hazards.slot_seu_per_s = 0.1;
  options.faults.horizon = sim::seconds(60.0);
  options.faults.timeline.push_back(
      {sim::seconds(1.0), faults::FaultKind::kBoardCrash, 0, -1});

  metrics::ClusterRunResult plain = metrics::run_cluster(suite, seq, options);

  obs::Telemetry telemetry;
  metrics::ClusterRunResult instrumented = metrics::run_cluster(
      suite, seq, options, sim::seconds(36000.0), &telemetry);

  ASSERT_GT(plain.recovery.boards_crashed, 0);
  ASSERT_EQ(instrumented.response_ms.size(), plain.response_ms.size());
  for (std::size_t i = 0; i < plain.response_ms.size(); ++i) {
    EXPECT_EQ(instrumented.response_ms[i], plain.response_ms[i]) << i;
  }
  EXPECT_EQ(instrumented.recovery.boards_crashed,
            plain.recovery.boards_crashed);
  EXPECT_EQ(instrumented.recovery.boards_rebooted,
            plain.recovery.boards_rebooted);
  EXPECT_EQ(instrumented.recovery.link_flaps, plain.recovery.link_flaps);
  EXPECT_EQ(instrumented.recovery.slot_seus, plain.recovery.slot_seus);
  EXPECT_EQ(instrumented.recovery.apps_evacuated,
            plain.recovery.apps_evacuated);
  EXPECT_EQ(instrumented.recovery.apps_restarted,
            plain.recovery.apps_restarted);
  EXPECT_EQ(instrumented.recovery.mttr_total, plain.recovery.mttr_total);
  EXPECT_EQ(instrumented.availability, plain.availability);
  // The fault instruments resolved and counted.
  EXPECT_GT(sum_counters(telemetry.registry(), "vs_faults_injected_total"),
            0);
}

TEST(TelemetryInstrumentation, ClusterRunPopulatesAllInstrumentFamilies) {
  // The fig5 stress cell: every instrument family — PCAP, cores, slots,
  // D_switch policy loop, Aurora link — must end the run non-zero
  // (acceptance criterion for the run report).
  fpga::BoardParams params;
  auto suite = apps::make_suite(params);
  workload::WorkloadConfig config;
  config.congestion = workload::Congestion::kStress;
  config.apps_per_sequence = 50;
  util::Rng rng(2025);
  auto seq = workload::generate_sequence(config, rng);

  obs::Telemetry telemetry;
  auto result = metrics::run_cluster(suite, seq, cluster::ClusterOptions{},
                                     sim::seconds(36000.0), &telemetry);
  ASSERT_GT(result.completed, 0);
  ASSERT_FALSE(result.switches.empty());  // guarantees Aurora traffic

  const MetricsRegistry& registry = telemetry.registry();
  EXPECT_GT(sum_counters(registry, "vs_pcap_loads_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_pcap_bytes_loaded_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_core_ops_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_runtime_items_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_dswitch_evaluations_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_dswitch_switches_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_aurora_transfers_total"), 0);
  EXPECT_GT(sum_counters(registry, "vs_aurora_bytes_total"), 0);
  bool slot_gauges = false;
  for (const auto& row : registry.gauges()) {
    if (row.name == "vs_slot_state_count") slot_gauges = true;
  }
  EXPECT_TRUE(slot_gauges);

  // The run report surfaces all of them.
  std::string report = test::exported([&](std::ostream& out) {
    write_run_report(registry, telemetry.info(), &telemetry.sampler(), out);
  });
  for (const char* name :
       {"vs_pcap_loads_total", "vs_core_ops_total", "vs_slot_state_count",
        "vs_dswitch_evaluations_total", "vs_aurora_transfers_total"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(Telemetry, WriteOutputsThrowsOnUnopenablePath) {
  Telemetry telemetry;
  EXPECT_THROW(telemetry.write_outputs("/nonexistent-dir/metrics"),
               std::runtime_error);
}

TEST(Telemetry, ResolveMetricsOutPrefersFlagThenEnv) {
  const char* argv[] = {"prog", "--metrics-out", "fromflag"};
  util::CliArgs args(3, argv);
  ::setenv("VS_METRICS", "fromenv", 1);
  EXPECT_EQ(resolve_metrics_out(&args), "fromflag");
  util::CliArgs no_flag(1, argv);
  EXPECT_EQ(resolve_metrics_out(&no_flag), "fromenv");
  ::unsetenv("VS_METRICS");
  EXPECT_EQ(resolve_metrics_out(&no_flag), "");
  EXPECT_EQ(resolve_metrics_out(nullptr), "");
}

}  // namespace
}  // namespace vs::obs
