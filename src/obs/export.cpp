#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/export_writer.h"
#include "sim/time.h"

namespace vs::obs {
namespace {

/// Prometheus label-value escaping per the text exposition format: inside
/// a quoted label value, backslash, double quote and newline must be
/// escaped (and nothing else).
void label_escape(ExportWriter& w, std::string_view v) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char* esc = v[i] == '\\' ? "\\\\"
                      : v[i] == '"'  ? "\\\""
                      : v[i] == '\n' ? "\\n"
                                     : nullptr;
    if (esc == nullptr) continue;
    w.raw(v.substr(run, i - run)).raw(esc);
    run = i + 1;
  }
  w.raw(v.substr(run));
}

/// Prometheus label pairs `{k="v",...` without the closing brace; writes
/// nothing when there are no labels.
void label_pairs(ExportWriter& w, const Labels& labels) {
  char sep = '{';
  for (const auto& [k, v] : labels) {
    w.raw(sep).raw(k).raw("=\"");
    label_escape(w, v);
    w.raw('"');
    sep = ',';
  }
}

/// Prometheus label block `{k="v",...}`; nothing when there are no labels.
void label_block(ExportWriter& w, const Labels& labels) {
  if (labels.empty()) return;
  label_pairs(w, labels);
  w.raw('}');
}

/// Opens a histogram bucket's label block up to the `le` value.
void bucket_labels(ExportWriter& w, const Labels& labels) {
  label_pairs(w, labels);
  w.raw(labels.empty() ? "{le=\"" : ",le=\"");
}

/// Emits `# TYPE` once per metric name, in first-appearance order.
void emit_type(ExportWriter& w, std::set<std::string>& seen,
               const std::string& name, const char* type) {
  if (seen.insert(name).second) {
    w.raw("# TYPE ").raw(name).raw(' ').raw(type).raw('\n');
  }
}

/// Quantile over merged histogram buckets, same estimator as
/// Histogram::quantile (linear interpolation inside the containing bucket,
/// overflow resolves to the observed maximum).
double merged_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts,
                       std::uint64_t count, double max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (rank < cumulative) {
      if (i >= bounds.size()) return max;  // overflow bucket
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

/// JSON object of label pairs, `{"k":"v",...}`.
void json_labels(ExportWriter& w, const Labels& labels) {
  w.raw('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) w.raw(',');
    first = false;
    w.raw('"').escaped(k).raw("\":\"").escaped(v).raw('"');
  }
  w.raw('}');
}

/// Each row's time-series key `,"name{labels}":`, JSON-escaped.
template <typename Rows>
std::vector<std::string> column_keys(const Rows& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) {
    std::string key = ",\"";
    append_escaped(key, MetricsRegistry::full_name(row.name, row.labels));
    key += "\":";
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace

void write_prometheus(const MetricsRegistry& registry, std::ostream& out) {
  ExportWriter w(out);
  std::set<std::string> seen;
  for (const auto& row : registry.counters()) {
    emit_type(w, seen, row.name, "counter");
    w.raw(row.name);
    label_block(w, row.labels);
    w.raw(' ').integer(row.cell.value()).raw('\n');
  }
  for (const auto& row : registry.gauges()) {
    emit_type(w, seen, row.name, "gauge");
    w.raw(row.name);
    label_block(w, row.labels);
    w.raw(' ').number(row.cell.value()).raw('\n');
  }
  for (const auto& row : registry.histograms()) {
    emit_type(w, seen, row.name, "histogram");
    const auto& bounds = row.cell.bounds();
    const auto& counts = row.cell.bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      w.raw(row.name).raw("_bucket");
      bucket_labels(w, row.labels);
      w.number(bounds[i]).raw("\"} ").integer(cumulative).raw('\n');
    }
    w.raw(row.name).raw("_bucket");
    bucket_labels(w, row.labels);
    w.raw("+Inf\"} ").integer(row.cell.count()).raw('\n');
    w.raw(row.name).raw("_sum");
    label_block(w, row.labels);
    w.raw(' ').number(row.cell.sum()).raw('\n');
    w.raw(row.name).raw("_count");
    label_block(w, row.labels);
    w.raw(' ').integer(row.cell.count()).raw('\n');
  }
  w.flush();
}

void write_timeseries_jsonl(const Sampler& sampler,
                            const MetricsRegistry& registry,
                            std::ostream& out) {
  // Gauges first, then counters — the order sample_now() recorded them.
  // Keys are built once per export, not once per snapshot.
  const std::vector<std::string> gauge_keys = column_keys(registry.gauges());
  const std::vector<std::string> counter_keys =
      column_keys(registry.counters());
  ExportWriter w(out);
  for (const auto& snap : sampler.snapshots()) {
    w.raw("{\"t_ms\":").number(sim::to_ms(snap.time));
    // A snapshot taken before later registrations is narrower; only emit
    // the columns it actually has.
    const std::size_t gauges = std::min(snap.gauge_count, gauge_keys.size());
    for (std::size_t i = 0; i < gauges; ++i) {
      w.raw(gauge_keys[i]).number(snap.values[i]);
    }
    const std::size_t counters = std::min(
        snap.values.size() - snap.gauge_count, counter_keys.size());
    for (std::size_t i = 0; i < counters; ++i) {
      w.raw(counter_keys[i]).number(snap.values[snap.gauge_count + i]);
    }
    w.raw("}\n");
  }
  w.flush();
}

void write_run_report(const MetricsRegistry& registry, const RunInfo& info,
                      const Sampler* sampler, std::ostream& out) {
  ExportWriter w(out);
  w.raw("{\n  \"experiment\": \"").escaped(info.experiment).raw("\",\n");
  w.raw("  \"config\": {");
  bool first = true;
  for (const auto& [k, v] : info.config) {
    if (!first) w.raw(", ");
    first = false;
    w.raw('"').escaped(k).raw("\": \"").escaped(v).raw('"');
  }
  w.raw("},\n");

  w.raw("  \"counters\": [\n");
  first = true;
  for (const auto& row : registry.counters()) {
    if (!first) w.raw(",\n");
    first = false;
    w.raw("    {\"name\": \"").escaped(row.name).raw("\", \"labels\": ");
    json_labels(w, row.labels);
    w.raw(", \"value\": ").integer(row.cell.value()).raw('}');
  }
  w.raw("\n  ],\n");

  w.raw("  \"gauges\": [\n");
  first = true;
  for (const auto& row : registry.gauges()) {
    if (!first) w.raw(",\n");
    first = false;
    w.raw("    {\"name\": \"").escaped(row.name).raw("\", \"labels\": ");
    json_labels(w, row.labels);
    w.raw(", \"value\": ").number(row.cell.value()).raw('}');
  }
  w.raw("\n  ],\n");

  w.raw("  \"histograms\": [\n");
  first = true;
  for (const auto& row : registry.histograms()) {
    if (!first) w.raw(",\n");
    first = false;
    const Histogram& h = row.cell;
    w.raw("    {\"name\": \"").escaped(row.name).raw("\", \"labels\": ");
    json_labels(w, row.labels);
    w.raw(", \"count\": ").integer(h.count());
    w.raw(", \"sum\": ").number(h.sum());
    w.raw(", \"mean\": ").number(h.mean());
    w.raw(", \"p50\": ").number(h.quantile(0.50));
    w.raw(", \"p95\": ").number(h.quantile(0.95));
    w.raw(", \"p99\": ").number(h.quantile(0.99));
    w.raw(", \"max\": ").number(h.max()).raw('}');
  }
  w.raw("\n  ],\n");

  // Per-phase response-time breakdown (PR 8): vs_app_phase_ms rows merged
  // across boards, one table row per phase label in first-appearance order.
  // Emitted only when phase accounting registered its histograms, so every
  // phase-free report stays byte-identical.
  struct PhaseAgg {
    std::string phase;
    const std::vector<double>* bounds = nullptr;
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
      phases.push_back(PhaseAgg{phase,
                                &row.cell.bounds(),
                                std::vector<std::uint64_t>(
                                    row.cell.bucket_counts().size(), 0),
                                0, 0.0, 0.0});
      agg = &phases.back();
    }
    const Histogram& h = row.cell;
    // Boards register vs_app_phase_ms with identical bounds; merging is a
    // per-bucket sum.
    for (std::size_t i = 0;
         i < h.bucket_counts().size() && i < agg->counts.size(); ++i) {
      agg->counts[i] += h.bucket_counts()[i];
    }
    agg->count += h.count();
    agg->sum += h.sum();
    agg->max = std::max(agg->max, h.max());
  }
  if (!phases.empty()) {
    w.raw("  \"phases\": [\n");
    first = true;
    for (const PhaseAgg& p : phases) {
      if (!first) w.raw(",\n");
      first = false;
      double mean = p.count ? p.sum / static_cast<double>(p.count) : 0.0;
      auto quantile = [&p](double q) {
        return merged_quantile(*p.bounds, p.counts, p.count, p.max, q);
      };
      w.raw("    {\"phase\": \"").escaped(p.phase).raw('"');
      w.raw(", \"count\": ").integer(p.count);
      w.raw(", \"sum\": ").number(p.sum);
      w.raw(", \"mean\": ").number(mean);
      w.raw(", \"p50\": ").number(quantile(0.50));
      w.raw(", \"p95\": ").number(quantile(0.95));
      w.raw(", \"p99\": ").number(quantile(0.99));
      w.raw(", \"max\": ").number(p.max).raw('}');
    }
    w.raw("\n  ],\n");
  }

  w.raw("  \"snapshots\": ")
      .integer(sampler != nullptr ? sampler->snapshots().size() : 0)
      .raw("\n}\n");
  w.flush();
}

std::string format_dashboard(const MetricsRegistry& registry,
                             const std::string& title) {
  std::ostringstream out;
  ExportWriter w(out);
  const std::string rule(64, '=');
  w.raw(rule).raw("\n  ").raw(title).raw('\n').raw(rule).raw('\n');

  auto name_width = [&registry] {
    std::size_t width = 0;
    for (const auto& row : registry.counters()) {
      width = std::max(
          width, MetricsRegistry::full_name(row.name, row.labels).size());
    }
    for (const auto& row : registry.gauges()) {
      width = std::max(
          width, MetricsRegistry::full_name(row.name, row.labels).size());
    }
    for (const auto& row : registry.histograms()) {
      width = std::max(
          width, MetricsRegistry::full_name(row.name, row.labels).size());
    }
    return std::min<std::size_t>(width, 56);
  }();

  // "  <name padded to name_width>  ", the start of every row.
  auto row_start = [&w, name_width](const std::string& name) {
    w.raw("  ").raw(name);
    if (name.size() < name_width) {
      w.raw(std::string(name_width - name.size(), ' '));
    }
    w.raw("  ");
  };

  if (!registry.counters().empty()) {
    w.raw("\n-- counters ").raw(std::string(50, '-')).raw('\n');
    for (const auto& row : registry.counters()) {
      row_start(MetricsRegistry::full_name(row.name, row.labels));
      w.integer(row.cell.value()).raw('\n');
    }
  }
  if (!registry.gauges().empty()) {
    w.raw("\n-- gauges ").raw(std::string(52, '-')).raw('\n');
    for (const auto& row : registry.gauges()) {
      row_start(MetricsRegistry::full_name(row.name, row.labels));
      w.number(row.cell.value()).raw('\n');
    }
  }
  if (!registry.histograms().empty()) {
    w.raw("\n-- histograms ").raw(std::string(48, '-')).raw('\n');
    for (const auto& row : registry.histograms()) {
      const Histogram& h = row.cell;
      row_start(MetricsRegistry::full_name(row.name, row.labels));
      w.raw("n=").integer(h.count());
      if (h.count() > 0) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
                      h.mean(), h.quantile(0.5), h.quantile(0.95),
                      h.quantile(0.99), h.max());
        w.raw(line).raw('\n');
        row_start("");
        w.raw('[');
        // Occupancy bar: one glyph per bucket scaled against the fullest.
        const auto& counts = h.bucket_counts();
        std::uint64_t peak = *std::max_element(counts.begin(), counts.end());
        for (std::uint64_t c : counts) {
          static const char* glyphs = " .:-=+*#%@";
          std::size_t level =
              peak == 0 ? 0
                        : static_cast<std::size_t>(
                              (static_cast<double>(c) / peak) * 9.0);
          w.raw(glyphs[level]);
        }
        w.raw(']');
      }
      w.raw('\n');
    }
  }
  w.raw(rule).raw('\n');
  w.flush();
  return out.str();
}

}  // namespace vs::obs
