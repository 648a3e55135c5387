// Execution trace recording for timeline rendering (Fig 2 reproduction) and
// debugging. Components append spans (start, end, lane, label); the ASCII
// Gantt renderer below and obs::ClusterTraceHub's Chrome-trace export
// consume them.
#pragma once

#include <string>
#include <vector>

#include "sim/time.h"

namespace vs::sim {

enum class SpanKind {
  kReconfig,   ///< partial reconfiguration of a slot
  kExec,       ///< batch-item execution in a slot
  kCoreOp,     ///< scheduler/PR-server operation on a CPU core
  kBlocked,    ///< time a ready action spent blocked (PR queue / core busy)
  kTransfer,   ///< DMA / Aurora data movement
  kMarker,     ///< instantaneous annotation
};

struct Span {
  SimTime start = 0;
  SimTime end = 0;
  std::string lane;   ///< e.g. "slot L2", "core PS0", "aurora"
  std::string label;  ///< e.g. "App1.T2 PR", "App2.T1 B3"
  SpanKind kind = SpanKind::kMarker;
};

/// Append-only span log. Disabled by default (no allocation cost in
/// benchmark runs); enable for examples and debugging. Chrome-trace export
/// goes through obs::ClusterTraceHub (attach_spans, then
/// write_chrome_trace_file).
class TraceRecorder {
 public:
  void enable(bool on = true) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  void add(SimTime start, SimTime end, std::string lane, std::string label,
           SpanKind kind) {
    if (enabled_) {
      spans_.push_back(
          Span{start, end, std::move(lane), std::move(label), kind});
    }
  }

  /// Spans in append order.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Drops all spans AND releases their capacity (swap idiom): long sweep
  /// runs that toggle tracing must not retain peak span memory.
  void clear() noexcept { std::vector<Span>().swap(spans_); }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Renders spans grouped by lane as an ASCII Gantt chart. `width` is the
/// number of character cells for the full time range.
[[nodiscard]] std::string render_gantt(const std::vector<Span>& spans,
                                       int width = 100);

}  // namespace vs::sim
