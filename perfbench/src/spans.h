// In-memory span log for the traced run.
//
// The benchmark opens a span around every call it makes into a library
// module (name "<layer>.<call>", start, end, parent) and keeps the spans in
// memory until the run ends. Calls too short and too many to record one by
// one (Simulator::step, SchedulerPolicy::on_pass) are folded into one
// aggregate span per enclosing span, laid at the enclosing span's start with
// the summed duration. A span's self time is its duration minus the part of
// its interval that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t calls = 1;  ///< > 1 for an aggregate of many short calls
};

class SpanLog {
 public:
  /// Opens a span as a child of the innermost open one. Not thread-safe:
  /// a worker thread traces into its own log, adopted after it joins.
  int open(std::string name);
  void close(int id);
  /// Records `calls` calls totalling `total_ns` as one child of `parent`.
  int aggregate(std::string name, int parent, std::int64_t total_ns,
                std::int64_t calls);
  /// Appends `other`'s spans, re-rooting its top-level spans under `parent`.
  void adopt(const SpanLog& other, int parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Innermost open span, or -1.
  [[nodiscard]] int current() const noexcept {
    return stack_.empty() ? -1 : stack_.back();
  }
  /// Total self time per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// One JSON object per span.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op, so traced and untraced runs
/// share one code path.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
