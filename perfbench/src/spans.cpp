#include "spans.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0, current(), 1});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanLog::aggregate(std::string name, int parent, std::int64_t total_ns,
                       std::int64_t calls) {
  const std::int64_t start =
      parent >= 0 ? spans_[static_cast<std::size_t>(parent)].start_ns
                  : now_ns();
  spans_.push_back(Span{std::move(name), start, start + total_ns, parent,
                        calls});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::adopt(const SpanLog& other, int parent) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent >= 0 ? s.parent + base : parent;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals clipped to this span: children of
    // a sweep span run in parallel and overlap.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"calls\":" << s.calls << "}\n";
  }
}

}  // namespace perfbench
