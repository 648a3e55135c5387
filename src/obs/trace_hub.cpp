#include "obs/trace_hub.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/export_writer.h"

namespace vs::obs {

namespace {

const char* span_category(sim::SpanKind kind) {
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

const char* flow_ph(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::kStart: return "s";
    case FlowPhase::kStep: return "t";
    case FlowPhase::kEnd: return "f";
  }
  return "t";
}

struct JournalName {
  JournalEvent event;
  const char* name;
};

constexpr JournalName kJournalNames[] = {
    {JournalEvent::kAdmit, "admit"},
    {JournalEvent::kBind, "bind"},
    {JournalEvent::kPreempt, "preempt"},
    {JournalEvent::kCheckpoint, "checkpoint"},
    {JournalEvent::kComplete, "complete"},
    {JournalEvent::kMigrate, "migrate"},
    {JournalEvent::kCrash, "crash"},
    {JournalEvent::kRestore, "restore"},
    {JournalEvent::kShed, "shed"},
    {JournalEvent::kReadmit, "readmit"},
};

}  // namespace

const char* to_string(JournalEvent e) noexcept {
  for (const auto& entry : kJournalNames) {
    if (entry.event == e) return entry.name;
  }
  return "unknown";
}

bool journal_event_from_string(const std::string& name,
                               JournalEvent& out) noexcept {
  for (const auto& entry : kJournalNames) {
    if (name == entry.name) {
      out = entry.event;
      return true;
    }
  }
  return false;
}

bool TraceChannel::trace_on() const noexcept { return hub_->trace_enabled(); }
bool TraceChannel::journal_on() const noexcept {
  return hub_->journal_enabled();
}

TraceChannel& ClusterTraceHub::channel(const std::string& name) {
  auto it = channel_index_.find(name);
  if (it != channel_index_.end()) return *it->second;
  channels_.emplace_back(TraceChannel{this, channels_.size()});
  TraceChannel* ch = &channels_.back();
  channel_index_.emplace(name, ch);
  return *ch;
}

void ClusterTraceHub::attach_spans(const std::string& board,
                                   const sim::TraceRecorder* rec) {
  auto it = recorders_.find(board);
  if (it == recorders_.end()) {
    board_order_.push_back(board);
    it = recorders_.emplace(board, std::vector<const sim::TraceRecorder*>{})
             .first;
  }
  it->second.push_back(rec);
}

void ClusterTraceHub::seal() {
  for (auto& [board, recs] : recorders_) {
    std::vector<sim::Span>& dst = sealed_spans_[board];
    for (const sim::TraceRecorder* rec : recs) {
      dst.insert(dst.end(), rec->spans().begin(), rec->spans().end());
    }
    recs.clear();
  }
}

namespace {

/// Pointers to every channel's records of one kind, stable-sorted by time:
/// equal timestamps keep channel-creation then append order.
template <typename Record, typename Records>
std::vector<const Record*> merge_by_time(
    const std::deque<TraceChannel>& channels, Records records) {
  std::vector<const Record*> out;
  for (const TraceChannel& ch : channels) {
    for (const Record& r : records(ch)) out.push_back(&r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record* a, const Record* b) {
                     return a->time < b->time;
                   });
  return out;
}

}  // namespace

std::vector<const JournalRecord*> ClusterTraceHub::merged_journal() const {
  return merge_by_time<JournalRecord>(
      channels_, [](const TraceChannel& ch) -> const auto& {
        return ch.journal();
      });
}

std::vector<const FlowPoint*> ClusterTraceHub::merged_flows() const {
  return merge_by_time<FlowPoint>(
      channels_,
      [](const TraceChannel& ch) -> const auto& { return ch.flows(); });
}

void ClusterTraceHub::write_chrome_trace(std::ostream& out) const {
  const std::vector<const FlowPoint*> flows = merged_flows();

  // Processes: attached boards in attach order, then any board that only
  // appears as a flow endpoint (e.g. the cluster coordinator).
  std::vector<std::string> boards = board_order_;
  std::map<std::string, int> pid;
  for (const std::string& b : boards) {
    pid.emplace(b, static_cast<int>(pid.size()) + 1);
  }
  for (const FlowPoint* f : flows) {
    if (pid.emplace(f->board, static_cast<int>(pid.size()) + 1).second) {
      boards.push_back(f->board);
    }
  }

  // Threads: per board, lanes in first-appearance order — span lanes first
  // (recorder attach order), then flow lanes.
  std::map<std::string, std::map<std::string, int>> lane_tid;
  std::map<std::string, std::vector<std::string>> lane_order;
  auto intern_lane = [&](const std::string& board, const std::string& lane) {
    auto& tids = lane_tid[board];
    auto [it, fresh] = tids.emplace(lane, static_cast<int>(tids.size()) + 1);
    if (fresh) lane_order[board].push_back(lane);
    return it->second;
  };

  struct PlacedSpan {
    const sim::Span* span;
    int pid;
    int tid;
  };
  std::vector<PlacedSpan> placed;
  for (const std::string& b : board_order_) {
    auto place = [&](const std::vector<sim::Span>& spans) {
      for (const sim::Span& s : spans) {
        placed.push_back(PlacedSpan{&s, pid[b], intern_lane(b, s.lane)});
      }
    };
    if (auto sit = sealed_spans_.find(b); sit != sealed_spans_.end()) {
      place(sit->second);
    }
    for (const sim::TraceRecorder* rec : recorders_.at(b)) place(rec->spans());
  }
  for (const FlowPoint* f : flows) intern_lane(f->board, f->lane);
  std::stable_sort(placed.begin(), placed.end(),
                   [](const PlacedSpan& a, const PlacedSpan& b) {
                     if (a.span->start != b.span->start) {
                       return a.span->start < b.span->start;
                     }
                     return a.pid < b.pid;
                   });

  ExportWriter w(out);
  w.raw('[');
  bool first = true;
  auto sep = [&] {
    if (!first) w.raw(',');
    first = false;
    w.raw('\n');
  };

  for (const std::string& b : boards) {
    sep();
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
        .integer(pid[b])
        .raw(",\"args\":{\"name\":\"")
        .escaped(b)
        .raw("\"}}");
    for (const std::string& lane : lane_order[b]) {
      sep();
      w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
          .integer(pid[b])
          .raw(",\"tid\":")
          .integer(lane_tid[b][lane])
          .raw(",\"args\":{\"name\":\"")
          .escaped(lane)
          .raw("\"}}");
    }
  }

  for (const PlacedSpan& p : placed) {
    sep();
    w.raw("{\"name\":\"")
        .escaped(p.span->label)
        .raw("\",\"cat\":\"")
        .raw(span_category(p.span->kind))
        .raw("\",\"ph\":\"X\",\"pid\":")
        .integer(p.pid)
        .raw(",\"tid\":")
        .integer(p.tid)
        .raw(",\"ts\":")
        .fixed(static_cast<double>(p.span->start) / 1e3)
        .raw(",\"dur\":")
        .fixed(static_cast<double>(p.span->end - p.span->start) / 1e3)
        .raw('}');
  }

  for (const FlowPoint* f : flows) {
    sep();
    w.raw("{\"name\":\"")
        .escaped(f->name)
        .raw("\",\"cat\":\"flow\",\"ph\":\"")
        .raw(flow_ph(f->phase))
        .raw("\",\"id\":")
        .integer(f->id)
        .raw(",\"pid\":")
        .integer(pid[f->board])
        .raw(",\"tid\":")
        .integer(lane_tid[f->board][f->lane])
        .raw(",\"ts\":")
        .fixed(static_cast<double>(f->time) / 1e3);
    if (f->phase == FlowPhase::kEnd) w.raw(",\"bp\":\"e\"");
    w.raw('}');
  }

  w.raw("\n]\n");
  w.flush();
}

void ClusterTraceHub::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  write_chrome_trace(out);
}

void ClusterTraceHub::write_journal(std::ostream& out) const {
  ExportWriter w(out);
  for (const JournalRecord* r : merged_journal()) {
    w.raw("{\"t_ns\":")
        .integer(r->time)
        .raw(",\"t_ms\":")
        .fixed(sim::to_ms(r->time))
        .raw(",\"event\":\"")
        .raw(to_string(r->event))
        .raw("\",\"board\":\"")
        .escaped(r->board)
        .raw('"');
    if (r->app >= 0) w.raw(",\"app\":").integer(r->app);
    if (!r->spec.empty()) w.raw(",\"spec\":\"").escaped(r->spec).raw('"');
    if (r->flow != 0) w.raw(",\"flow\":").integer(r->flow);
    if (!r->detail.empty()) {
      w.raw(",\"detail\":\"").escaped(r->detail).raw('"');
    }
    w.raw("}\n");
  }
  w.flush();
}

void ClusterTraceHub::write_journal_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open journal file " + path);
  write_journal(out);
}

namespace {

// Minimal extraction for the journal's own flat JSONL encoding; not a
// general JSON parser.
bool extract_raw(const std::string& line, const std::string& key,
                 std::string& out) {
  std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos < line.size() && line[pos] == '"') {
    ++pos;
    std::string value;
    while (pos < line.size()) {
      char c = line[pos];
      if (c == '"') break;
      if (c == '\\' && pos + 1 < line.size()) {
        char esc = line[pos + 1];
        pos += 2;
        switch (esc) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case '"': value += '"'; break;
          case '\\': value += '\\'; break;
          case 'u': {
            if (pos + 4 <= line.size()) {
              unsigned code = 0;
              std::from_chars(line.data() + pos, line.data() + pos + 4, code,
                              16);
              value += static_cast<char>(code);
              pos += 4;
            }
            break;
          }
          default: value += esc;
        }
        continue;
      }
      value += c;
      ++pos;
    }
    out = std::move(value);
    return true;
  }
  auto end = line.find_first_of(",}", pos);
  if (end == std::string::npos) return false;
  out = line.substr(pos, end - pos);
  return true;
}

}  // namespace

std::vector<JournalRecord> parse_journal(std::istream& in) {
  std::vector<JournalRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string raw;
    JournalRecord r;
    if (!extract_raw(line, "event", raw)) continue;
    if (!journal_event_from_string(raw, r.event)) continue;
    if (!extract_raw(line, "t_ns", raw)) continue;
    std::from_chars(raw.data(), raw.data() + raw.size(), r.time);
    if (extract_raw(line, "board", raw)) r.board = raw;
    if (extract_raw(line, "app", raw)) {
      std::from_chars(raw.data(), raw.data() + raw.size(), r.app);
    }
    if (extract_raw(line, "spec", raw)) r.spec = raw;
    if (extract_raw(line, "flow", raw)) {
      std::from_chars(raw.data(), raw.data() + raw.size(), r.flow);
    }
    if (extract_raw(line, "detail", raw)) r.detail = raw;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace vs::obs
