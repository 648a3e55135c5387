#include "sim/core.h"

#include <cassert>
#include <utility>

namespace vs::sim {

Core::Core(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void Core::submit(SimDuration duration, EventFn on_done, OpKind kind) {
  assert(duration >= 0);
  ops_total_.add();
  queue_depth_.add(1.0);
  Op op{duration, std::move(on_done), kind};
  if (!busy_ && queue_.empty()) {
    start(std::move(op));  // the common idle case never touches the queue
    return;
  }
  queue_.push_back(std::move(op));
  // Idle with a backlog happens only inside a completion callback, before
  // finish_current() pulls the next op: the oldest op starts.
  if (!busy_) start(queue_.pop_front());
}

void Core::bind_metrics(obs::MetricsRegistry& registry) {
  obs::Labels labels{{"core", name_}};
  ops_total_ =
      obs::CounterHandle{&registry.counter("vs_core_ops_total", labels)};
  busy_ns_total_ =
      obs::CounterHandle{&registry.counter("vs_core_busy_ns_total", labels)};
  queue_depth_ =
      obs::GaugeHandle{&registry.gauge("vs_core_queue_depth", labels)};
}

SimTime Core::available_at() const noexcept {
  if (!busy_) return sim_.now();
  SimTime t = current_end_;
  for (const Op& op : queue_) t += op.duration;
  return t;
}

void Core::start(Op op) {
  assert(!busy_);
  busy_ = true;
  current_kind_ = op.kind;
  current_end_ = sim_.now() + op.duration;
  busy_time_ += op.duration;
  busy_ns_total_.add(op.duration);
  current_done_ = std::move(op.on_done);
  finish_event_ = sim_.schedule(op.duration, [this] { finish_current(); });
}

void Core::reset() {
  if (busy_) {
    sim_.cancel(finish_event_);
    // start() charged the full duration up front; give back the part
    // that will never execute.
    if (current_end_ > sim_.now()) {
      sim::SimDuration remaining = current_end_ - sim_.now();
      busy_time_ -= remaining;
      busy_ns_total_.add(-remaining);
    }
    busy_ = false;
    current_done_ = EventFn{};
  }
  queue_.clear();
  queue_depth_.set(0.0);
}

void Core::finish_current() {
  busy_ = false;
  queue_depth_.add(-1.0);
  // Move out first: the callback may submit more work and restart the core,
  // which would overwrite current_done_.
  EventFn done = std::move(current_done_);
  if (done) done();
  // The completion callback may have submitted more work and restarted the
  // core already; only pull the next op if still idle.
  if (!busy_ && !queue_.empty()) start(queue_.pop_front());
}

}  // namespace vs::sim
