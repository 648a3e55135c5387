#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace vs::sim {

EventId Simulator::schedule(SimDuration delay, EventFn fn) {
  assert(delay >= 0 && "events cannot be scheduled in the past");
  return queue_.schedule(now_ + delay, std::move(fn), tag_);
}

EventId Simulator::schedule_at(SimTime when, EventFn fn) {
  assert(when >= now_ && "events cannot be scheduled in the past");
  return queue_.schedule(when, std::move(fn), tag_);
}

EventId Simulator::schedule_reserved(SimTime when, const KeyBlock& keys,
                                     std::uint64_t index, EventFn fn) {
  assert(when >= now_ && "events cannot be scheduled in the past");
  assert(index < keys.count && "key outside the reserved block");
  return queue_.schedule_keyed(when, std::move(fn), keys.tag,
                               keys.first + index);
}

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto popped = queue_.pop();
    now_ = popped.time;
    tag_ = popped.tag;  // tag inheritance: nested schedules keep the tag
    popped.fn();
    ++n;
    ++executed_;
  }
  tag_ = 0;
  // The clock advances to the bound (later events stay pending): a bounded
  // run means "simulate up to this instant".
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto popped = queue_.pop();
  now_ = popped.time;
  tag_ = popped.tag;
  popped.fn();
  tag_ = 0;
  ++executed_;
  return true;
}

}  // namespace vs::sim
