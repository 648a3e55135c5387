// The discrete-event simulator: a clock plus the pending-event set.
//
// All FPGA-board, scheduler and cluster behaviour in this repository is
// expressed as events against one Simulator instance. A Simulator is
// single-threaded by design: determinism is a core requirement (identical
// seed => identical result), and the workloads simulate in milliseconds of
// wall time.
//
// Source tags. Every event carries the SourceTag it was scheduled under and
// equal-time events fire in canonical (time, tag, seq) order (see
// event_queue.h). The tag is *inherited*: while an event executes, any
// events it schedules carry the executing event's tag, so one TagScope at
// an entry point (e.g. the cluster manager calling into a board) tags the
// whole causal chain after it. Untagged simulations run entirely under
// tag 0.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace vs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` ns from now (delay >= 0) under the
  /// current source tag.
  EventId schedule(SimDuration delay, EventFn fn);

  /// Schedules `fn` at absolute time `when` (>= now()).
  EventId schedule_at(SimTime when, EventFn fn);

  void cancel(EventId id) { queue_.cancel(id); }

  /// A block of order keys reserved now for events scheduled later.
  struct KeyBlock {
    SourceTag tag = 0;
    std::uint64_t first = 0;  ///< sequence number of key 0
    std::uint64_t count = 0;
  };

  /// Reserves `count` consecutive order keys under the current source tag.
  /// An event scheduled later under key i (schedule_reserved) sorts exactly
  /// where it would have if it had been the i-th of `count` events
  /// scheduled back to back right now. sim::EventStream builds on this.
  KeyBlock reserve_keys(std::uint64_t count) noexcept {
    return KeyBlock{tag_, queue_.reserve_seqs(count), count};
  }

  /// Schedules `fn` at absolute time `when` (>= now()) under key `index`
  /// of `keys`. Each key is used at most once.
  EventId schedule_reserved(SimTime when, const KeyBlock& keys,
                            std::uint64_t index, EventFn fn);

  /// Runs until the event set drains or `until` is passed (events strictly
  /// after `until` stay pending). Returns the number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Executes exactly one event if present. Returns false when drained.
  bool step();

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

 private:
  friend class TagScope;

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  SourceTag tag_ = 0;  ///< tag applied to schedule() calls right now
};

/// RAII source-tag override for entry points: everything scheduled while
/// the scope is alive (including the whole causal chain of those events,
/// via tag inheritance) carries `tag`. Board entry points (submit, kick,
/// fault injection) wrap themselves in one so cluster-level callers stamp
/// board-bound work with the board's tag.
class TagScope {
 public:
  TagScope(Simulator& sim, SourceTag tag) noexcept
      : sim_(sim), saved_(sim.tag_) {
    sim_.tag_ = tag;
  }
  ~TagScope() { sim_.tag_ = saved_; }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;

 private:
  Simulator& sim_;
  SourceTag saved_;
};

}  // namespace vs::sim
