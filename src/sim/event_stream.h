// Lazy feed of a timed sequence (an arrival trace) into the simulator.
//
// Scheduling every arrival of a trace up front costs one pending event and
// one closure per arrival for the whole run, and makes every other event
// sift through a heap that is mostly future arrivals. An EventStream keeps
// exactly one of its items pending: firing item k schedules item k+1.
//
// The order is unchanged. At construction the stream reserves one order
// key per item (Simulator::reserve_keys), so item k fires under the same
// (time, tag, seq) key it would carry had all items been scheduled right
// there, one after another. Items are fed in (time, index) order; a
// sequence that is not time-sorted is stable-sorted by time first, which
// is the order the all-up-front schedule fires it in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace vs::sim {

template <class Item>
class EventStream {
 public:
  using TimeOf = SimTime (*)(const Item&);
  using Fire = std::function<void(const Item&)>;

  /// Takes the items, reserves their order keys under the current source
  /// tag and schedules the first. `fire` runs inside each item's event.
  /// The stream must outlive the run (its pending event points at it).
  EventStream(Simulator& sim, std::vector<Item> items, TimeOf time_of,
              Fire fire)
      : sim_(sim),
        items_(std::move(items)),
        time_of_(time_of),
        fire_(std::move(fire)) {
    auto earlier = [time_of](const Item& a, const Item& b) {
      return time_of(a) < time_of(b);
    };
    if (!std::is_sorted(items_.begin(), items_.end(), earlier)) {
      std::stable_sort(items_.begin(), items_.end(), earlier);
    }
    keys_ = sim_.reserve_keys(items_.size());
    feed();
  }

  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

 private:
  void feed() {
    if (next_ == items_.size()) return;
    sim_.schedule_reserved(time_of_(items_[next_]), keys_, next_,
                           [this] { fire_next(); });
  }

  void fire_next() {
    const Item& item = items_[next_++];
    feed();
    fire_(item);
  }

  Simulator& sim_;
  std::vector<Item> items_;
  TimeOf time_of_;
  Fire fire_;
  Simulator::KeyBlock keys_;
  std::size_t next_ = 0;  ///< index of the pending item
};

}  // namespace vs::sim
