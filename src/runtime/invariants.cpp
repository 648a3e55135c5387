#include "runtime/invariants.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace vs::runtime {

namespace {

void check(InvariantReport& report, bool condition, const std::string& msg) {
  if (!condition) report.violations.push_back(msg);
}

std::string unit_name(const AppRun& a, int unit_index) {
  return a.spec->name + "#" + std::to_string(a.id) + ".u" +
         std::to_string(unit_index);
}

}  // namespace

std::string InvariantReport::to_string() const {
  if (ok()) return "all invariants hold";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  for (const auto& v : violations) out << "  - " << v << "\n";
  return out.str();
}

InvariantReport audit(const BoardRuntime& rt) {
  InvariantReport report;
  const fpga::Board& board = rt.board();

  // Map slot id -> (app, unit) holding it, built from unit state.
  std::map<int, std::pair<int, int>> holders;

  for (const AppRun& a : rt.rows()) {
    if (a.id < 0) continue;  // vacant row
    int prev_items = -1;
    for (std::size_t ui = 0; ui < a.units.size(); ++ui) {
      const UnitRun& u = a.units[ui];
      int unit_index = static_cast<int>(ui);
      std::string name = unit_name(a, unit_index);

      // I1: items_done within [0, batch].
      check(report, u.items_done >= 0 && u.items_done <= a.batch,
            name + ": items_done " + std::to_string(u.items_done) +
                " outside [0," + std::to_string(a.batch) + "]");

      // I2: pipeline order — a unit can never be ahead of its predecessor.
      if (prev_items >= 0) {
        check(report, u.items_done <= prev_items,
              name + ": ahead of upstream (" + std::to_string(u.items_done) +
                  " > " + std::to_string(prev_items) + ")");
      }
      prev_items = u.items_done;

      // I3: state/slot consistency.
      switch (u.state) {
        case UnitState::kPending:
          check(report, u.slot == -1, name + ": pending but holds a slot");
          check(report, !u.item_in_flight,
                name + ": pending with an item in flight");
          break;
        case UnitState::kReconfiguring:
        case UnitState::kRunning:
          check(report, u.slot >= 0 || u.slot == -2,
                name + ": placed without a slot");
          if (u.slot >= 0) {
            auto [it, inserted] =
                holders.emplace(u.slot, std::make_pair(a.id, unit_index));
            check(report, inserted,
                  name + ": slot " + std::to_string(u.slot) +
                      " also held by app " + std::to_string(it->second.first));
          }
          if (u.state == UnitState::kReconfiguring) {
            check(report, !u.item_in_flight,
                  name + ": executing while reconfiguring");
          }
          break;
        case UnitState::kFinished:
          check(report, u.slot == -1, name + ": finished but holds a slot");
          check(report, u.items_done == a.batch,
                name + ": finished with incomplete batch");
          check(report, !u.item_in_flight,
                name + ": finished with an item in flight");
          break;
      }
    }

    // I4: a table row holds a live app: one that has a spec, is not done
    // and does not have every unit finished (completion retires it).
    bool all_finished = true;
    for (const UnitRun& u : a.units) {
      all_finished &= (u.state == UnitState::kFinished);
    }
    check(report, a.spec != nullptr && !a.done() && !all_finished,
          "app " + std::to_string(a.id) + ": finished but still in the table");

    // I5: derived counts agree with unit states.
    int placed = 0, unfinished = 0;
    for (const UnitRun& u : a.units) {
      placed += (u.state == UnitState::kReconfiguring ||
                 u.state == UnitState::kRunning);
      unfinished += (u.state != UnitState::kFinished);
    }
    check(report, placed == a.units_placed(),
          "app " + std::to_string(a.id) + ": units_placed mismatch");
    check(report, unfinished == a.units_unfinished(),
          "app " + std::to_string(a.id) + ": units_unfinished mismatch");
  }

  // I6: slot states agree with the holder map.
  for (const fpga::Slot& s : board.slots()) {
    bool held = holders.count(s.id()) > 0;
    if (s.state() == fpga::SlotState::kIdle) {
      check(report, !held,
            "slot " + s.name() + ": idle but a unit claims it");
    } else {
      check(report, held,
            "slot " + s.name() + ": " + to_string(s.state()) +
                " but no unit claims it");
      if (held) {
        check(report, s.occupant_app() == holders[s.id()].first,
              "slot " + s.name() + ": occupant app mismatch");
      }
    }
  }

  // I7: counter consistency.
  const RuntimeCounters& c = rt.counters();
  check(report, c.pr_blocked <= c.pr_requests,
        "more blocked PRs than PR requests");
  check(report, c.apps_completed ==
                    static_cast<std::int64_t>(rt.completed().size()),
        "apps_completed counter disagrees with completion log");

  // I8: completion log sanity.
  for (const CompletedApp& done : rt.completed()) {
    check(report, done.completed >= done.arrival,
          done.name + "#" + std::to_string(done.app_id) +
              ": completed before arrival");
  }

  // I9: the live-app index is exactly the ids of the occupied table rows,
  // in ascending order; each id finds its own row; active_apps() is the
  // count.
  std::vector<int> live;
  for (const AppRun& a : rt.rows()) {
    if (a.id < 0) continue;
    live.push_back(a.id);
    check(report, rt.find(a.id) == &a,
          "app " + std::to_string(a.id) + ": id does not find its row");
  }
  std::sort(live.begin(), live.end());
  check(report, rt.live_ids().to_vector() == live,
        "live-app index disagrees with the app table");
  check(report, rt.active_apps() == static_cast<int>(live.size()),
        "active_apps() " + std::to_string(rt.active_apps()) + " but " +
            std::to_string(live.size()) + " live apps");

  // I10: the incremental utilisation integrand equals a recomputation from
  // unit and slot state.
  fpga::ResourceVector used, occupied;
  for (int id : live) {
    for (const UnitRun& u : rt.app(id).units) {
      if (u.state == UnitState::kRunning) used += u.spec.impl_usage;
    }
  }
  for (const fpga::Slot& s : board.slots()) {
    if (s.state() != fpga::SlotState::kIdle) occupied += s.capacity();
  }
  check(report, rt.running_usage() == used,
        "running_usage() disagrees with running units");
  check(report, rt.slot_occupancy() == occupied,
        "slot_occupancy() disagrees with non-idle slots");

  return report;
}

}  // namespace vs::runtime
