#include "baselines/baseline_exclusive.h"

#include "runtime/board_runtime.h"

namespace vs::baselines {

void BaselineExclusivePolicy::on_pass(runtime::BoardRuntime& rt) {
  // Fabric is busy while any started app is unfinished.
  const runtime::LiveIds live = rt.live_ids();
  for (int id : live) {
    if (rt.app(id).started) return;
  }
  // Admit the earliest waiting app (FCFS over the exclusive device): no
  // live app has started, so that is the first one.
  if (!live.empty()) rt.request_full_reconfig(live.front());
}

}  // namespace vs::baselines
