#include "src/sim/hot_state.h"

#include "src/common/logging.h"

namespace pdpa {

void HotStateArena::EnsureSlot(int slot) {
  PDPA_CHECK_GE(slot, 0);
  if (slot < size()) {
    return;
  }
  const std::size_t n = static_cast<std::size_t>(slot) + 1;
  job_id.resize(n, kIdleJob);
  request.resize(n, 0);
  rigid.resize(n, 0);
  alloc_integral_us.resize(n, 0.0);
  alloc.resize(n, 0);
  started.resize(n, 0);
  finished.resize(n, 0);
  change_epoch.resize(n, 0);
  ready_at.resize(n, kHorizonNever);
  next_boundary.resize(n, kHorizonNever);
  seg_valid.resize(n, 0);
  seg_start.resize(n, 0);
  seg_end.resize(n, 0);
  seg_progress.resize(n, 0.0);
  seg_speed.resize(n, 0.0);
}

void HotStateArena::ResetSlot(int slot) {
  PDPA_CHECK_GE(slot, 0);
  PDPA_CHECK_LT(slot, size());
  const std::size_t s = static_cast<std::size_t>(slot);
  job_id[s] = kIdleJob;
  request[s] = 0;
  rigid[s] = 0;
  alloc_integral_us[s] = 0.0;
  alloc[s] = 0;
  started[s] = 0;
  finished[s] = 0;
  change_epoch[s] = 0;
  ready_at[s] = kHorizonNever;
  next_boundary[s] = kHorizonNever;
  seg_valid[s] = 0;
  seg_start[s] = 0;
  seg_end[s] = 0;
  seg_progress[s] = 0.0;
  seg_speed[s] = 0.0;
}

}  // namespace pdpa
