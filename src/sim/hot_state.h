// Structure-of-arrays store for the per-job state the resource manager's
// inner loops read every scheduling decision.
//
// The RM consults two things for every running job at every materialized
// tick: "is this job steady enough to elide over?" (ready_at) and "when is
// its next iteration boundary?" (next_boundary). Keeping those — plus the
// allocation/request counts the policy context is built from and the
// segment anchor the integrator works in — as parallel arrays indexed by
// dense slot makes the event-horizon min and the policy-context fill
// cache-linear batch loops instead of pointer chases through Application
// objects.
//
// Ownership is split by column, never by row:
//   * The ResourceManager writes the identity/accounting columns (job_id,
//     request, rigid, alloc_integral_us) when it starts or releases a
//     slot.
//   * The slot's Application writes the dynamics columns (alloc, started,
//     finished, change_epoch, ready_at, next_boundary, seg_*) and is the
//     only writer of them while the job runs; it republishes ready_at and
//     next_boundary after every state change (see Application::PublishHot).
// Readers may scan any column; `order_` in the RM defines which slots are
// live. Idle slots hold job_id == kIdleJob and parked horizons.
#ifndef SRC_SIM_HOT_STATE_H_
#define SRC_SIM_HOT_STATE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_types.h"

namespace pdpa {

// Sentinel for "no forthcoming instant": a job with no next iteration
// boundary publishes next_boundary == kHorizonNever, and a job that is not
// elidable (unstarted, finished, frozen, or mid-warmup) publishes
// ready_at == kHorizonNever. Far enough in the future to survive additions
// of grid periods without overflow.
inline constexpr SimTime kHorizonNever = std::numeric_limits<SimTime>::max() / 4;

class HotStateArena {
 public:
  // Grows every column to cover `slot` (idle-initialized); existing slots
  // are untouched.
  void EnsureSlot(int slot);

  // Returns `slot` to its idle state: job_id == kIdleJob, horizons parked
  // at kHorizonNever, counts and segment anchor zeroed.
  void ResetSlot(int slot);

  int size() const { return static_cast<int>(job_id.size()); }

  // --- RM-owned identity and accounting columns ---------------------------
  std::vector<JobId> job_id;
  std::vector<int> request;
  std::vector<std::uint8_t> rigid;
  // Integral of allocated CPUs over wall time, in CPU-microseconds.
  std::vector<double> alloc_integral_us;

  // --- Application-owned dynamics columns ---------------------------------
  std::vector<int> alloc;
  std::vector<std::uint8_t> started;
  std::vector<std::uint8_t> finished;
  // Monotonic counter bumped whenever state that can move the next boundary
  // changes (allocation, force override, iteration completion, re-anchor).
  std::vector<std::uint64_t> change_epoch;
  // Earliest instant from which the job's dynamics are exactly linear until
  // its next boundary (thawed and warm); kHorizonNever while not elidable.
  // ElisionReady(now) == (ready_at[slot] <= now).
  std::vector<SimTime> ready_at;
  // Predicted next iteration-boundary instant under steady-state speed,
  // computed with exactly the arithmetic Integrate uses; kHorizonNever when
  // the job cannot progress.
  std::vector<SimTime> next_boundary;
  // Constant-speed segment anchor (see Application): while a segment is
  // live, progress at t is seg_progress + (t - seg_start) * seg_speed.
  std::vector<std::uint8_t> seg_valid;
  std::vector<SimTime> seg_start;
  std::vector<SimTime> seg_end;
  std::vector<double> seg_progress;
  std::vector<double> seg_speed;
};

}  // namespace pdpa

#endif  // SRC_SIM_HOT_STATE_H_
