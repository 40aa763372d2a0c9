// Simulated malleable iterative parallel application.
//
// The application executes `iterations` iterations of an outer loop (the
// "iterative parallel region" the SelfAnalyzer exploits). Progress is
// measured in sequential-equivalent seconds and advances at SpeedupAt(p)
// seconds per wall-second on p processors. Two costs make reallocation
// non-free, as the paper stresses:
//   * a reconfiguration freeze while the runtime re-forms the thread team;
//   * a locality warmup: newly gained CPUs contribute gradually (cache and
//     page migration on the CC-NUMA machine).
//
// Integration is *segment-anchored*: progress within a maximal span of
// constant speed is always computed from the span's start point with one
// multiplication, never by accumulating per-call increments. This makes the
// trajectory a pure function of the segment boundaries, so advancing a
// steady-state span in one call or in many produces bit-identical progress,
// boundary instants, and finish times — the linearity fact the resource
// manager's event-horizon tick elision relies on.
//
// Hot/cold split: the fields the resource manager scans every decision
// (allocation, finished flag, elision readiness, next boundary, segment
// anchor) live in a HotStateArena slot (see src/sim/hot_state.h); the
// Application owns that slot's dynamics columns and republishes the derived
// ready_at/next_boundary values after every state change via PublishHot.
// Cold fields (profile, warmup ramp, iteration bookkeeping) stay here.
#ifndef SRC_APP_APPLICATION_H_
#define SRC_APP_APPLICATION_H_

#include <cstdint>
#include <memory>

#include "src/app/app_profile.h"
#include "src/common/ids.h"
#include "src/common/time_types.h"
#include "src/sim/hot_state.h"

namespace pdpa {

// Costs of malleability. Defaults model an OpenMP runtime re-forming teams
// between parallel regions on a CC-NUMA machine.
struct AppCosts {
  // Wall time during which the application makes no progress after an
  // allocation change.
  SimDuration reconfig_freeze = 30 * kMillisecond;
  // Time constant of the locality warmup ramp for the effective processor
  // count after a change.
  SimDuration warmup = 400 * kMillisecond;
  // Multiplicative efficiency of a folded rigid application (context
  // switching between its processes on shared CPUs).
  double folding_overhead = 0.85;
};

// One completed iteration of the outer loop, as observable by the runtime.
struct IterationRecord {
  int index = 0;
  // Exact (sub-tick) completion instant of the iteration.
  SimTime end_time = 0;
  SimDuration wall_time = 0;
  // Processor count in effect when the iteration completed.
  int procs = 0;
  // True when the effective processor count was constant for the whole
  // iteration (no reallocation, no baseline switch, no freeze).
  bool clean = false;
};

// Consecutive iterations completed in one integration span at one speed:
// a compact form of `count` IterationRecords. Record k has index
// first_index + k, end_time end_times[k], wall_time end_times[k] minus the
// previous end (start_wall for k == 0), procs `procs`, and is clean except
// that record 0 carries `first_clean`.
struct IterationRun {
  int first_index = 0;
  SimTime start_wall = 0;
  int procs = 0;
  bool first_clean = true;
  const SimTime* end_times = nullptr;
  int count = 0;

  IterationRecord Record(int k) const {
    const SimTime begin = k == 0 ? start_wall : end_times[k - 1];
    return IterationRecord{first_index + k, end_times[k], end_times[k] - begin, procs,
                           k == 0 ? first_clean : true};
  }
};

// Receiver of an application's completed iterations (the SelfAnalyzer in a
// simulated job). Each iteration is delivered exactly once, in order.
class IterationObserver {
 public:
  // One iteration, delivered while the integration loop is still running:
  // the observer may change the application (its processor override) and
  // later iterations see the change.
  virtual void OnIteration(const IterationRecord& record) = 0;
  // True once the observer can no longer change the application. From then
  // on the application hands every iteration crossed in one span to
  // OnIterationRun in one call, after the span is integrated.
  virtual bool batches_runs() const { return false; }
  virtual void OnIterationRun(const IterationRun& run) {
    for (int k = 0; k < run.count; ++k) {
      OnIteration(run.Record(k));
    }
  }

 protected:
  ~IterationObserver() = default;
};

// Linear progress from an anchor: progress at t is
// progress + (t - t0) * speed (see Application::SteadyAnchor).
struct SegmentAnchor {
  SimTime t0 = 0;
  double progress = 0.0;
  double speed = 0.0;

  bool operator==(const SegmentAnchor&) const = default;
};

class Application {
 public:
  // Standalone construction (tests, examples): the application keeps its
  // own copy of `profile`. When `hot` is null it also allocates a private
  // single-slot arena; otherwise it adopts `slot` of the caller's arena and
  // becomes the sole writer of that slot's dynamics columns. The slot's
  // dynamics columns are reset; the identity columns (job_id, arrival, ...)
  // are left to the arena owner.
  Application(JobId id, AppProfile profile, AppCosts costs = AppCosts{},
              HotStateArena* hot = nullptr, int slot = 0);
  // Resident construction: borrows `*profile`, which must outlive every use
  // of this application (the resource manager interns it).
  Application(JobId id, const AppProfile* profile, AppCosts costs, HotStateArena* hot, int slot);

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  // Re-initializes this application in place for a new job borrowing
  // `*profile`: the result is indistinguishable from resident construction
  // with the same arguments (costs, arena slot and observer are kept).
  void Reset(JobId id, const AppProfile* profile);

  JobId id() const { return id_; }
  const AppProfile& profile() const { return *profile_; }
  int request() const { return request_; }
  void set_request(int request) {
    request_ = request;
    steady_procs_ = -1;
  }

  // Rigid (MPI-like) execution: the application always runs `request`
  // processes. When allocated fewer CPUs the processes are *folded*
  // (time-sliced two-or-more per CPU) at a multiplicative overhead — the
  // binding/folding approach of the paper's future-work section. Must be
  // set before Start().
  void set_rigid(bool rigid) {
    rigid_ = rigid;
    steady_procs_ = -1;
  }
  bool rigid() const { return rigid_; }

  // Receives every completed outer-loop iteration. Borrowed; null detaches.
  void set_observer(IterationObserver* observer) { observer_ = observer; }

  // Marks the job as running; the first allocation must already be in place.
  void Start(SimTime now);
  bool started() const { return hot_->started[slot_] != 0; }
  bool finished() const { return hot_->finished[slot_] != 0; }
  SimTime finish_time() const { return finish_time_; }

  // Space-sharing allocation from the RM. Charges the reconfiguration
  // freeze and restarts the warmup ramp when the count actually changes.
  void SetAllocation(int procs, SimTime now);
  int allocated() const { return hot_->alloc[slot_]; }

  // SelfAnalyzer baseline control: while `procs` > 0, the application runs
  // on min(allocated, procs) CPUs regardless of the allocation. 0 releases
  // the override.
  void ForceProcs(int procs, SimTime now);
  int forced_procs() const { return forced_procs_; }

  // Processor count the application actually uses this instant.
  int EffectiveProcs() const;

  // Advances wall time by `dt` under space sharing.
  void Advance(SimTime now, SimDuration dt);

  // Advances wall time by `dt` under time sharing (IRIX model): the
  // application held `effective_procs` CPUs on average over the interval and
  // suffered multiplicative `overhead_factor` in (0, 1] from migrations and
  // contention. Publishes ready_at and next_boundary as never: a time-shared
  // job's speed changes every tick, so it is never steady enough to elide.
  void AdvanceTimeShared(SimTime now, SimDuration dt, double effective_procs,
                         double overhead_factor);

  // Sequential-equivalent seconds of work completed / total.
  double progress_s() const { return progress_s_; }
  double total_work_s() const { return profile_->sequential_work_s; }
  int completed_iterations() const { return completed_iterations_; }

  // --- Event-horizon support (see ResourceManager) -------------------------

  // True when the dynamics over [now, ∞) are exactly linear until the next
  // iteration boundary: no reconfiguration freeze pending and the locality
  // warmup ramp has converged (speed is constant). Only meaningful for a
  // started, unfinished application. Equivalent to ready_at[slot] <= now.
  bool ElisionReady(SimTime now) const;

  // Predicted instant of the next iteration boundary assuming steady-state
  // speed from `now` on, using exactly the anchor selection and arithmetic
  // Integrate will use (so a coarse span that crosses it reproduces the
  // fine-tick instant bit for bit). kHorizonNever when the application
  // cannot progress. Requires ElisionReady(now).
  SimTime NextBoundaryTime(SimTime now) const;

  // The anchor Integrate will continue from `now` at steady speed: the live
  // segment when it abuts `now` at that speed, else (now, progress). Speed 0
  // when the application cannot progress.
  SegmentAnchor SteadyAnchor(SimTime now) const;
  // Instant at which boundary `index` (absolute: the end of iteration
  // index - 1) is crossed from `anchor`; the arithmetic Integrate uses.
  SimTime BoundaryAt(const SegmentAnchor& anchor, int index) const {
    const double boundary = work_per_iter_s_ * index;
    return anchor.t0 + SecondsToTime((boundary - anchor.progress) / anchor.speed);
  }

  // Iterations left until the final boundary (the completion instant).
  int remaining_iterations() const { return profile_->iterations - completed_iterations_; }
  int total_iterations() const { return profile_->iterations; }

  // Fastest rate (sequential-equivalent seconds per wall second) the job can
  // ever progress at under space sharing: the maximum of its speed over
  // every effective processor count up to its request, warm-up ramp values
  // included. A folded rigid job never beats its unfolded speed (times the
  // folding factor, should that exceed one).
  double MaxSpeed() const;

  // Monotonic counter bumped whenever state that can move the next boundary
  // changes (allocation, force override, iteration completion, segment
  // re-anchor).
  std::uint64_t change_epoch() const { return hot_->change_epoch[slot_]; }

 private:
  // Republishes the derived hot columns (ready_at, next_boundary) for this
  // slot as of `now`. Called at the end of every mutation so the arena is
  // always current when the RM scans it.
  void PublishHot(SimTime now);

  // Shared forward-integration used by both advance flavors. `speed` is
  // sequential-equivalent seconds of progress per wall second.
  void Integrate(SimTime now, SimDuration dt, double speed, int procs_label);

  // Speed at a given effective processor value (shared by Advance and the
  // steady-state horizon prediction so both produce identical doubles).
  double SpeedAt(double p_eff) const;
  // Speed once the warmup ramp has converged to the current effective count;
  // cached per effective-processor count.
  double SteadySpeed() const;

  void FinishIteration(SimTime when, int procs_label);

  JobId id_ = kIdleJob;
  // Standalone construction's copy; profile_ points here or at a borrowed
  // (interned) profile.
  AppProfile owned_profile_;
  const AppProfile* profile_ = nullptr;
  AppCosts costs_;
  int request_ = 0;

  // Hot-state slot: dynamics columns for this job live in (*hot_)[slot_].
  // own_arena_ backs hot_ only in standalone construction.
  std::unique_ptr<HotStateArena> own_arena_;
  HotStateArena* hot_ = nullptr;
  std::size_t slot_ = 0;

  SimTime finish_time_ = 0;

  int forced_procs_ = 0;
  bool rigid_ = false;

  // Locality model: effective processor count ramps toward the target.
  double warm_procs_ = 0.0;
  // Instant at which the ramp is declared converged and warm_procs_ snaps to
  // the target (the first-order ramp alone only converges asymptotically).
  SimTime warm_until_ = 0;
  SimTime frozen_until_ = 0;

  double progress_s_ = 0.0;
  double work_per_iter_s_ = 0.0;
  int completed_iterations_ = 0;
  SimTime iter_start_wall_ = 0;
  bool iter_clean_ = true;

  // SteadySpeed() at steady_procs_ effective processors (-1: none cached).
  mutable int steady_procs_ = -1;
  mutable double steady_speed_ = 0.0;

  IterationObserver* observer_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_APP_APPLICATION_H_
