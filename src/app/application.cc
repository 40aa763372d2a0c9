#include "src/app/application.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/logging.h"

namespace pdpa {
namespace {

// The first-order warmup ramp only converges asymptotically; after this many
// time constants the residual gap (e^-5 ≈ 6.7e-3 of the original) is snapped
// to zero so the application reaches an exactly-constant speed. Without the
// snap no run would ever become elidable (see ResourceManager).
constexpr int kWarmupSettleMultiple = 5;

// End instants of the iteration run being collected by Integrate. One per
// thread, not per application: a run is handed to the observer before
// Integrate returns, and the buffer's capacity, sized by the longest span,
// is then reused by every application this thread advances.
std::vector<SimTime>& RunBuffer() {
  thread_local std::vector<SimTime> buffer;
  return buffer;
}

}  // namespace

Application::Application(JobId id, AppProfile profile, AppCosts costs, HotStateArena* hot,
                         int slot)
    : owned_profile_(std::move(profile)), costs_(costs) {
  if (hot == nullptr) {
    own_arena_ = std::make_unique<HotStateArena>();
    hot = own_arena_.get();
    slot = 0;
  }
  hot_ = hot;
  slot_ = static_cast<std::size_t>(slot);
  hot_->EnsureSlot(slot);
  Reset(id, &owned_profile_);
}

Application::Application(JobId id, const AppProfile* profile, AppCosts costs, HotStateArena* hot,
                         int slot)
    : costs_(costs), hot_(hot), slot_(static_cast<std::size_t>(slot)) {
  PDPA_CHECK(hot != nullptr);
  hot_->EnsureSlot(slot);
  Reset(id, profile);
}

void Application::Reset(JobId id, const AppProfile* profile) {
  PDPA_CHECK(profile != nullptr);
  PDPA_CHECK_GT(profile->sequential_work_s, 0.0);
  PDPA_CHECK_GT(profile->iterations, 0);
  id_ = id;
  profile_ = profile;
  request_ = profile->default_request;
  work_per_iter_s_ = profile->sequential_work_s / profile->iterations;
  finish_time_ = 0;
  forced_procs_ = 0;
  rigid_ = false;
  warm_procs_ = 0.0;
  warm_until_ = 0;
  frozen_until_ = 0;
  progress_s_ = 0.0;
  completed_iterations_ = 0;
  iter_start_wall_ = 0;
  iter_clean_ = true;
  steady_procs_ = -1;
  steady_speed_ = 0.0;
  // Reset this slot's dynamics columns (a reused slot holds the previous
  // tenant's values); the identity columns belong to the arena owner.
  HotStateArena& h = *hot_;
  h.alloc[slot_] = 0;
  h.started[slot_] = 0;
  h.finished[slot_] = 0;
  h.change_epoch[slot_] = 0;
  h.ready_at[slot_] = kHorizonNever;
  h.next_boundary[slot_] = kHorizonNever;
  h.seg_valid[slot_] = 0;
  h.seg_start[slot_] = 0;
  h.seg_end[slot_] = 0;
  h.seg_progress[slot_] = 0.0;
  h.seg_speed[slot_] = 0.0;
}

void Application::Start(SimTime now) {
  HotStateArena& h = *hot_;
  PDPA_CHECK(!h.started[slot_]);
  PDPA_CHECK_GT(h.alloc[slot_], 0) << "job " << id_ << " started without processors";
  h.started[slot_] = 1;
  iter_start_wall_ = now;
  iter_clean_ = true;
  warm_procs_ = static_cast<double>(EffectiveProcs());
  warm_until_ = now;
  ++h.change_epoch[slot_];
  PublishHot(now);
}

void Application::SetAllocation(int procs, SimTime now) {
  PDPA_CHECK_GE(procs, 0);
  HotStateArena& h = *hot_;
  if (procs == h.alloc[slot_]) {
    return;
  }
  const bool started = h.started[slot_] != 0;
  const int old_effective = started ? EffectiveProcs() : 0;
  h.alloc[slot_] = procs;
  if (!started) {
    return;
  }
  const int new_effective = EffectiveProcs();
  if (new_effective == old_effective) {
    return;
  }
  // Team re-formation: freeze briefly and restart the warmup ramp; taint the
  // current iteration's measurement.
  frozen_until_ = std::max(frozen_until_, now + costs_.reconfig_freeze);
  if (new_effective < old_effective) {
    // Shrinking gives no locality debt: remaining CPUs are already warm.
    warm_procs_ = std::min(warm_procs_, static_cast<double>(new_effective));
  }
  if (warm_procs_ != static_cast<double>(new_effective)) {
    warm_until_ = now + kWarmupSettleMultiple * costs_.warmup;
  }
  iter_clean_ = false;
  ++h.change_epoch[slot_];
  PublishHot(now);
}

void Application::ForceProcs(int procs, SimTime now) {
  PDPA_CHECK_GE(procs, 0);
  if (procs == forced_procs_) {
    return;
  }
  HotStateArena& h = *hot_;
  const bool started = h.started[slot_] != 0;
  const int old_effective = started ? EffectiveProcs() : 0;
  forced_procs_ = procs;
  if (!started) {
    return;
  }
  const int new_effective = EffectiveProcs();
  if (new_effective != old_effective) {
    frozen_until_ = std::max(frozen_until_, now + costs_.reconfig_freeze);
    if (new_effective < old_effective) {
      warm_procs_ = std::min(warm_procs_, static_cast<double>(new_effective));
    }
    if (warm_procs_ != static_cast<double>(new_effective)) {
      warm_until_ = now + kWarmupSettleMultiple * costs_.warmup;
    }
    iter_clean_ = false;
    ++h.change_epoch[slot_];
    PublishHot(now);
  }
}

int Application::EffectiveProcs() const {
  const int alloc = hot_->alloc[slot_];
  if (forced_procs_ > 0) {
    return std::min(alloc, forced_procs_);
  }
  return alloc;
}

double Application::SpeedAt(double p_eff) const {
  if (rigid_) {
    // Folded rigid execution: `request_` processes share p_eff CPUs. The
    // application's parallel structure is that of `request_` processes; the
    // CPUs bound the rate, with a folding overhead when oversubscribed.
    const double fold = std::min(1.0, p_eff / std::max(1, request_));
    const double overhead = fold < 1.0 ? costs_.folding_overhead : 1.0;
    return profile_->speedup->SpeedupAt(std::max(1, request_)) * fold * overhead;
  }
  return profile_->speedup->SpeedupAt(std::max(1.0, p_eff));
}

double Application::MaxSpeed() const {
  const int request = std::max(1, request_);
  if (rigid_) {
    return profile_->speedup->SpeedupAt(request) * std::max(1.0, costs_.folding_overhead);
  }
  // SpeedAt clamps the effective count to at least one processor, and the
  // allocation never exceeds the request.
  return profile_->speedup->MaxSpeedupOver(1.0, request);
}

double Application::SteadySpeed() const {
  const int procs = EffectiveProcs();
  if (procs <= 0) {
    return 0.0;
  }
  if (procs != steady_procs_) {
    steady_speed_ = SpeedAt(static_cast<double>(procs));
    steady_procs_ = procs;
  }
  return steady_speed_;
}

void Application::Advance(SimTime now, SimDuration dt) {
  HotStateArena& h = *hot_;
  if (!h.started[slot_] || h.finished[slot_] || dt <= 0) {
    return;
  }
  const int procs = EffectiveProcs();
  if (procs <= 0) {
    return;
  }
  // Warmup ramp: move warm_procs_ toward the target with time constant
  // costs_.warmup (first-order). Integrated over the tick as the midpoint
  // value to stay stable for large ticks. Once the settle deadline passes,
  // warm_procs_ snaps to the target and the speed becomes exactly constant.
  const double target = static_cast<double>(procs);
  double p_eff = target;
  if (costs_.warmup > 0) {
    if (warm_procs_ != target && now >= warm_until_) {
      warm_procs_ = target;
      ++h.change_epoch[slot_];
    }
    if (warm_procs_ != target) {
      const double k = std::min(1.0, static_cast<double>(dt) / static_cast<double>(costs_.warmup));
      const double warm = warm_procs_ + (target - warm_procs_) * k;
      p_eff = 0.5 * (warm_procs_ + warm);
      warm_procs_ = warm;
    }
  } else {
    warm_procs_ = target;
  }
  Integrate(now, dt, p_eff == target ? SteadySpeed() : SpeedAt(p_eff), procs);
  PublishHot(now + dt);
}

void Application::AdvanceTimeShared(SimTime now, SimDuration dt, double effective_procs,
                                    double overhead_factor) {
  HotStateArena& h = *hot_;
  if (!h.started[slot_] || h.finished[slot_] || dt <= 0) {
    return;
  }
  PDPA_CHECK_GT(overhead_factor, 0.0);
  PDPA_CHECK_LE(overhead_factor, 1.0);
  const double p = std::max(0.0, effective_procs);
  if (p <= 0.0) {
    return;
  }
  const double speed = profile_->speedup->SpeedupAt(std::max(1.0, p)) * overhead_factor;
  Integrate(now, dt, speed, static_cast<int>(std::lround(std::max(1.0, p))));
  // A time-shared job is never steady (its share changes every tick), so it
  // publishes no elision readiness and no next boundary.
  h.ready_at[slot_] = kHorizonNever;
  h.next_boundary[slot_] = kHorizonNever;
}

bool Application::ElisionReady(SimTime now) const {
  const HotStateArena& h = *hot_;
  if (!h.started[slot_] || h.finished[slot_]) {
    return false;
  }
  if (frozen_until_ > now) {
    return false;
  }
  if (costs_.warmup > 0 && warm_procs_ != static_cast<double>(EffectiveProcs())) {
    return false;
  }
  return true;
}

SimTime Application::NextBoundaryTime(SimTime now) const {
  const SegmentAnchor anchor = SteadyAnchor(now);
  if (anchor.speed <= 0.0) {
    return kHorizonNever;
  }
  return BoundaryAt(anchor, completed_iterations_ + 1);
}

SegmentAnchor Application::SteadyAnchor(SimTime now) const {
  const HotStateArena& h = *hot_;
  const double speed = h.finished[slot_] ? 0.0 : SteadySpeed();
  // Select the anchor exactly like Integrate will: continue the live segment
  // when it abuts `now` at the same speed, else start a fresh one here.
  // BoundaryAt crosses the same `work_per_iter_s_ * index` double Integrate
  // does, so a coarse span reproduces the fine-tick instant bit for bit for
  // *every* boundary on the steady segment, not just the next one.
  if (h.seg_valid[slot_] && h.seg_speed[slot_] == speed && h.seg_end[slot_] == now) {
    return SegmentAnchor{h.seg_start[slot_], h.seg_progress[slot_], speed};
  }
  return SegmentAnchor{now, progress_s_, speed};
}

void Application::PublishHot(SimTime now) {
  HotStateArena& h = *hot_;
  if (!h.started[slot_] || h.finished[slot_]) {
    h.ready_at[slot_] = kHorizonNever;
    h.next_boundary[slot_] = kHorizonNever;
    return;
  }
  // ready_at: the thaw instant once the warmup ramp has converged, else
  // never. The ramp's snap-to-target happens only inside Advance, so a
  // mid-ramp job must keep reading "not ready" even past warm_until_ — the
  // next fine tick performs the snap and republishes.
  if (costs_.warmup > 0 && warm_procs_ != static_cast<double>(EffectiveProcs())) {
    h.ready_at[slot_] = kHorizonNever;
  } else {
    h.ready_at[slot_] = frozen_until_;
  }
  h.next_boundary[slot_] = NextBoundaryTime(now);
}

void Application::Integrate(SimTime now, SimDuration dt, double speed, int procs_label) {
  HotStateArena& h = *hot_;
  SimTime t = now;
  const SimTime end = now + dt;

  // Consume the reconfiguration freeze first. A freeze breaks the segment:
  // whatever follows starts a fresh anchor at the thaw.
  if (frozen_until_ > t) {
    const SimTime thaw = std::min(frozen_until_, end);
    t = thaw;
    h.seg_valid[slot_] = 0;
    if (t >= end) {
      return;
    }
  }
  if (speed <= 0.0) {
    h.seg_valid[slot_] = 0;
    return;
  }

  // Continue the live constant-speed segment when this span abuts it; else
  // anchor a new segment at (t, progress).
  if (!h.seg_valid[slot_] || h.seg_speed[slot_] != speed || h.seg_end[slot_] != t) {
    h.seg_valid[slot_] = 1;
    h.seg_start[slot_] = t;
    h.seg_end[slot_] = t;
    h.seg_progress[slot_] = progress_s_;
    h.seg_speed[slot_] = speed;
    ++h.change_epoch[slot_];
  }

  // Boundary instants are measured from the segment anchor — the same value
  // no matter how the segment was chopped into Advance spans. The anchor is
  // NOT moved at crossings: every boundary of the segment is computed from
  // the segment start, so the microsecond rounding of one boundary never
  // accumulates into the next (each is within half a microsecond of the
  // continuous-time instant).
  const SegmentAnchor anchor{h.seg_start[slot_], h.seg_progress[slot_], speed};
  // A settled observer takes the span's iterations as one run, collected
  // here; until then each one is delivered as it is crossed, since the
  // observer may change this application in response.
  std::vector<SimTime>& run_ends = RunBuffer();
  IterationRun run;
  bool batching = false;
  while (!h.finished[slot_]) {
    const SimTime boundary_at = BoundaryAt(anchor, completed_iterations_ + 1);
    if (boundary_at > end) {
      break;
    }
    progress_s_ = work_per_iter_s_ * (completed_iterations_ + 1);
    if (!batching && observer_ != nullptr && observer_->batches_runs()) {
      batching = true;
      run_ends.clear();
      run.first_index = completed_iterations_;
      run.start_wall = iter_start_wall_;
      run.procs = procs_label;
      run.first_clean = iter_clean_;
    }
    if (batching) {
      run_ends.push_back(boundary_at);
      ++completed_iterations_;
    } else {
      FinishIteration(boundary_at, procs_label);
    }
    if (completed_iterations_ >= profile_->iterations) {
      h.finished[slot_] = 1;
      finish_time_ = boundary_at;
    }
  }
  if (batching) {
    run.end_times = run_ends.data();
    run.count = static_cast<int>(run_ends.size());
    iter_start_wall_ = run_ends.back();
    iter_clean_ = true;
    h.change_epoch[slot_] += run_ends.size();
    observer_->OnIterationRun(run);
  }
  if (!h.finished[slot_]) {
    // Anchor-relative progress; the clamp keeps a boundary whose instant
    // rounded down to `end` from regressing progress below completed work.
    progress_s_ =
        std::max(h.seg_progress[slot_] + TimeToSeconds(end - h.seg_start[slot_]) * speed,
                 work_per_iter_s_ * completed_iterations_);
  }
  h.seg_end[slot_] = end;
}

void Application::FinishIteration(SimTime when, int procs_label) {
  IterationRecord record;
  record.index = completed_iterations_;
  record.end_time = when;
  record.wall_time = when - iter_start_wall_;
  record.procs = procs_label;
  record.clean = iter_clean_;
  ++completed_iterations_;
  iter_start_wall_ = when;
  iter_clean_ = true;
  ++hot_->change_epoch[slot_];
  if (observer_ != nullptr) {
    observer_->OnIteration(record);
  }
}

}  // namespace pdpa
