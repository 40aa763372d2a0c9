#include "src/core/pdpa.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace pdpa {

const char* PdpaStateName(PdpaState state) {
  switch (state) {
    case PdpaState::kNoRef:
      return "NO_REF";
    case PdpaState::kInc:
      return "INC";
    case PdpaState::kDec:
      return "DEC";
    case PdpaState::kStable:
      return "STABLE";
  }
  return "?";
}

PdpaAutomaton::PdpaAutomaton(PdpaParams params, int request)
    : params_(params), request_(request) {
  PDPA_CHECK_GT(request, 0);
  PDPA_CHECK_GT(params.step, 0);
  PDPA_CHECK_GT(params.target_eff, 0.0);
  PDPA_CHECK_LE(params.target_eff, params.high_eff);
  PDPA_CHECK_LE(params.high_eff, 1.5);
}

bool PdpaAutomaton::Settled() const {
  if (state_ == PdpaState::kStable) {
    return true;
  }
  // Stuck at the floor: DEC cannot shrink below one processor.
  if (state_ == PdpaState::kDec && cur_alloc_ <= 1) {
    return true;
  }
  // Saturated: at its full request with good performance; INC cannot grow.
  if (state_ == PdpaState::kInc && cur_alloc_ >= request_) {
    return true;
  }
  return false;
}

bool PdpaAutomaton::BadPerformance() const {
  return state_ == PdpaState::kDec && cur_alloc_ <= 1;
}

int PdpaAutomaton::OnJobStart(int free_cpus) {
  PDPA_CHECK_GE(free_cpus, 1);
  state_ = PdpaState::kNoRef;
  cur_alloc_ = std::min(request_, free_cpus);
  last_alloc_ = cur_alloc_;
  has_report_ = false;
  cur_speedup_ = 0.0;
  last_speedup_ = 0.0;
  stable_exits_ = 0;
  return cur_alloc_;
}

void PdpaAutomaton::SyncAllocation(int alloc) {
  PDPA_CHECK_GE(alloc, 0);
  if (alloc != cur_alloc_) {
    cur_alloc_ = alloc;
  }
}

void PdpaAutomaton::SetTargetEff(double target_eff) {
  PDPA_CHECK_GT(target_eff, 0.0);
  PDPA_CHECK_LE(target_eff, params_.high_eff);
  params_.target_eff = target_eff;
}

int PdpaAutomaton::GrowTarget(int free_cpus) const {
  const int grow = std::min(params_.step, free_cpus);
  return std::min(request_, cur_alloc_ + grow);
}

int PdpaAutomaton::ShrinkTarget() const { return std::max(1, cur_alloc_ - params_.step); }

PdpaDecision PdpaAutomaton::Transition(PdpaState next_state, int next_alloc) {
  const int prev_alloc = cur_alloc_;
  if (next_alloc != cur_alloc_) {
    last_alloc_ = cur_alloc_;
    last_speedup_ = cur_speedup_;
    cur_alloc_ = next_alloc;
  }
  state_ = next_state;
  PdpaDecision decision;
  decision.next_state = next_state;
  decision.next_alloc = next_alloc;
  decision.changed = next_alloc != prev_alloc;
  return decision;
}

PdpaDecision PdpaAutomaton::OnReport(double speedup, int procs, int free_cpus) {
  PDPA_CHECK_GT(procs, 0);
  PDPA_CHECK_GE(free_cpus, 0);
  // Reports race with reallocations; only evaluate measurements taken at the
  // allocation the automaton is reasoning about.
  if (procs != cur_alloc_) {
    PdpaDecision decision;
    decision.next_state = state_;
    decision.next_alloc = cur_alloc_;
    decision.changed = false;
    return decision;
  }

  cur_speedup_ = speedup;
  const double efficiency = speedup / procs;
  const bool had_report = has_report_;
  has_report_ = true;

  switch (state_) {
    case PdpaState::kNoRef: {
      if (efficiency > params_.high_eff) {
        const int target = GrowTarget(free_cpus);
        if (target > cur_alloc_) {
          resource_limited_ = false;
          return Transition(PdpaState::kInc, target);
        }
        // Very good performance but nowhere to grow: resource-limited only
        // if below the request (the free pool was empty).
        resource_limited_ = cur_alloc_ < request_;
        return Transition(PdpaState::kStable, cur_alloc_);
      }
      resource_limited_ = false;
      if (efficiency < params_.target_eff) {
        const int target = ShrinkTarget();
        if (target < cur_alloc_) {
          return Transition(PdpaState::kDec, target);
        }
        return Transition(PdpaState::kStable, cur_alloc_);
      }
      return Transition(PdpaState::kStable, cur_alloc_);
    }

    case PdpaState::kInc: {
      // Evaluate the growth decided in the previous quantum.
      bool keep_growing = efficiency > params_.high_eff;
      if (keep_growing && had_report) {
        keep_growing = cur_speedup_ > last_speedup_;
      }
      if (keep_growing && params_.use_relative_speedup && last_alloc_ > 0 &&
          last_speedup_ > 0.0 && cur_alloc_ > last_alloc_) {
        // RelativeSpeedup: the speedup gained must be proportional to the
        // processors gained, discounted by high_eff. Detects superlinear
        // curves that stop progressing (swim beyond 16 CPUs).
        const double relative = cur_speedup_ / last_speedup_;
        const double added_fraction =
            static_cast<double>(cur_alloc_ - last_alloc_) / static_cast<double>(last_alloc_);
        keep_growing = relative > 1.0 + added_fraction * params_.high_eff;
      }
      if (keep_growing) {
        const int target = GrowTarget(free_cpus);
        if (target > cur_alloc_) {
          resource_limited_ = false;
          return Transition(PdpaState::kInc, target);
        }
        // Saturated at the request (performance still fine) or stopped by an
        // empty free pool (resource-limited): hold.
        resource_limited_ = cur_alloc_ < request_;
        return Transition(PdpaState::kStable, cur_alloc_);
      }
      // Growth did not pay off: performance-limited stop. Lose the
      // processors gained in the last transition only if the current
      // efficiency is below target.
      resource_limited_ = false;
      if (efficiency < params_.target_eff && last_alloc_ > 0 && last_alloc_ < cur_alloc_) {
        return Transition(PdpaState::kStable, last_alloc_);
      }
      return Transition(PdpaState::kStable, cur_alloc_);
    }

    case PdpaState::kDec: {
      if (efficiency < params_.target_eff) {
        const int target = ShrinkTarget();
        if (target < cur_alloc_) {
          return Transition(PdpaState::kDec, target);
        }
        // At the 1-CPU floor with bad performance: hold (run-to-completion).
        return Transition(PdpaState::kDec, cur_alloc_);
      }
      return Transition(PdpaState::kStable, cur_alloc_);
    }

    case PdpaState::kStable: {
      if (params_.max_stable_exits == 0 || stable_exits_ >= params_.max_stable_exits) {
        return Transition(PdpaState::kStable, cur_alloc_);
      }
      // Resume the upward search only when the stop was resource-limited;
      // a performance-limited STABLE (efficiency or relative-speedup
      // ceiling) must not creep upward, or superlinear applications would
      // defeat the RelativeSpeedup rule.
      if (resource_limited_ && efficiency > params_.high_eff && cur_alloc_ < request_) {
        const int target = GrowTarget(free_cpus);
        if (target > cur_alloc_) {
          ++stable_exits_;
          resource_limited_ = false;
          return Transition(PdpaState::kInc, target);
        }
      }
      if (efficiency < params_.target_eff && cur_alloc_ > 1) {
        ++stable_exits_;
        resource_limited_ = false;
        return Transition(PdpaState::kDec, ShrinkTarget());
      }
      return Transition(PdpaState::kStable, cur_alloc_);
    }
  }
  PDPA_CHECK(false) << "unreachable";
  return PdpaDecision{};
}

PdpaDecision PdpaAutomaton::OnFreeCapacity(int free_cpus) {
  PdpaDecision decision;
  decision.next_state = state_;
  decision.next_alloc = cur_alloc_;
  decision.changed = false;
  if (state_ != PdpaState::kStable || !has_report_) {
    return decision;
  }
  if (params_.max_stable_exits == 0 || stable_exits_ >= params_.max_stable_exits) {
    return decision;
  }
  // Only resume the search when the stop was resource-limited and the
  // application was still very efficient at its stable allocation;
  // performance-limited stops stand (see OnReport, STABLE case).
  if (resource_limited_ && last_efficiency() > params_.high_eff && cur_alloc_ < request_ &&
      free_cpus > 0) {
    const int target = GrowTarget(free_cpus);
    if (target > cur_alloc_) {
      ++stable_exits_;
      resource_limited_ = false;
      return Transition(PdpaState::kInc, target);
    }
  }
  return decision;
}

double PdpaAutomaton::last_efficiency() const {
  if (cur_alloc_ <= 0) {
    return 0.0;
  }
  return cur_speedup_ / cur_alloc_;
}

std::string PdpaAutomaton::DebugString() const {
  return StrFormat("PdpaAutomaton{state=%s alloc=%d last_alloc=%d S=%.2f lastS=%.2f}",
                   PdpaStateName(state_), cur_alloc_, last_alloc_, cur_speedup_, last_speedup_);
}

bool PdpaShouldAdmit(const PdpaMlParams& params, int free_cpus, int running_jobs,
                     bool all_settled, bool any_bad) {
  // Jobs run to completion on at least one processor.
  if (free_cpus < 1) {
    return false;
  }
  // Initial admission credit: the default multiprogramming level.
  if (running_jobs < params.default_ml) {
    return true;
  }
  if (!params.coordinated) {
    return false;  // Fixed-ML ablation: never exceed default_ml.
  }
  return all_settled || any_bad;
}

}  // namespace pdpa
