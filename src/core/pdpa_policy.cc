#include "src/core/pdpa_policy.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

PdpaPolicy::PdpaPolicy(PdpaParams params, PdpaMlParams ml_params)
    : params_(params), ml_params_(ml_params) {}

void PdpaPolicy::BindInstruments(Registry& registry) {
  to_no_ref_ = registry.counter("pdpa.transitions.to_no_ref");
  to_inc_ = registry.counter("pdpa.transitions.to_inc");
  to_dec_ = registry.counter("pdpa.transitions.to_dec");
  to_stable_ = registry.counter("pdpa.transitions.to_stable");
  evaluations_ = registry.counter("pdpa.evaluations");
  stale_reports_ = registry.counter("pdpa.stale_reports");
  admit_granted_ = registry.counter("pdpa.admit.granted");
  admit_denied_ = registry.counter("pdpa.admit.denied");
}

Counter* PdpaPolicy::TransitionCounter(PdpaState to) const {
  switch (to) {
    case PdpaState::kNoRef:
      return to_no_ref_;
    case PdpaState::kInc:
      return to_inc_;
    case PdpaState::kDec:
      return to_dec_;
    case PdpaState::kStable:
      return to_stable_;
  }
  return to_stable_;
}

void PdpaPolicy::RecordTransition(SimTime now, JobId job, PdpaState from, int from_alloc,
                                  const PdpaAutomaton& automaton, double speedup,
                                  const char* trigger) {
  evaluations_->Increment();
  if (automaton.state() != from) {
    TransitionCounter(automaton.state())->Increment();
  }
  if (event_log_ != nullptr) {
    const int procs = from_alloc > 0 ? from_alloc : automaton.current_alloc();
    const double efficiency = procs > 0 ? speedup / procs : 0.0;
    event_log_->PdpaTransition(now, job, from_alloc > 0 ? PdpaStateName(from) : "-",
                               PdpaStateName(automaton.state()), from_alloc,
                               automaton.current_alloc(), speedup, efficiency,
                               automaton.target_eff(), trigger);
  }
  if (automaton.state() != from || automaton.current_alloc() != from_alloc) {
    PDPA_LOG(Debug) << "job " << job << " " << PdpaStateName(from) << "->"
                    << PdpaStateName(automaton.state()) << " alloc " << from_alloc << "->"
                    << automaton.current_alloc() << " S=" << speedup << " (" << trigger << ")";
  }
}

AllocationPlan PdpaPolicy::OnJobStart(const PolicyContext& ctx, JobId job) {
  int request = 0;
  bool rigid = false;
  for (const PolicyJobInfo& info : ctx.jobs) {
    if (info.id == job) {
      request = info.request;
      rigid = info.rigid;
      break;
    }
  }
  PDPA_CHECK_GT(request, 0) << "job " << job << " missing from context";
  AllocationPlan plan;
  if (rigid) {
    // Rigid job: no performance search (the process count cannot change).
    // Fold it onto whatever is free, up to its request — this is what lets
    // it start immediately instead of fragmenting the machine.
    plan[job] = std::min(request, std::max(1, ctx.free_cpus));
    return plan;
  }
  auto automaton = std::make_unique<PdpaAutomaton>(params_, request);
  const int initial = automaton->OnJobStart(ctx.free_cpus);
  RecordTransition(ctx.now, job, PdpaState::kNoRef, /*from_alloc=*/0, *automaton,
                   /*speedup=*/0.0, "start");
  automatons_[job] = std::move(automaton);
  plan[job] = initial;
  return plan;
}

AllocationPlan PdpaPolicy::OnJobFinish(const PolicyContext& ctx, JobId job) {
  automatons_.erase(job);
  // Offer the freed processors, in arrival order, to (a) rigid jobs running
  // folded — unfolding is always profitable — and (b) malleable
  // applications that were still very efficient at their stable allocation.
  AllocationPlan plan;
  int free = ctx.free_cpus;
  for (const PolicyJobInfo& info : ctx.jobs) {
    if (free <= 0) {
      break;
    }
    if (info.rigid) {
      if (info.alloc < info.request) {
        const int grant = std::min(info.request - info.alloc, free);
        plan[info.id] = info.alloc + grant;
        free -= grant;
      }
      continue;
    }
    const auto it = automatons_.find(info.id);
    if (it == automatons_.end()) {
      continue;
    }
    const PdpaState before_state = it->second->state();
    const int before = it->second->current_alloc();
    const PdpaDecision decision = it->second->OnFreeCapacity(free);
    if (decision.changed) {
      RecordTransition(ctx.now, info.id, before_state, before, *it->second,
                       it->second->last_speedup(), "free_capacity");
      plan[info.id] = decision.next_alloc;
      free -= decision.next_alloc - before;
    }
  }
  return plan;
}

AllocationPlan PdpaPolicy::OnReport(const PolicyContext& ctx, const PerfReport& report) {
  const auto it = automatons_.find(report.job);
  if (it == automatons_.end()) {
    return AllocationPlan{};
  }
  if (params_.dynamic_target && ctx.total_cpus > 0) {
    // Load-adaptive target efficiency: stricter as the machine fills up.
    const double load =
        1.0 - static_cast<double>(ctx.free_cpus) / static_cast<double>(ctx.total_cpus);
    const double target =
        params_.min_target_eff + (params_.max_target_eff - params_.min_target_eff) * load;
    it->second->SetTargetEff(std::min(target, params_.high_eff));
  }
  const PdpaState before_state = it->second->state();
  const int before_alloc = it->second->current_alloc();
  const PdpaDecision decision = it->second->OnReport(report.speedup, report.procs, ctx.free_cpus);
  if (report.procs != before_alloc) {
    // The measurement raced a reallocation; the automaton ignored it.
    stale_reports_->Increment();
    return AllocationPlan{};
  }
  RecordTransition(ctx.now, report.job, before_state, before_alloc, *it->second, report.speedup,
                   "report");
  AllocationPlan plan;
  if (decision.changed) {
    plan[report.job] = decision.next_alloc;
  }
  return plan;
}

bool PdpaPolicy::ShouldAdmit(int running_jobs, int free_cpus) const {
  bool all_settled = true;
  bool any_bad = false;
  for (const auto& [job, automaton] : automatons_) {
    all_settled = all_settled && automaton->Settled();
    any_bad = any_bad || automaton->BadPerformance();
  }
  const bool admit = PdpaShouldAdmit(ml_params_, free_cpus, running_jobs, all_settled, any_bad);
  (admit ? admit_granted_ : admit_denied_)->Increment();
  return admit;
}

const char* PdpaPolicy::AppStateName(JobId job) const {
  const auto it = automatons_.find(job);
  return it == automatons_.end() ? "" : PdpaStateName(it->second->state());
}

const PdpaAutomaton* PdpaPolicy::AutomatonFor(JobId job) const {
  const auto it = automatons_.find(job);
  return it == automatons_.end() ? nullptr : it->second.get();
}

}  // namespace pdpa
