#include "src/rm/mccann_dynamic.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

McCannDynamic::McCannDynamic() : McCannDynamic(Params{}) {}

McCannDynamic::McCannDynamic(Params params) : params_(params) {
  PDPA_CHECK_GE(params.fixed_ml, 1);
  PDPA_CHECK_GE(params.probe, 0);
}

void McCannDynamic::BindInstruments(Registry& registry) {
  redistributions_ = registry.counter("policy.dynamic.redistributions");
}

AllocationPlan McCannDynamic::OnJobStart(const PolicyContext& ctx, JobId job) {
  (void)job;
  // A new application is assumed fully parallel until it reports.
  return Redistribute(ctx);
}

AllocationPlan McCannDynamic::OnJobFinish(const PolicyContext& ctx, JobId job) {
  useful_.erase(job);
  return Redistribute(ctx);
}

AllocationPlan McCannDynamic::OnReport(const PolicyContext& ctx, const PerfReport& report) {
  // Idleness = 1 - efficiency: processors the application is not using.
  const double eff = std::clamp(report.efficiency, 0.0, 1.5);
  useful_[report.job] =
      std::max(1, static_cast<int>(std::lround(report.procs * eff)) + params_.probe);
  return Redistribute(ctx);
}

AllocationPlan McCannDynamic::OnQuantum(const PolicyContext& ctx) { return Redistribute(ctx); }

bool McCannDynamic::ShouldAdmit(int running_jobs, int free_cpus) const {
  (void)free_cpus;
  return running_jobs < params_.fixed_ml;
}

AllocationPlan McCannDynamic::Redistribute(const PolicyContext& ctx) const {
  AllocationPlan plan;
  if (ctx.jobs.empty()) {
    return plan;
  }
  redistributions_->Increment();
  // Equal redistribution capped by min(request, useful parallelism):
  // water-filling, like Equipartition, but with the dynamic caps — this is
  // what moves processors away from applications with reported idleness the
  // moment the report arrives.
  AllocationPlan cap;
  for (const PolicyJobInfo& job : ctx.jobs) {
    const auto it = useful_.find(job.id);
    const int useful = it == useful_.end() ? job.request : it->second;
    cap[job.id] = std::min(job.request, useful);
    plan[job.id] = 0;
  }
  int remaining = ctx.total_cpus;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (const PolicyJobInfo& job : ctx.jobs) {
      if (remaining == 0) {
        break;
      }
      if (plan[job.id] < cap[job.id]) {
        ++plan[job.id];
        --remaining;
        progress = true;
      }
    }
  }
  // Run-to-completion floor.
  for (const PolicyJobInfo& job : ctx.jobs) {
    plan[job.id] = std::max(plan[job.id], 1);
  }
  return plan;
}

}  // namespace pdpa
