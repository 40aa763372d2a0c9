#include "src/rm/equipartition.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

Equipartition::Equipartition(int fixed_ml) : fixed_ml_(fixed_ml) {
  PDPA_CHECK_GE(fixed_ml, 1);
}

void Equipartition::BindInstruments(Registry& registry) {
  rebalances_ = registry.counter("policy.equip.rebalances");
}

AllocationPlan Equipartition::EqualSplit(const PolicyContext& ctx) {
  AllocationPlan plan;
  if (ctx.jobs.empty()) {
    return plan;
  }
  // Water-filling: equal shares, with small requests capped and their
  // leftovers redistributed. The level is the largest k at which every job
  // can hold min(request, k); the CPUs left over go one each to the first
  // jobs in context order still below their request. That is exactly what
  // handing out processors one by one, round-robin in context order, to
  // every job below its request produces.
  const auto used_at = [&ctx](int level) {
    long long used = 0;
    for (const PolicyJobInfo& job : ctx.jobs) {
      used += std::clamp(job.request, 0, level);
    }
    return used;
  };
  int lo = 0;
  int hi = 0;
  for (const PolicyJobInfo& job : ctx.jobs) {
    hi = std::max(hi, job.request);
  }
  const int total = std::max(ctx.total_cpus, 0);
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (used_at(mid) <= total) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  long long extra = total - used_at(lo);
  for (const PolicyJobInfo& job : ctx.jobs) {
    int share = std::clamp(job.request, 0, lo);
    if (job.request > lo && extra > 0) {
      ++share;
      --extra;
    }
    plan[job.id] = share;
  }
  return plan;
}

AllocationPlan Equipartition::OnJobStart(const PolicyContext& ctx, JobId job) {
  (void)job;
  if (!ctx.jobs.empty()) {
    rebalances_->Increment();
  }
  return EqualSplit(ctx);
}

AllocationPlan Equipartition::OnJobFinish(const PolicyContext& ctx, JobId job) {
  (void)job;
  if (!ctx.jobs.empty()) {
    rebalances_->Increment();
  }
  return EqualSplit(ctx);
}

bool Equipartition::ShouldAdmit(int running_jobs, int free_cpus) const {
  (void)free_cpus;
  return running_jobs < fixed_ml_;
}

}  // namespace pdpa
