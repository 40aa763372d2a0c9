#include "src/rm/equal_efficiency.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

EqualEfficiency::EqualEfficiency() : EqualEfficiency(Params{}) {}

EqualEfficiency::EqualEfficiency(Params params) : params_(params) {
  PDPA_CHECK_GE(params.fixed_ml, 1);
  PDPA_CHECK_GE(params.history, 2);
}

void EqualEfficiency::BindInstruments(Registry& registry) {
  reallocations_ = registry.counter("policy.equal_eff.reallocations");
}

AllocationPlan EqualEfficiency::OnJobStart(const PolicyContext& ctx, JobId job) {
  models_[job] = JobModel{};
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnJobFinish(const PolicyContext& ctx, JobId job) {
  models_.erase(job);
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnReport(const PolicyContext& ctx, const PerfReport& report) {
  JobModel& model = models_[report.job];
  model.samples.push_back(Sample{report.procs, report.speedup});
  if (static_cast<int>(model.samples.size()) > params_.history) {
    model.samples.erase(model.samples.begin());
  }
  model.eff.clear();
  // Reallocating on every report is what makes Equal_efficiency "too
  // sensitive to small changes in the efficiency measurements" (Sec. 5.1).
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnQuantum(const PolicyContext& ctx) { return Reallocate(ctx); }

bool EqualEfficiency::ShouldAdmit(int running_jobs, int free_cpus) const {
  (void)free_cpus;
  return running_jobs < params_.fixed_ml;
}

double EqualEfficiency::ExtrapolatedSpeedup(JobId job, double p) const {
  if (p <= 0.0) {
    return 0.0;
  }
  const auto it = models_.find(job);
  return it == models_.end() ? p : FitOf(it->second).At(p);
}

EqualEfficiency::Fit EqualEfficiency::FitOf(const JobModel& model) const {
  const std::vector<Sample>& samples = model.samples;
  if (samples.empty()) {
    // No knowledge: optimistically assume linear speedup (this is what makes
    // the policy hand 30 processors to a brand-new job).
    return Fit{};
  }
  const Sample& latest = samples.back();
  double alpha = params_.default_alpha;
  // Fit the exponent through the two most recent samples at distinct
  // processor counts: S(p) = S1 * (p / p1)^alpha.
  for (auto rit = samples.rbegin() + 1; rit != samples.rend(); ++rit) {
    if (rit->procs != latest.procs && rit->procs > 0 && rit->speedup > 0.0) {
      const double num = std::log(latest.speedup / rit->speedup);
      const double den = std::log(static_cast<double>(latest.procs) / rit->procs);
      if (std::abs(den) > 1e-9) {
        alpha = std::clamp(num / den, params_.min_alpha, params_.max_alpha);
      }
      break;
    }
  }
  return Fit{false, latest.speedup, static_cast<double>(latest.procs), alpha};
}

double EqualEfficiency::EfficiencyAt(JobModel& model, int p) const {
  const std::size_t k = static_cast<std::size_t>(p - 2);
  if (model.eff.empty()) {
    model.fit = FitOf(model);
  }
  while (model.eff.size() <= k) {
    const int q = static_cast<int>(model.eff.size()) + 2;
    model.eff.push_back(model.fit.At(q) / q);
  }
  return model.eff[k];
}

AllocationPlan EqualEfficiency::Reallocate(const PolicyContext& ctx) {
  AllocationPlan plan;
  if (ctx.jobs.empty()) {
    return plan;
  }
  reallocations_->Increment();
  // Everyone gets one processor (run-to-completion floor), then processors
  // go one at a time to the job whose *extrapolated* efficiency at its next
  // allocation is highest: the earliest job in ctx.jobs order with a
  // strictly larger efficiency wins, and a NaN never does. After a grant
  // only the winner's next efficiency changes.
  const std::size_t n = ctx.jobs.size();
  int remaining = ctx.total_cpus - static_cast<int>(n);
  job_models_.resize(n);
  counts_.assign(n, 1);
  next_eff_.resize(n);
  const auto eff_at_next = [&](std::size_t k) {
    const int next = counts_[k] + 1;
    // An ineligible job (at its request) is never picked: -1 is the
    // search's starting bar, which a candidate must strictly beat.
    return next > ctx.jobs[k].request ? -1.0 : EfficiencyAt(*job_models_[k], next);
  };
  if (remaining > 0) {
    for (std::size_t k = 0; k < n; ++k) {
      job_models_[k] = &models_[ctx.jobs[k].id];
      next_eff_[k] = eff_at_next(k);
    }
  }
  while (remaining > 0) {
    double best_eff = -1.0;
    std::size_t best = n;
    for (std::size_t k = 0; k < n; ++k) {
      if (next_eff_[k] > best_eff) {
        best_eff = next_eff_[k];
        best = k;
      }
    }
    if (best == n) {
      break;  // Every job is at its request.
    }
    ++counts_[best];
    next_eff_[best] = eff_at_next(best);
    --remaining;
  }
  // More jobs than processors (remaining < 0) cannot happen with the paper's
  // MLs; every job then keeps the one-processor floor.
  for (std::size_t k = 0; k < n; ++k) {
    plan.emplace(ctx.jobs[k].id, counts_[k]);
  }
  return plan;
}

}  // namespace pdpa
