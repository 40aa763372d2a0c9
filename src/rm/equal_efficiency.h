// Equal_efficiency (Nguyen, Zahorjan, Vaswani): allocate processors using
// runtime-measured efficiencies, extrapolated to unmeasured allocations, so
// the most efficient applications receive the most processors and marginal
// efficiency is equalized.
//
// The paper (Sec. 5.1) observes two weaknesses that this implementation
// reproduces faithfully: the extrapolation is very sensitive to measurement
// noise (high allocation variance, costly reallocations), and there is no
// target efficiency bounding the allocation of poorly scaling applications.
#ifndef SRC_RM_EQUAL_EFFICIENCY_H_
#define SRC_RM_EQUAL_EFFICIENCY_H_

#include <cmath>
#include <map>
#include <vector>

#include "src/rm/policy.h"

namespace pdpa {

class EqualEfficiency : public SchedulingPolicy {
 public:
  struct Params {
    int fixed_ml = 4;
    // Exponent assumed for jobs with a single measurement: S(p) ~ p^alpha.
    double default_alpha = 0.85;
    // Clamp for the fitted exponent.
    double min_alpha = 0.0;
    double max_alpha = 1.3;
    // Number of recent measurements kept per job.
    int history = 8;
  };

  EqualEfficiency();
  explicit EqualEfficiency(Params params);

  std::string name() const override { return "Equal_efficiency"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override;
  AllocationPlan OnQuantum(const PolicyContext& ctx) override;
  bool ShouldAdmit(int running_jobs, int free_cpus) const override;

  // Extrapolated speedup for a job at allocation p; exposed for tests.
  double ExtrapolatedSpeedup(JobId job, double p) const;

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  struct Sample {
    int procs = 0;
    double speedup = 1.0;
  };
  // One job's extrapolation S(p) = s1 * (p / p1)^alpha, or S(p) = p for a
  // job with no measurement yet.
  struct Fit {
    bool linear = true;
    double s1 = 0.0;
    double p1 = 0.0;
    double alpha = 0.0;
    double At(double p) const { return linear ? p : s1 * std::pow(p / p1, alpha); }
  };
  struct JobModel {
    std::vector<Sample> samples;  // most recent last
    // Memo of the fit's efficiency S(p) / p at p = 2, 3, ... (eff[k] is at
    // p = k + 2), extended on demand and cleared whenever samples change.
    // Reallocations between two of the job's reports reuse it; fit is valid
    // while eff is non-empty.
    Fit fit;
    std::vector<double> eff;
  };

  Fit FitOf(const JobModel& model) const;
  // The memoized S(p) / p of `model` for p >= 2.
  double EfficiencyAt(JobModel& model, int p) const;
  AllocationPlan Reallocate(const PolicyContext& ctx);

  Params params_;
  std::map<JobId, JobModel> models_;
  Counter* reallocations_ = nullptr;
  // Reallocate scratch, parallel to ctx.jobs: each job's model, processor
  // count so far and efficiency at its next processor.
  std::vector<JobModel*> job_models_;
  std::vector<int> counts_;
  std::vector<double> next_eff_;
};

}  // namespace pdpa

#endif  // SRC_RM_EQUAL_EFFICIENCY_H_
