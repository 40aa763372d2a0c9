// "Dynamic" processor allocation (McCann, Vaswani, Zahorjan, TOCS 1993),
// the related-work policy the paper contrasts PDPA against: processors move
// eagerly toward applications that can use them, based on each
// application's reported idleness, with reallocation at every report and
// quantum. Faithful to the property the paper highlights: it "results in a
// large number of reallocations".
//
// Model: an application's *useful parallelism* is estimated from its last
// measured efficiency (useful ~ alloc * eff, plus one processor of probing
// headroom). Each quantum the machine is redistributed equally, capped by
// per-application useful parallelism — so processors idle at one
// application flow immediately to the others.
#ifndef SRC_RM_MCCANN_DYNAMIC_H_
#define SRC_RM_MCCANN_DYNAMIC_H_

#include <map>

#include "src/rm/policy.h"

namespace pdpa {

class McCannDynamic : public SchedulingPolicy {
 public:
  struct Params {
    int fixed_ml = 4;
    // Probing headroom above the estimated useful parallelism.
    int probe = 1;
  };

  McCannDynamic();
  explicit McCannDynamic(Params params);

  std::string name() const override { return "Dynamic"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override;
  AllocationPlan OnQuantum(const PolicyContext& ctx) override;
  bool ShouldAdmit(int running_jobs, int free_cpus) const override;

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  AllocationPlan Redistribute(const PolicyContext& ctx) const;

  Params params_;
  // Last estimated useful parallelism per job.
  std::map<JobId, int> useful_;
  Counter* redistributions_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_RM_MCCANN_DYNAMIC_H_
