// Equipartition (McCann, Vaswani, Zahorjan): divide the machine equally
// among running jobs, capped by each job's request; redistribute only at job
// arrival and completion.
#ifndef SRC_RM_EQUIPARTITION_H_
#define SRC_RM_EQUIPARTITION_H_

#include "src/rm/policy.h"

namespace pdpa {

class Equipartition : public SchedulingPolicy {
 public:
  // `fixed_ml` is the multiprogramming level enforced for this policy.
  explicit Equipartition(int fixed_ml = 4);

  std::string name() const override { return "Equipartition"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  bool ShouldAdmit(int running_jobs, int free_cpus) const override;
  // Reallocates only at job arrival and completion.
  bool quantum_passive() const override { return true; }
  // Ignores performance reports entirely (OnReport is the base no-op and
  // ShouldAdmit counts jobs): safe for boundary batching.
  bool report_passive() const override { return true; }

  // Water-filling equal split capped by requests; exposed for tests.
  static AllocationPlan EqualSplit(const PolicyContext& ctx);

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  int fixed_ml_;
  Counter* rebalances_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_RM_EQUIPARTITION_H_
