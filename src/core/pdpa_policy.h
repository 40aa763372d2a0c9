// PdpaPolicy: adapter that drives one PdpaAutomaton per running job and
// implements the SchedulingPolicy interface for the NANOS Resource Manager.
#ifndef SRC_CORE_PDPA_POLICY_H_
#define SRC_CORE_PDPA_POLICY_H_

#include <map>
#include <memory>

#include "src/core/pdpa.h"
#include "src/rm/policy.h"

namespace pdpa {

class PdpaPolicy : public SchedulingPolicy {
 public:
  PdpaPolicy(PdpaParams params, PdpaMlParams ml_params);

  std::string name() const override { return "PDPA"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override;
  bool ShouldAdmit(int running_jobs, int free_cpus) const override;
  // Automaton transitions fire on performance reports, never on the quantum.
  bool quantum_passive() const override { return true; }
  const char* AppStateName(JobId job) const override;

  // State of one job's automaton, for tests and introspection.
  const PdpaAutomaton* AutomatonFor(JobId job) const;

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  // Records one automaton evaluation in the flight recorder and the
  // transition counters.
  void RecordTransition(SimTime now, JobId job, PdpaState from, int from_alloc,
                        const PdpaAutomaton& automaton, double speedup, const char* trigger);

  Counter* TransitionCounter(PdpaState to) const;

  PdpaParams params_;
  PdpaMlParams ml_params_;
  std::map<JobId, std::unique_ptr<PdpaAutomaton>> automatons_;

  // Instruments, bound per run by Attach.
  Counter* to_no_ref_ = nullptr;
  Counter* to_inc_ = nullptr;
  Counter* to_dec_ = nullptr;
  Counter* to_stable_ = nullptr;
  Counter* evaluations_ = nullptr;
  Counter* stale_reports_ = nullptr;
  Counter* admit_granted_ = nullptr;
  Counter* admit_denied_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_CORE_PDPA_POLICY_H_
