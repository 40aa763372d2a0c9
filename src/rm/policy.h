// SchedulingPolicy: the interface the NANOS Resource Manager drives.
//
// Space-sharing policies (PDPA, Equipartition, Equal_efficiency) return
// per-job processor *counts*; the RM turns counts into concrete CPU sets.
// Time-sharing policies (the native-IRIX model) bypass partitioning and
// schedule kernel threads per tick instead.
//
// A policy records nothing until attached: the ResourceManager attaches it
// to its simulation's registry and event log when it is built (Attach), and
// a policy driven without an RM must be attached the same way.
#ifndef SRC_RM_POLICY_H_
#define SRC_RM_POLICY_H_

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/time_types.h"
#include "src/machine/machine.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/rm/allocation_plan.h"
#include "src/runtime/self_analyzer.h"

namespace pdpa {

// Per-tick outcome for one job under a time-sharing policy.
struct TimeShare {
  // Average CPUs held by the job's threads over the tick.
  double effective_procs = 0.0;
  // Multiplicative progress factor in (0, 1]: migration and contention cost.
  double overhead = 1.0;
};

// The RM's view of one running job, passed to policies.
struct PolicyJobInfo {
  JobId id = kIdleJob;
  // Processors the user requested (OMP_NUM_THREADS / MPI process count).
  int request = 0;
  // Processors currently allocated.
  int alloc = 0;
  // Rigid job: the runtime cannot change the process count; allocations
  // below the request fold processes onto shared CPUs.
  bool rigid = false;
};

// What the allocation callbacks see (admission gets two counts instead).
struct PolicyContext {
  int total_cpus = 0;
  int free_cpus = 0;
  SimTime now = 0;
  // Running jobs in arrival order.
  std::vector<PolicyJobInfo> jobs;
};

// A reallocation plan (src/rm/allocation_plan.h): target processor count
// per job. Jobs omitted from the plan keep their current allocation.

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string name() const = 0;

  // Binds the policy to its run: instruments resolve from `registry`, and
  // policy-internal decisions (PDPA automaton transitions) record into
  // `event_log` (null disables recording). Both are borrowed. The
  // ResourceManager attaches its policy once, at construction, to its
  // simulation's registry and event log; a policy driven standalone must be
  // attached before its first callback.
  void Attach(Registry& registry, EventLog* event_log = nullptr) {
    event_log_ = event_log;
    BindInstruments(registry);
  }

  // Human-readable per-application search state for the time-series sampler
  // ("NO_REF"/"INC"/"DEC"/"STABLE" under PDPA). Empty when the policy keeps
  // no such state.
  virtual const char* AppStateName(JobId job) const {
    (void)job;
    return "";
  }

  // True for thread-level time-sharing policies (IRIX); the RM then calls
  // TimeShareTick every tick instead of applying allocation plans.
  virtual bool is_time_sharing() const { return false; }

  // A new job entered the system (already present in ctx.jobs with alloc 0).
  // Returns the plan including the newcomer's initial allocation.
  virtual AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) = 0;

  // `job` finished; it is no longer in ctx.jobs.
  virtual AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) = 0;

  // A performance report arrived from the runtime of `report.job`.
  virtual AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) {
    (void)ctx;
    (void)report;
    return AllocationPlan{};
  }

  // Periodic scheduler quantum.
  virtual AllocationPlan OnQuantum(const PolicyContext& ctx) {
    (void)ctx;
    return AllocationPlan{};
  }

  // True when OnQuantum is a guaranteed no-op (the policy reallocates only
  // at job starts/finishes/reports). Lets the resource manager skip the
  // quantum periodic entirely under tick elision: between materialized
  // instants nothing observable can change, so the quantum cap on the
  // elision horizon is unnecessary. Must stay false for any policy whose
  // OnQuantum can return a non-empty plan or mutate policy state.
  virtual bool quantum_passive() const { return false; }

  // True when OnReport is a guaranteed no-op (empty plan, no policy-state
  // mutation) *and* ShouldAdmit ignores performance reports. Together with
  // quantum_passive this means iteration boundaries carry no scheduling
  // consequence, so the resource manager's boundary-batching fast path may
  // cross many boundaries per tick and drain the queued reports late (see
  // Params::boundary_batch). Must stay false for any policy that reacts to
  // reports (PDPA, Equal_efficiency).
  virtual bool report_passive() const { return false; }

  // Multiprogramming-level coordination: may the queuing system start one
  // more job right now, with `running_jobs` jobs running and `free_cpus`
  // processors unallocated? Baseline policies enforce a fixed ML on the
  // count; PDPA applies its coordinated rule (PdpaShouldAdmit) to the counts
  // and its own automatons. Admission reads these two counts only, so the
  // RM builds no PolicyContext for it.
  virtual bool ShouldAdmit(int running_jobs, int free_cpus) const = 0;

  // Thread-level scheduling step for time-sharing policies. Assigns CPU
  // owners in `machine` directly, appends the reassignments to `handoffs`,
  // and overwrites *shares with each job's share of the tick, parallel to
  // ctx.jobs ((*shares)[i] belongs to ctx.jobs[i]). The caller owns both
  // buffers, so a steady-state tick allocates nothing.
  virtual void TimeShareTick(Machine& machine, const PolicyContext& ctx, SimDuration dt,
                             std::vector<CpuHandoff>* handoffs, std::vector<TimeShare>* shares) {
    (void)machine;
    (void)ctx;
    (void)dt;
    (void)handoffs;
    (void)shares;
    PDPA_CHECK(false) << "TimeShareTick on a space-sharing policy";
  }

 protected:
  // Resolves the policy's instrument pointers from `registry` (see Attach).
  virtual void BindInstruments(Registry& registry) { (void)registry; }

  EventLog* event_log_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_RM_POLICY_H_
