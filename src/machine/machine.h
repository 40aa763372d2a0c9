// Machine model: a shared-memory multiprocessor managed by space-sharing.
//
// The machine tracks which job owns each CPU. Policies decide *counts*; the
// machine turns counts into concrete CPU sets while preserving affinity
// (a job keeps the CPUs it already owns whenever possible), which is what the
// NANOS RM does on the Origin 2000 and what keeps data locality intact.
#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"

namespace pdpa {

// One concrete reassignment performed by ApplyAllocation: CPU `cpu` moved
// from job `from` to job `to` (either may be kIdleJob).
struct CpuHandoff {
  int cpu = 0;
  JobId from = kIdleJob;
  JobId to = kIdleJob;
};

class Machine {
 public:
  // `usable_cpus` is the number of CPUs handed to the scheduler; the paper
  // uses 60 of the Origin's 64 (the rest run the OS and the tracing tool).
  explicit Machine(int usable_cpus);

  int num_cpus() const { return num_cpus_; }
  // O(1): kept current by every ownership change.
  int FreeCpus() const { return free_cpus_; }

  JobId OwnerOf(int cpu) const {
    PDPA_CHECK_GE(cpu, 0);
    PDPA_CHECK_LT(cpu, num_cpus_);
    return owner_[static_cast<std::size_t>(cpu)];
  }
  int CountOf(JobId job) const;

  // All jobs that currently own at least one CPU.
  std::vector<JobId> RunningJobs() const;

  // Reassigns CPUs so that each job in `target` owns exactly the given
  // count. Jobs absent from `target` but currently owning CPUs are released
  // entirely. Affinity is preserved: shrinking jobs give up their
  // highest-numbered CPUs; growing jobs first take idle CPUs, then CPUs
  // released by shrinking jobs. Returns the concrete handoffs (used by the
  // trace recorder to count migrations).
  std::vector<CpuHandoff> ApplyAllocation(const std::map<JobId, int>& target);

  // Like ApplyAllocation, but touches only the jobs named in `target`
  // (sorted ascending by JobId); every other job keeps its CPUs untouched.
  // This is the resource manager's hot path: plans name a handful of jobs,
  // so there is no need to materialize a full-machine map. Overwrites
  // *handoffs with exactly the handoffs ApplyAllocation would return for a
  // full map that names all other jobs at their current counts. The caller
  // owns the buffer, so a steady-state decision allocates nothing.
  void ApplyPartial(const std::vector<std::pair<JobId, int>>& target,
                    std::vector<CpuHandoff>* handoffs);

  // Releases every CPU owned by `job` (job completion); overwrites
  // *handoffs with one release per CPU, ascending.
  void ReleaseJob(JobId job, std::vector<CpuHandoff>* handoffs);

  // Direct single-CPU assignment, used by the time-sharing (IRIX) model that
  // bypasses space-sharing partitions.
  void SetOwner(int cpu, JobId job) {
    PDPA_CHECK_GE(cpu, 0);
    PDPA_CHECK_LT(cpu, num_cpus_);
    Assign(static_cast<std::size_t>(cpu), job);
  }

  // Checks the free-CPU count against a full scan; the resource manager's
  // audit calls it in PDPA_AUDIT builds.
  void AuditInvariants() const;

 private:
  // The one writer of owner_, keeping free_cpus_ in step.
  void Assign(std::size_t cpu, JobId job) {
    free_cpus_ += (job == kIdleJob) - (owner_[cpu] == kIdleJob);
    owner_[cpu] = job;
  }

  int num_cpus_;
  int free_cpus_;
  std::vector<JobId> owner_;  // indexed by cpu
};

}  // namespace pdpa

#endif  // SRC_MACHINE_MACHINE_H_
