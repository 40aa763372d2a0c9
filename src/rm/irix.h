// Native-IRIX scheduling model: priority-aged time sharing with processor
// affinity, no coordination with the queuing system, and no malleability —
// each application runs OMP_NUM_THREADS (= its request) kernel threads for
// its whole life.
//
// The model reproduces the failure modes the paper diagnoses (Sec. 5.1.1):
// with the fixed ML of 4 and 30-thread requests the machine is ~2x
// overcommitted, threads time-slice, affinity is imperfect, and kernel
// threads migrate constantly — short bursts, many migrations, degraded
// application performance.
#ifndef SRC_RM_IRIX_H_
#define SRC_RM_IRIX_H_

#include <vector>

#include "src/common/rng.h"
#include "src/rm/policy.h"

namespace pdpa {

class IrixTimeShare : public SchedulingPolicy {
 public:
  struct Params {
    int fixed_ml = 4;
    // vruntime lead a running thread may accumulate over the hungriest
    // waiter before it is preempted. Larger values = longer bursts; the
    // default is calibrated against the sub-second burst lengths of Table 2.
    SimDuration affinity_bonus = 80 * kMillisecond;
    // Fraction of a tick of useful work a migrated thread loses re-warming
    // caches/pages on the new CPU.
    double migration_cost = 0.35;
    // Contention/barrier-spin penalty per unit of overcommit beyond 1.0
    // (MP_BLOCKTIME spinning wastes the slice of threads waiting at
    // barriers while the machine is oversubscribed).
    double overcommit_penalty = 0.5;
    // Per-tick multiplicative vruntime jitter (work imbalance); this is
    // what desynchronizes epochs and produces sustained migration churn.
    double vruntime_jitter = 0.15;
    // OMP_DYNAMIC=TRUE (the paper's setting): the SGI-MP library slowly
    // adjusts each application's thread count toward its fair share of the
    // machine. The adjustment is sluggish — the paper's diagnosis is the
    // "unresponsiveness of the native runtime system to changes in the
    // system load" — so overcommit persists through every transient.
    bool omp_dynamic = true;
    SimDuration omp_adjust_period = 20 * kSecond;
    // Threads added/removed per adjustment.
    int omp_adjust_step = 1;
    // The library never drops a team below this fraction of its request
    // (it adjusts around the program's own parallelism, not the machine).
    double omp_min_fraction = 0.6;
  };

  explicit IrixTimeShare(Params params, Rng rng);

  std::string name() const override { return "IRIX"; }
  bool is_time_sharing() const override { return true; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  bool ShouldAdmit(int running_jobs, int free_cpus) const override;

  void TimeShareTick(Machine& machine, const PolicyContext& ctx, SimDuration dt,
                     std::vector<CpuHandoff>* handoffs, std::vector<TimeShare>* shares) override;

  // Total kernel-thread migrations performed so far (threads dispatched on a
  // CPU different from their previous one).
  long long total_thread_migrations() const { return total_thread_migrations_; }

  // Current kernel-thread count of `job` (for tests).
  int ThreadCountOf(JobId job) const;

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  // Kernel threads live in threads_ in dispatch order: lowest key first,
  // ties to the older thread (lower seq).
  struct Thread {
    // vruntime_s, less the affinity bonus if the thread ran last tick; set
    // wherever either changes.
    double key = 0.0;
    double vruntime_s = 0.0;
    // Creation sequence number, renumbered densely at each shape change.
    int seq = 0;
    JobId job = kIdleJob;
    int last_cpu = -1;
    // Last position of `job` in ctx.jobs; checked before every use.
    int pos = -1;
  };

  void AddThread(JobId job) { threads_.push_back(Thread{.seq = next_seq_++, .job = job}); }
  // Slow OMP_DYNAMIC thread-count adaptation toward the fair share.
  void AdjustThreadCounts(const PolicyContext& ctx, int ncpus);
  // Sorts threads_ back into creation order and renumbers seq from 0;
  // called whenever threads_ changes shape, before any AddThread.
  void RestoreCreationOrder();

  Params params_;
  Rng rng_;
  std::vector<Thread> threads_;
  int next_seq_ = 0;
  // Per-tick scratch: per CPU (kReclaimed / kAssigned) and per ctx.jobs
  // position (dispatched threads / migrations). Ints, not chars: a char
  // store may alias the thread array and the RNG state.
  std::vector<int> cpu_state_;
  std::vector<int> running_count_;
  std::vector<int> migrations_;
  Counter* dispatch_ticks_ = nullptr;
  long long total_thread_migrations_ = 0;
  SimTime next_adjust_ = 0;
  SimTime clock_ = 0;
};

}  // namespace pdpa

#endif  // SRC_RM_IRIX_H_
