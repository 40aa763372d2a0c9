// NANOS Queuing System: user-level job submission and multiprogramming-level
// enforcement.
//
// The QS owns the FCFS queue and replays a workload trace repeatably. The
// *when to start* decision is delegated to the processor scheduling policy
// (through ResourceManager::CanStartJob) — the coordination the paper
// proposes — while the QS keeps the *which job* decision (FCFS here).
#ifndef SRC_QS_QUEUING_SYSTEM_H_
#define SRC_QS_QUEUING_SYSTEM_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/obs/slowdown.h"
#include "src/qs/job.h"
#include "src/rm/resource_manager.h"
#include "src/sim/simulation.h"

namespace pdpa {

// Job-selection order: the QS keeps the "which job" decision while the
// processor scheduler keeps the "when" decision (Sec. 4.3).
enum class QueueOrder : int {
  kFcfs = 0,
  // Shortest processor-demand first (request x ideal execution time, which
  // the QS can estimate from the submitted profile). Classic SJF variant;
  // listed here as an extension beyond the paper's FCFS.
  kShortestDemandFirst = 1,
};

class QueuingSystem {
 public:
  struct Options {
    QueueOrder order = QueueOrder::kFcfs;
    // Classic rigid regime: a rigid job at the head of the queue waits
    // until its full request is free instead of starting folded. Blocks the
    // queue behind it (FCFS semantics). Default off: rigid jobs fold.
    bool hold_rigid_until_fit = false;
  };

  // Records into the simulation's event log (Simulation::Sinks), if any.
  QueuingSystem(Simulation* sim, ResourceManager* rm, std::vector<JobSpec> workload,
                QueueOrder order = QueueOrder::kFcfs);
  QueuingSystem(Simulation* sim, ResourceManager* rm, std::vector<JobSpec> workload,
                Options options);
  // Shared-workload overload: forked sweep cells replay the same immutable
  // trace, so they alias one vector instead of copying it per cell.
  QueuingSystem(Simulation* sim, ResourceManager* rm,
                std::shared_ptr<const std::vector<JobSpec>> workload, Options options);

  QueuingSystem(const QueuingSystem&) = delete;
  QueuingSystem& operator=(const QueuingSystem&) = delete;

  // Schedules the arrival events and hooks the RM callbacks; call once.
  void Start();

  bool AllJobsDone() const { return outcomes_.size() == workload_->size(); }
  int running() const { return running_; }
  int queued() const { return static_cast<int>(queue_.size()); }

  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

  // Per-class slowdown (response / execution) distributions, observed at
  // completion. Deterministic: bucket counts are a function of the simulated
  // schedule only, so replicas merge exactly (LogHistogram::Merge).
  const std::map<AppClass, LogHistogram>& slowdown() const { return slowdown_; }

  // Multiprogramming level over time: (time, running jobs) recorded at every
  // start and finish.
  const std::vector<std::pair<SimTime, int>>& ml_timeline() const { return ml_timeline_; }
  int max_ml() const { return max_ml_; }

 private:
  void OnArrival(const JobSpec& spec);
  void TryStartJobs(SimTime now);
  void OnJobFinish(JobId job, SimTime finish_time);
  void RecordMl(SimTime now);

  // Removes and returns the next job to start according to `order_`.
  JobSpec PopNext();

  Simulation* sim_;
  ResourceManager* rm_;
  std::shared_ptr<const std::vector<JobSpec>> workload_;
  Options options_;

  std::deque<JobSpec> queue_;
  std::map<JobId, JobOutcome> in_flight_;
  std::vector<JobOutcome> outcomes_;
  std::map<AppClass, LogHistogram> slowdown_;
  std::vector<std::pair<SimTime, int>> ml_timeline_;
  int running_ = 0;
  int max_ml_ = 0;
  bool started_ = false;

  // The simulation's event log, read at construction; may be null.
  EventLog* events_;
  // Per-run instruments, resolved once from the simulation's registry.
  Counter* submits_;
  Counter* starts_;
  Counter* finishes_;
  Counter* holds_;
  Histogram* wait_seconds_;
  // Deduplication key for admit_hold events: last (running, queued) pair a
  // hold was reported at, so repeated probes in one state emit one event.
  std::pair<int, int> last_hold_{-1, -1};
};

}  // namespace pdpa

#endif  // SRC_QS_QUEUING_SYSTEM_H_
