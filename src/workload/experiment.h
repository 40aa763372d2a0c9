// ExperimentRunner: the facade that assembles one complete NANOS stack
// (machine + RM + QS + runtime bindings + trace) and executes a workload
// under one policy. pdpa_figures, the sweep engine and the integration
// tests go through this entry point.
//
// Each run builds its own Simulation, which owns the run's counter registry
// and carries the config's sinks to every layer; the final counter snapshot
// comes back in ExperimentResult::counters. Concurrent runs therefore need
// no registry plumbing, only sinks of their own.
#ifndef SRC_WORKLOAD_EXPERIMENT_H_
#define SRC_WORKLOAD_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pdpa.h"
#include "src/metrics/metrics.h"
#include "src/obs/counters.h"
#include "src/obs/timeseries.h"
#include "src/qs/queuing_system.h"
#include "src/rm/policy.h"
#include "src/rm/resource_manager.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/catalog.h"

namespace pdpa {

enum class PolicyKind : int {
  kIrix = 0,
  kEquipartition = 1,
  kEqualEfficiency = 2,
  kPdpa = 3,
  // Related-work baseline (McCann et al.), not part of the paper's four.
  kMcCannDynamic = 4,
};

const char* PolicyKindName(PolicyKind kind);
// Accepts the command-line names: irix, equip, equal_eff, pdpa, dynamic.
// Returns false on anything else, leaving *out untouched.
bool ParsePolicyKind(std::string_view text, PolicyKind* out);

struct ExperimentConfig {
  WorkloadId workload = WorkloadId::kW1;
  double load = 1.0;
  PolicyKind policy = PolicyKind::kPdpa;
  std::uint64_t seed = 42;

  int num_cpus = 60;
  // Fixed ML for the baselines; default (initial) ML for PDPA.
  int multiprogramming_level = 4;
  PdpaParams pdpa;
  // Ablation: disable PDPA's coordinated ML rule (fixed ML like baselines).
  bool pdpa_coordinated_ml = true;

  // Overrides every request to 30 CPUs ("not tuned" experiments).
  bool untuned = false;

  // Record the CPU ownership trace (needed for Fig. 5 / Table 2).
  bool record_trace = false;

  ResourceManager::Params rm;

  // Safety cutoff; experiments that have not drained by then are reported
  // with completed = false.
  SimDuration max_sim_time = 6 * 3600 * kSecond;

  // Job-selection order within the queue (extension; the paper uses FCFS).
  QueueOrder queue_order = QueueOrder::kFcfs;
  // Classic rigid regime: rigid jobs wait for their full request instead of
  // starting folded (see QueuingSystem::Options).
  bool hold_rigid_until_fit = false;

  // Use a pre-built job trace instead of generating one (SWF replay). When
  // non-empty, workload/load/seed/untuned are ignored for generation.
  std::vector<JobSpec> jobs_override;

  // Flight-recorder sinks (borrowed, optional), handed to the run's
  // Simulation (see Simulation::Sinks). Concurrent runs need their own.
  EventLog* event_log = nullptr;
  TimeSeriesSampler* timeseries = nullptr;

  // Host-time self-profiler (borrowed, optional). Span hit counts are a
  // deterministic function of the simulated schedule, nanosecond totals are
  // host-dependent.
  Profiler* profiler = nullptr;
};

struct ExperimentResult {
  std::string policy_name;
  WorkloadMetrics metrics;
  bool completed = false;
  double sim_end_s = 0.0;

  // Only meaningful when record_trace was set.
  TraceStats trace_stats;
  std::string ascii_view;
  // Paraver (.prv) rendering of the trace, ready to write to a file.
  std::string paraver_trace;

  // Multiprogramming level over time (seconds, running jobs) and its peak.
  std::vector<std::pair<double, int>> ml_timeline_s;
  int max_ml = 0;

  // Machine utilization over the run (owned CPU time / capacity).
  double utilization = 0.0;

  // Allocation changes applied by the RM over the run.
  long long reallocations = 0;

  // Per-job outcomes (submit/start/finish), for observability cross-checks.
  std::vector<JobOutcome> outcomes;

  // Per-class slowdown (response / exec) distributions from the QS. Always
  // populated; integer bucket counts merge exactly across replicas.
  std::map<AppClass, LogHistogram> slowdown;

  // The run's registry at the end of the run (the --counters dump).
  RegistrySnapshot counters;
};

// Builds the policy instance for `config`.
std::unique_ptr<SchedulingPolicy> MakePolicy(const ExperimentConfig& config);

ExperimentResult RunExperiment(const ExperimentConfig& config);

// RunExperiment with a pre-resolved job trace (must equal what BuildJobs
// would produce for `config`). Lets the sweep engine share one immutable
// trace across the cells of a group instead of regenerating it per cell.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               std::shared_ptr<const std::vector<JobSpec>> jobs);

// ---- Shared-prefix forking (DESIGN.md §12) ---------------------------------
//
// A sweep grid re-runs the same workload trace under many policies. Until
// the first job arrives, the simulation's observable state is policy-
// independent: no job-visible policy callback can fire, only the clock, the
// tick/quantum machinery and the pre-arrival machine samples advance. The
// sweep engine therefore runs that prefix once per (workload, load, seed)
// group and forks every policy x cell from the stored snapshot. Outputs are
// byte-identical to cold runs (events JSONL, time-series CSV, sweep CSV,
// metrics); registry counters additionally match exactly for quantum-passive
// policies.

// Resolves the job trace for `config` (jobs_override or BuildWorkload) as an
// immutable shared vector, so forked cells alias one copy.
std::shared_ptr<const std::vector<JobSpec>> BuildJobs(const ExperimentConfig& config);

// Everything needed to start a cell at the divergence point instead of t=0.
// Built once per group by BuildPrefixSnapshot; read-only afterwards, so
// concurrent forked cells may share one snapshot without locking.
struct PrefixSnapshot {
  // Simulation clock at the end of the prefix run (< first arrival).
  SimTime divergence = 0;
  ResourceManager::ResumeState rm;
  // Prefix instrument state, restored into each forked cell's registry so a
  // quantum-passive cell's final counter dump matches a cold run exactly.
  RegistrySnapshot registry;
  // Pre-arrival machine samples; replayed into the forked cell's sampler.
  // Only populated when the snapshot was built with a time-series sampler.
  std::vector<TimeSeriesSampler::MachinePoint> machine_points;
  bool with_timeseries = false;
  // The workload trace, shared read-only by every forked cell.
  std::shared_ptr<const std::vector<JobSpec>> jobs;
};

// Policy-independent prefix feasibility: the group's prefix can be run once
// and snapshotted. Requires a non-empty trace whose first arrival lies
// beyond the first scheduler quantum (so the cold run's pending tick and
// quantum events were rescheduled after the arrivals were enqueued, which is
// what makes same-instant event order reproducible) and before the cutoff;
// CPU-ownership traces record the prefix and cannot fork.
bool PrefixForkable(const ExperimentConfig& config, const std::vector<JobSpec>& jobs);

// Full per-cell eligibility: PrefixForkable plus a policy without its own
// per-tick randomness (IRIX time-sharing draws from a policy-owned Rng and
// never elides, so it replays the prefix cold).
bool ForkEligible(const ExperimentConfig& config, const std::vector<JobSpec>& jobs);

// Runs the policy-independent prefix of `config`'s group once, under a
// sentinel policy that aborts on any job-visible callback (so a snapshot
// can only exist for a genuinely policy-independent prefix), and captures
// the divergence-point state. The snapshot records pre-arrival machine
// samples iff config.timeseries is set; every cell forked from it must make
// the same choice. Requires PrefixForkable(config, *jobs).
PrefixSnapshot BuildPrefixSnapshot(const ExperimentConfig& config,
                                   std::shared_ptr<const std::vector<JobSpec>> jobs);

// RunExperiment, but starting from `snapshot` instead of t=0. Requires
// ForkEligible(config, *snapshot.jobs) and a timeseries setting matching the
// snapshot's. Byte-identical to RunExperiment(config) for events JSONL,
// time-series CSV and every ExperimentResult field.
ExperimentResult RunExperimentFrom(const ExperimentConfig& config,
                                   const PrefixSnapshot& snapshot);

}  // namespace pdpa

#endif  // SRC_WORKLOAD_EXPERIMENT_H_
