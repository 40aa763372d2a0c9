#include "src/workload/experiment.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/core/pdpa_policy.h"
#include "src/qs/queuing_system.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"
#include "src/rm/irix.h"
#include "src/rm/mccann_dynamic.h"
#include "src/sim/simulation.h"
#include <sstream>

#include "src/trace/ascii_view.h"
#include "src/trace/paraver_writer.h"

namespace pdpa {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kIrix:
      return "IRIX";
    case PolicyKind::kEquipartition:
      return "Equip";
    case PolicyKind::kEqualEfficiency:
      return "Equal_eff";
    case PolicyKind::kPdpa:
      return "PDPA";
    case PolicyKind::kMcCannDynamic:
      return "Dynamic";
  }
  return "?";
}

bool ParsePolicyKind(std::string_view text, PolicyKind* out) {
  static constexpr std::pair<std::string_view, PolicyKind> kNames[] = {
      {"irix", PolicyKind::kIrix},
      {"equip", PolicyKind::kEquipartition},
      {"equal_eff", PolicyKind::kEqualEfficiency},
      {"pdpa", PolicyKind::kPdpa},
      {"dynamic", PolicyKind::kMcCannDynamic},
  };
  for (const auto& [name, kind] : kNames) {
    if (text == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<SchedulingPolicy> MakePolicy(const ExperimentConfig& config) {
  switch (config.policy) {
    case PolicyKind::kIrix: {
      IrixTimeShare::Params params;
      params.fixed_ml = config.multiprogramming_level;
      return std::make_unique<IrixTimeShare>(params, Rng(config.seed ^ 0x1217ULL));
    }
    case PolicyKind::kEquipartition:
      return std::make_unique<Equipartition>(config.multiprogramming_level);
    case PolicyKind::kEqualEfficiency: {
      EqualEfficiency::Params params;
      params.fixed_ml = config.multiprogramming_level;
      return std::make_unique<EqualEfficiency>(params);
    }
    case PolicyKind::kPdpa: {
      PdpaMlParams ml;
      ml.default_ml = config.multiprogramming_level;
      ml.coordinated = config.pdpa_coordinated_ml;
      return std::make_unique<PdpaPolicy>(config.pdpa, ml);
    }
    case PolicyKind::kMcCannDynamic: {
      McCannDynamic::Params params;
      params.fixed_ml = config.multiprogramming_level;
      return std::make_unique<McCannDynamic>(params);
    }
  }
  PDPA_CHECK(false) << "unknown policy";
  return nullptr;
}

namespace {

// The policy a shared-prefix run executes under: any job-visible callback
// aborts the process. A snapshot can therefore only exist for a prefix in
// which no policy decision fired — divergence-point detection is correct by
// construction, not by convention (fork_test additionally asserts the
// non-vacuity of that claim via ForkStats).
class PrefixSentinelPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "PrefixSentinel"; }
  // Mirrors the passive policies' elision schedule: the prefix materializes
  // ticks only for time-series samples, exactly as a cold PDPA/Equip run.
  bool quantum_passive() const override { return true; }
  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override {
    (void)ctx;
    PDPA_CHECK(false) << "job " << job << " started inside the shared prefix";
    return {};
  }
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override {
    (void)ctx;
    PDPA_CHECK(false) << "job " << job << " finished inside the shared prefix";
    return {};
  }
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override {
    (void)ctx;
    PDPA_CHECK(false) << "performance report for job " << report.job
                      << " inside the shared prefix";
    return {};
  }
  AllocationPlan OnQuantum(const PolicyContext& ctx) override {
    // Reached only under Params::exact_ticks (elision off disables passivity).
    PDPA_CHECK(ctx.jobs.empty()) << "quantum with running jobs inside the shared prefix";
    return {};
  }
  bool ShouldAdmit(int running_jobs, int free_cpus) const override {
    (void)running_jobs;
    (void)free_cpus;
    PDPA_CHECK(false) << "admission probe inside the shared prefix";
    return false;
  }
};

SimTime FirstArrival(const std::vector<JobSpec>& jobs) {
  PDPA_CHECK(!jobs.empty());
  SimTime first = jobs.front().submit;
  for (const JobSpec& spec : jobs) {
    first = std::min(first, spec.submit);
  }
  return first;
}

// Assembles the policy/RM/QS stack for one run. The pieces live in the
// caller's frame; this only centralizes construction so the cold and forked
// entry points cannot drift apart. The sinks reach every layer through the
// simulation.
struct Stack {
  Simulation sim;
  ResourceManager rm;
  QueuingSystem qs;

  Stack(const ExperimentConfig& config, TraceRecorder* trace,
        std::shared_ptr<const std::vector<JobSpec>> jobs)
      : sim(Simulation::Sinks{.event_log = config.event_log,
                              .timeseries = config.timeseries,
                              .trace = trace,
                              .profiler = config.profiler}),
        rm(WithCpus(config), MakePolicy(config), &sim, Rng(config.seed ^ 0x5EEDULL)),
        qs(&sim, &rm, std::move(jobs), QsOptions(config)) {
    rm.set_queue_depth_provider([this] { return qs.queued(); });
  }

  static ResourceManager::Params WithCpus(const ExperimentConfig& config) {
    ResourceManager::Params rm_params = config.rm;
    rm_params.num_cpus = config.num_cpus;
    return rm_params;
  }

  static QueuingSystem::Options QsOptions(const ExperimentConfig& config) {
    QueuingSystem::Options qs_options;
    qs_options.order = config.queue_order;
    qs_options.hold_rigid_until_fit = config.hold_rigid_until_fit;
    return qs_options;
  }
};

// Drives a started stack to completion and collects the result — the tail
// shared by the cold and forked entry points.
ExperimentResult DriveAndCollect(const ExperimentConfig& config, Stack& stack,
                                 TraceRecorder* trace, std::size_t num_jobs) {
  // Run in one-minute slices until the workload drains or the cutoff hits.
  SimTime horizon = 0;
  while (!stack.qs.AllJobsDone() && stack.sim.now() < config.max_sim_time) {
    horizon += 60 * kSecond;
    stack.sim.RunUntil(horizon);
  }
  stack.rm.Stop();
  if (config.event_log != nullptr) {
    config.event_log->RunEnd(stack.sim.now(), static_cast<int>(num_jobs),
                             stack.qs.AllJobsDone());
  }

  ExperimentResult result;
  result.policy_name = stack.rm.policy().name();
  result.completed = stack.qs.AllJobsDone();
  result.sim_end_s = TimeToSeconds(stack.sim.now());
  result.metrics = ComputeMetrics(stack.qs.outcomes(), stack.rm.alloc_integral_us());
  result.max_ml = stack.qs.max_ml();
  result.reallocations = stack.rm.total_reallocations();
  result.outcomes = stack.qs.outcomes();
  result.slowdown = stack.qs.slowdown();
  result.ml_timeline_s.reserve(stack.qs.ml_timeline().size());
  for (const auto& [when, ml] : stack.qs.ml_timeline()) {
    result.ml_timeline_s.emplace_back(TimeToSeconds(when), ml);
  }
  result.counters = stack.sim.registry().Snapshot();
  if (trace != nullptr) {
    trace->Finalize(stack.sim.now());
    result.trace_stats = trace->ComputeStats();
    result.utilization = result.trace_stats.utilization;
    result.ascii_view = RenderAsciiView(*trace);
    std::ostringstream prv;
    WriteParaverTrace(*trace, static_cast<int>(num_jobs), prv);
    result.paraver_trace = prv.str();
  }
  return result;
}

}  // namespace

std::shared_ptr<const std::vector<JobSpec>> BuildJobs(const ExperimentConfig& config) {
  if (!config.jobs_override.empty()) {
    return std::make_shared<const std::vector<JobSpec>>(config.jobs_override);
  }
  return std::make_shared<const std::vector<JobSpec>>(
      BuildWorkload(config.workload, config.load, config.seed, config.untuned, config.num_cpus));
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  return RunExperiment(config, BuildJobs(config));
}

ExperimentResult RunExperiment(const ExperimentConfig& config,
                               std::shared_ptr<const std::vector<JobSpec>> jobs) {
  PDPA_CHECK(jobs != nullptr);
  std::unique_ptr<TraceRecorder> trace;
  if (config.record_trace) {
    trace = std::make_unique<TraceRecorder>(config.num_cpus);
  }

  Stack stack(config, trace.get(), jobs);

  if (config.event_log != nullptr) {
    config.event_log->RunStart(stack.rm.policy().name(), WorkloadName(config.workload),
                               config.load, config.seed, config.num_cpus);
  }

  stack.rm.Start();
  stack.qs.Start();
  return DriveAndCollect(config, stack, trace.get(), jobs->size());
}

bool PrefixForkable(const ExperimentConfig& config, const std::vector<JobSpec>& jobs) {
  if (config.record_trace || jobs.empty()) {
    return false;
  }
  const SimTime first = FirstArrival(jobs);
  // > quantum: the cold run's pending tick and quantum events must have
  // been (re)scheduled after QueuingSystem::Start enqueued the arrivals, so
  // the fork's qs-first start order reproduces same-instant event order.
  return first > config.rm.quantum && first < config.max_sim_time;
}

bool ForkEligible(const ExperimentConfig& config, const std::vector<JobSpec>& jobs) {
  return config.policy != PolicyKind::kIrix && PrefixForkable(config, jobs);
}

PrefixSnapshot BuildPrefixSnapshot(const ExperimentConfig& config,
                                   std::shared_ptr<const std::vector<JobSpec>> jobs) {
  PDPA_CHECK(jobs != nullptr);
  PDPA_CHECK(PrefixForkable(config, *jobs));
  const SimTime first = FirstArrival(*jobs);

  PrefixSnapshot snapshot;
  snapshot.with_timeseries = config.timeseries != nullptr;
  snapshot.jobs = std::move(jobs);

  // A throwaway private stack: sentinel policy, no QS (nothing arrives), no
  // event log (the only prefix record, run_start, is policy-specific and
  // emitted by each forked cell itself), private registry and sampler.
  TimeSeriesSampler prefix_ts;
  Simulation sim(Simulation::Sinks{.timeseries = snapshot.with_timeseries ? &prefix_ts : nullptr});
  ResourceManager rm(Stack::WithCpus(config), std::make_unique<PrefixSentinelPolicy>(), &sim,
                     Rng(config.seed ^ 0x5EEDULL));
  rm.Start();
  sim.RunUntil(first - 1);

  // With pre-arrival events pending (a tick at the next sample instant) the
  // clock rests at the last dispatched event, not at first - 1; the forked
  // cells resume from exactly that instant.
  snapshot.divergence = sim.Snapshot();
  snapshot.rm = rm.ResumeStateNow();
  snapshot.registry = sim.registry().Snapshot();
  snapshot.machine_points = prefix_ts.machine();
  return snapshot;
}

ExperimentResult RunExperimentFrom(const ExperimentConfig& config,
                                   const PrefixSnapshot& snapshot) {
  PDPA_CHECK(snapshot.jobs != nullptr);
  PDPA_CHECK(ForkEligible(config, *snapshot.jobs)) << "RunExperimentFrom on an ineligible config";
  PDPA_CHECK_EQ(snapshot.with_timeseries, config.timeseries != nullptr)
      << "snapshot and cell disagree about time-series capture";

  Stack stack(config, nullptr, snapshot.jobs);

  // Adopt the prefix run's observable state. Restore the registry after the
  // whole stack registered its instruments, so everything absent from the
  // snapshot is zeroed and everything present is overwritten in one pass.
  stack.sim.registry().Restore(snapshot.registry);
  if (config.timeseries != nullptr) {
    for (const TimeSeriesSampler::MachinePoint& point : snapshot.machine_points) {
      config.timeseries->AddMachine(point);
    }
  }
  if (config.event_log != nullptr) {
    config.event_log->RunStart(stack.rm.policy().name(), WorkloadName(config.workload),
                               config.load, config.seed, config.num_cpus);
  }
  stack.sim.Restore(snapshot.divergence);

  // Event-order parity at shared instants: in the cold run, the pending
  // tick/quantum events were (re)scheduled during the prefix — after
  // QueuingSystem::Start had enqueued every arrival — so they sort after
  // same-instant arrivals. Start the QS first to reproduce that order.
  stack.qs.Start();
  stack.rm.StartResumed(snapshot.rm);
  return DriveAndCollect(config, stack, nullptr, snapshot.jobs->size());
}

}  // namespace pdpa
