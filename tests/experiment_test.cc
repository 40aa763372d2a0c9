// End-to-end tests of the experiment facade itself: configuration plumbing,
// artifact validity (Paraver/ASCII), and cross-policy determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/trace/paraver_reader.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

TEST(ExperimentTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(PolicyKindName(PolicyKind::kIrix), "IRIX");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kEquipartition), "Equip");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kEqualEfficiency), "Equal_eff");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kPdpa), "PDPA");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kMcCannDynamic), "Dynamic");

  for (PolicyKind kind :
       {PolicyKind::kIrix, PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency,
        PolicyKind::kPdpa, PolicyKind::kMcCannDynamic}) {
    ExperimentConfig config;
    config.policy = kind;
    EXPECT_NE(MakePolicy(config), nullptr);
  }
}

TEST(ExperimentTest, EveryPolicyIsDeterministic) {
  for (PolicyKind kind :
       {PolicyKind::kIrix, PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency,
        PolicyKind::kPdpa, PolicyKind::kMcCannDynamic}) {
    ExperimentConfig config;
    config.workload = WorkloadId::kW1;
    config.load = 0.6;
    config.policy = kind;
    const ExperimentResult a = RunExperiment(config);
    const ExperimentResult b = RunExperiment(config);
    EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s) << PolicyKindName(kind);
    EXPECT_EQ(a.reallocations, b.reallocations) << PolicyKindName(kind);
  }
}

long long CounterOf(const RegistrySnapshot& snapshot, const std::string& name) {
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return -1;
}

// Each run counts into the registry its own Simulation owns: repeating a run
// reproduces its counters instead of adding to the previous run's.
TEST(ExperimentTest, SequentialRunsSeeOnlyTheirOwnCounters) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 0.6;
  config.policy = PolicyKind::kPdpa;
  const ExperimentResult first = RunExperiment(config);
  const ExperimentResult second = RunExperiment(config);
  EXPECT_GT(CounterOf(first.counters, "analyzer.reports"), 0);
  EXPECT_GT(CounterOf(first.counters, "sim.events_dispatched"), 0);
  EXPECT_EQ(CounterOf(second.counters, "analyzer.reports"),
            CounterOf(first.counters, "analyzer.reports"));
  EXPECT_EQ(CounterOf(second.counters, "sim.events_dispatched"),
            CounterOf(first.counters, "sim.events_dispatched"));
  EXPECT_EQ(second.counters.ToString(), first.counters.ToString());
}

TEST(ExperimentTest, TraceArtifactsAreValidAndConsistent) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW2;
  config.load = 0.8;
  config.policy = PolicyKind::kPdpa;
  config.record_trace = true;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);

  // ASCII view: header plus one row per rendered CPU.
  EXPECT_NE(result.ascii_view.find("time axis"), std::string::npos);
  EXPECT_NE(result.ascii_view.find("cpu  0"), std::string::npos);

  // The embedded Paraver trace parses, covers all 60 CPUs, and yields
  // utilization consistent with the live recorder's.
  std::istringstream prv(result.paraver_trace);
  ParaverTrace trace;
  std::string error;
  ASSERT_TRUE(ReadParaverTrace(prv, &trace, &error)) << error;
  EXPECT_EQ(trace.num_cpus, 60);
  EXPECT_EQ(trace.num_jobs, result.metrics.jobs);
  const TraceStats offline = ComputeStatsFromTrace(trace);
  EXPECT_NEAR(offline.utilization, result.utilization, 0.05);
}

TEST(ExperimentTest, MlTimelineIsTimeOrderedAndEndsAtZero) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW3;
  config.load = 0.8;
  config.policy = PolicyKind::kPdpa;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.ml_timeline_s.empty());
  double prev = -1.0;
  int peak = 0;
  for (const auto& [when, ml] : result.ml_timeline_s) {
    EXPECT_GE(when, prev);
    EXPECT_GE(ml, 0);
    peak = std::max(peak, ml);
    prev = when;
  }
  EXPECT_EQ(result.ml_timeline_s.back().second, 0);
  EXPECT_EQ(peak, result.max_ml);
}

TEST(ExperimentTest, NumCpusIsRespected) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW2;
  config.load = 0.6;
  config.policy = PolicyKind::kEquipartition;
  config.num_cpus = 16;
  config.record_trace = true;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  std::istringstream prv(result.paraver_trace);
  ParaverTrace trace;
  ASSERT_TRUE(ReadParaverTrace(prv, &trace, nullptr));
  EXPECT_EQ(trace.num_cpus, 16);
  // Nobody can own more than the machine.
  for (const auto& [app_class, m] : result.metrics.per_class) {
    EXPECT_LE(m.avg_alloc, 16.0 + 1e-9);
  }
}

TEST(ExperimentTest, CutoffReportedAsIncomplete) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW3;
  config.load = 1.0;
  config.policy = PolicyKind::kEquipartition;
  config.max_sim_time = 30 * kSecond;  // far too short for the workload
  const ExperimentResult result = RunExperiment(config);
  EXPECT_FALSE(result.completed);
  EXPECT_LE(result.sim_end_s, 90.0);  // one RunUntil slice past the cutoff
}

}  // namespace
}  // namespace pdpa
