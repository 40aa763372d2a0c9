// End-to-end experiments: the paper's headline behaviours must hold on the
// full stack (QS + RM + runtime + applications).
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/obs/timeseries.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

ExperimentConfig BaseConfig(WorkloadId workload, double load, PolicyKind policy,
                            std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.workload = workload;
  config.load = load;
  config.policy = policy;
  config.seed = seed;
  return config;
}

TEST(IntegrationTest, AllPoliciesCompleteW1) {
  for (PolicyKind policy : {PolicyKind::kIrix, PolicyKind::kEquipartition,
                            PolicyKind::kEqualEfficiency, PolicyKind::kPdpa}) {
    const ExperimentResult result = RunExperiment(BaseConfig(WorkloadId::kW1, 0.8, policy));
    EXPECT_TRUE(result.completed) << PolicyKindName(policy);
    EXPECT_GT(result.metrics.jobs, 0) << PolicyKindName(policy);
    for (const auto& [app_class, metrics] : result.metrics.per_class) {
      EXPECT_GT(metrics.avg_exec_s, 0.0);
      EXPECT_GE(metrics.avg_response_s, metrics.avg_exec_s - 1e-6);
    }
  }
}

// Machines larger than the paper's 64 CPUs run to completion, and the jobs
// never hold more CPUs than the machine has: between two machine samples,
// the windows of the jobs that ran through the whole interval average to at
// most the machine size.
TEST(IntegrationTest, TwoHundredCpuRunsKeepAllocationWithinTheMachine) {
  constexpr int kCpus = 200;
  for (PolicyKind policy : {PolicyKind::kIrix, PolicyKind::kPdpa}) {
    ExperimentConfig config = BaseConfig(WorkloadId::kW1, 1.0, policy);
    config.num_cpus = kCpus;
    TimeSeriesSampler timeseries;
    config.timeseries = &timeseries;
    const ExperimentResult result = RunExperiment(config);
    EXPECT_TRUE(result.completed) << PolicyKindName(policy);
    EXPECT_GT(result.metrics.jobs, 0) << PolicyKindName(policy);
    EXPECT_LE(result.utilization, 1.0 + 1e-9) << PolicyKindName(policy);
    std::map<std::pair<SimTime, SimTime>, double> full_windows;
    for (const TimeSeriesSampler::AppPoint& point : timeseries.apps()) {
      full_windows[{point.t_start, point.t_end}] += point.alloc;
    }
    ASSERT_FALSE(timeseries.machine().empty());
    for (std::size_t i = 0; i < timeseries.machine().size(); ++i) {
      const TimeSeriesSampler::MachinePoint& sample = timeseries.machine()[i];
      EXPECT_GE(sample.free_cpus, 0) << PolicyKindName(policy) << " t " << sample.t;
      EXPECT_LE(sample.free_cpus, kCpus) << PolicyKindName(policy) << " t " << sample.t;
      if (i > 0) {
        const auto window = full_windows.find({timeseries.machine()[i - 1].t, sample.t});
        if (window != full_windows.end()) {
          EXPECT_LE(window->second, kCpus + 1e-9) << PolicyKindName(policy) << " t " << sample.t;
        }
      }
    }
  }
}

TEST(IntegrationTest, DeterministicForSameSeed) {
  const ExperimentResult a = RunExperiment(BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kPdpa));
  const ExperimentResult b = RunExperiment(BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kPdpa));
  ASSERT_EQ(a.metrics.jobs, b.metrics.jobs);
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  for (const auto& [app_class, metrics] : a.metrics.per_class) {
    EXPECT_DOUBLE_EQ(metrics.avg_response_s, b.metrics.per_class.at(app_class).avg_response_s);
  }
}

TEST(IntegrationTest, PdpaConvergesToEfficientAllocations) {
  // w2 at full load: PDPA must give bt substantially more CPUs than hydro2d
  // (the paper reports ~20 vs ~9).
  const ExperimentResult result = RunExperiment(BaseConfig(WorkloadId::kW2, 1.0,
                                                           PolicyKind::kPdpa));
  ASSERT_TRUE(result.completed);
  const double bt_alloc = result.metrics.per_class.at(AppClass::kBt).avg_alloc;
  const double hydro_alloc = result.metrics.per_class.at(AppClass::kHydro2d).avg_alloc;
  EXPECT_GT(bt_alloc, hydro_alloc + 4.0);
  EXPECT_LT(hydro_alloc, 14.0);
}

TEST(IntegrationTest, PdpaShrinksApsiToFloor) {
  ExperimentConfig config = BaseConfig(WorkloadId::kW3, 0.6, PolicyKind::kPdpa);
  config.untuned = true;  // apsi asks for 30
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  // PDPA walks apsi down to very few processors despite the request of 30.
  EXPECT_LT(result.metrics.per_class.at(AppClass::kApsi).avg_alloc, 8.0);
}

TEST(IntegrationTest, PdpaBeatsFixedMlOnW3Response) {
  // The paper's headline: with non-scalable applications in the mix, PDPA's
  // coordinated ML slashes response times versus Equipartition.
  const ExperimentResult equip =
      RunExperiment(BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kEquipartition));
  const ExperimentResult pdpa = RunExperiment(BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kPdpa));
  ASSERT_TRUE(equip.completed);
  ASSERT_TRUE(pdpa.completed);
  const double equip_resp = equip.metrics.per_class.at(AppClass::kBt).avg_response_s;
  const double pdpa_resp = pdpa.metrics.per_class.at(AppClass::kBt).avg_response_s;
  EXPECT_GT(equip_resp, pdpa_resp * 2.0) << "PDPA should win response by a large factor";
  // At a bounded execution-time cost.
  const double equip_exec = equip.metrics.per_class.at(AppClass::kBt).avg_exec_s;
  const double pdpa_exec = pdpa.metrics.per_class.at(AppClass::kBt).avg_exec_s;
  EXPECT_LT(pdpa_exec, equip_exec * 1.6);
}

TEST(IntegrationTest, PdpaRaisesMultiprogrammingLevel) {
  const ExperimentResult equip =
      RunExperiment(BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kEquipartition));
  const ExperimentResult pdpa = RunExperiment(BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kPdpa));
  EXPECT_EQ(equip.max_ml, 4);
  EXPECT_GT(pdpa.max_ml, 6);
}

TEST(IntegrationTest, PdpaRobustToInitialMl) {
  // Fig. 7's conclusion: PDPA's results barely move with the configured ML.
  std::vector<double> responses;
  for (int ml : {2, 3, 4}) {
    ExperimentConfig config = BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kPdpa);
    config.multiprogramming_level = ml;
    const ExperimentResult result = RunExperiment(config);
    ASSERT_TRUE(result.completed);
    responses.push_back(result.metrics.per_class.at(AppClass::kBt).avg_response_s);
  }
  const double spread = *std::max_element(responses.begin(), responses.end()) -
                        *std::min_element(responses.begin(), responses.end());
  EXPECT_LT(spread / responses[2], 0.2);
}

TEST(IntegrationTest, EquipartitionDegradesAtLowMl) {
  // Equipartition with ML=2 wastes the machine on w2 (hydro2d cannot use its
  // half): response times worsen versus ML=4.
  ExperimentConfig ml2 = BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kEquipartition);
  ml2.multiprogramming_level = 2;
  ExperimentConfig ml4 = BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kEquipartition);
  const double resp2 =
      RunExperiment(ml2).metrics.per_class.at(AppClass::kBt).avg_response_s;
  const double resp4 =
      RunExperiment(ml4).metrics.per_class.at(AppClass::kBt).avg_response_s;
  EXPECT_GT(resp2, resp4 * 1.2);
}

TEST(IntegrationTest, TraceStatsOrderingMatchesTable2) {
  TraceStats irix;
  TraceStats pdpa;
  TraceStats equip;
  for (PolicyKind policy :
       {PolicyKind::kIrix, PolicyKind::kPdpa, PolicyKind::kEquipartition}) {
    ExperimentConfig config = BaseConfig(WorkloadId::kW1, 1.0, policy);
    config.record_trace = true;
    const ExperimentResult result = RunExperiment(config);
    ASSERT_TRUE(result.completed);
    if (policy == PolicyKind::kIrix) {
      irix = result.trace_stats;
    } else if (policy == PolicyKind::kPdpa) {
      pdpa = result.trace_stats;
    } else {
      equip = result.trace_stats;
    }
  }
  // IRIX migrates orders of magnitude more than the space-sharing policies.
  EXPECT_GT(irix.migrations, 100 * std::max(1LL, pdpa.migrations));
  EXPECT_GT(irix.migrations, 10 * std::max(1LL, equip.migrations));
  // And its bursts are far shorter.
  EXPECT_LT(irix.avg_burst_ms * 10, pdpa.avg_burst_ms);
  // PDPA reallocates no more than Equipartition (stability).
  EXPECT_LE(pdpa.migrations, equip.migrations);
}

TEST(IntegrationTest, RelativeSpeedupAblationOverallocatesSwim) {
  // Disabling the RelativeSpeedup test makes PDPA chase swim's superlinear
  // curve far beyond its useful range (DESIGN.md ablation). Controlled
  // scenario: a single swim climbing from a small initial allocation (a
  // trace of back-to-back swims so PDPA always starts them from the INC
  // search rather than handing over the whole idle machine).
  auto run = [](bool use_relative_speedup) {
    ExperimentConfig config = BaseConfig(WorkloadId::kW1, 1.0, PolicyKind::kPdpa);
    config.pdpa.use_relative_speedup = use_relative_speedup;
    // Two bt squatters hold 24 CPUs each (a stable allocation for bt), so
    // swim arrives with only 12 free, starts small, and climbs through the
    // INC search once the squatters finish — the exact regime the
    // RelativeSpeedup rule governs.
    JobSpec squatter1;
    squatter1.id = 0;
    squatter1.app_class = AppClass::kBt;
    squatter1.submit = 0;
    squatter1.request = 24;
    JobSpec squatter2 = squatter1;
    squatter2.id = 1;
    squatter2.submit = kSecond;
    JobSpec swim;
    swim.id = 2;
    swim.app_class = AppClass::kSwim;
    swim.submit = 95 * kSecond;  // just before the squatters finish
    swim.request = 30;
    config.jobs_override = {squatter1, squatter2, swim};
    const ExperimentResult result = RunExperiment(config);
    EXPECT_TRUE(result.completed);
    return result.metrics.per_class.at(AppClass::kSwim).avg_alloc;
  };
  const double swim_with = run(true);
  const double swim_without = run(false);
  EXPECT_GT(swim_without, swim_with + 2.0)
      << "without the RelativeSpeedup test PDPA should overshoot swim";
}

TEST(IntegrationTest, CoordinationAblationLosesResponseWin) {
  // PDPA with the ML rule disabled must lose the w3 response-time collapse
  // (DESIGN.md ablation: the two contributions need each other).
  ExperimentConfig full = BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kPdpa);
  ExperimentConfig alloc_only = full;
  alloc_only.pdpa_coordinated_ml = false;
  const ExperimentResult with_ml = RunExperiment(full);
  const ExperimentResult without_ml = RunExperiment(alloc_only);
  ASSERT_TRUE(with_ml.completed);
  ASSERT_TRUE(without_ml.completed);
  EXPECT_EQ(without_ml.max_ml, 4);
  const double full_resp = with_ml.metrics.per_class.at(AppClass::kBt).avg_response_s;
  const double ablated_resp = without_ml.metrics.per_class.at(AppClass::kBt).avg_response_s;
  EXPECT_GT(ablated_resp, full_resp * 2.0);
}

TEST(IntegrationTest, DynamicTargetEffCompletesAndTrimsUnderLoad) {
  ExperimentConfig config = BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kPdpa);
  config.pdpa.dynamic_target = true;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  // Under full load the adaptive target is strict: hydro2d ends at or below
  // its static-0.7 allocation.
  EXPECT_LE(result.metrics.per_class.at(AppClass::kHydro2d).avg_alloc, 12.0);
}

TEST(IntegrationTest, SjfQueueOrderReducesMeanResponseUnderBacklog) {
  // With heavy backlog (Equip, fixed ML) shortest-demand-first must not be
  // worse than FCFS on mean response across all jobs.
  ExperimentConfig fcfs = BaseConfig(WorkloadId::kW3, 1.0, PolicyKind::kEquipartition);
  ExperimentConfig sjf = fcfs;
  sjf.queue_order = QueueOrder::kShortestDemandFirst;
  const ExperimentResult a = RunExperiment(fcfs);
  const ExperimentResult b = RunExperiment(sjf);
  auto mean_response = [](const ExperimentResult& r) {
    double total = 0.0;
    int jobs = 0;
    for (const auto& [app_class, metrics] : r.metrics.per_class) {
      total += metrics.avg_response_s * metrics.count;
      jobs += metrics.count;
    }
    return total / jobs;
  };
  EXPECT_LE(mean_response(b), mean_response(a) * 1.05);
}

TEST(IntegrationTest, RigidJobsFoldAndStartImmediatelyUnderPdpa) {
  // A malleable squatter holds the machine; a rigid 30-process job arrives.
  // Under PDPA it must start folded (no wait for 30 free CPUs) and finish.
  std::vector<JobSpec> jobs;
  JobSpec squatter;
  squatter.id = 0;
  squatter.app_class = AppClass::kBt;
  squatter.submit = 0;
  squatter.request = 30;
  JobSpec rigid;
  rigid.id = 1;
  rigid.app_class = AppClass::kBt;
  rigid.submit = 10 * kSecond;
  rigid.request = 30;
  rigid.rigid = true;
  jobs = {squatter, rigid};

  ExperimentConfig config = BaseConfig(WorkloadId::kW1, 1.0, PolicyKind::kPdpa);
  config.jobs_override = jobs;
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.completed);
  // Both are bt: check the rigid one through the outcomes via wait time.
  // The rigid job must have started (almost) immediately.
  const ClassMetrics bt = result.metrics.per_class.at(AppClass::kBt);
  EXPECT_EQ(bt.count, 2);
  EXPECT_LT(bt.avg_wait_s, 5.0);
}

TEST(IntegrationTest, SwfReplayMatchesGeneratedRun) {
  // Round-trip the workload through SWF and replay it: identical outcome.
  const auto jobs = BuildWorkload(WorkloadId::kW1, 0.8, 42);
  ExperimentConfig direct = BaseConfig(WorkloadId::kW1, 0.8, PolicyKind::kEquipartition);
  ExperimentConfig replay = direct;
  replay.jobs_override = jobs;
  const ExperimentResult a = RunExperiment(direct);
  const ExperimentResult b = RunExperiment(replay);
  EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
}

TEST(IntegrationTest, DynamicBaselineCompletesWithMoreReallocations) {
  // The related-work Dynamic policy must run workloads to completion, and
  // its eager idleness-driven repartitioning must reallocate more than
  // PDPA's converge-and-hold (the paper's critique).
  const ExperimentResult dynamic =
      RunExperiment(BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kMcCannDynamic));
  const ExperimentResult pdpa = RunExperiment(BaseConfig(WorkloadId::kW2, 1.0, PolicyKind::kPdpa));
  ASSERT_TRUE(dynamic.completed);
  ASSERT_TRUE(pdpa.completed);
  EXPECT_GT(dynamic.reallocations, pdpa.reallocations);
}

TEST(IntegrationTest, UtilizationLowerUnderPdpaThanEquip) {
  // Table 4's observation: PDPA leaves processors idle rather than burn
  // them inefficiently.
  ExperimentConfig equip = BaseConfig(WorkloadId::kW4, 0.6, PolicyKind::kEquipartition);
  equip.untuned = true;
  equip.record_trace = true;
  ExperimentConfig pdpa = BaseConfig(WorkloadId::kW4, 0.6, PolicyKind::kPdpa);
  pdpa.untuned = true;
  pdpa.record_trace = true;
  const ExperimentResult e = RunExperiment(equip);
  const ExperimentResult p = RunExperiment(pdpa);
  EXPECT_LT(p.utilization, e.utilization);
}

}  // namespace
}  // namespace pdpa
