// Parameterized sweeps over model knobs, asserting the monotone
// relationships the models are built on.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/machine/machine.h"
#include "src/rm/irix.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

// --- IRIX: a larger affinity bonus must yield longer bursts and fewer
// migrations (the knob Table 2's burst lengths are calibrated with).

class IrixAffinityTest : public ::testing::TestWithParam<int> {};

long long MigrationsWithBonus(SimDuration bonus) {
  IrixTimeShare::Params params;
  params.affinity_bonus = bonus;
  params.omp_dynamic = false;  // keep the thread population constant
  Registry registry;
  IrixTimeShare policy(params, Rng(7));
  policy.Attach(registry);
  Machine machine(16);
  PolicyContext ctx;
  ctx.total_cpus = 16;
  for (JobId job = 1; job <= 2; ++job) {
    PolicyJobInfo info;
    info.id = job;
    info.request = 16;
    ctx.jobs.push_back(info);
    (void)policy.OnJobStart(ctx, job);
  }
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  for (int tick = 0; tick < 1000; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  }
  return policy.total_thread_migrations();
}

TEST(IrixAffinitySweepTest, LargerBonusMeansFewerMigrations) {
  const long long short_bonus = MigrationsWithBonus(20 * kMillisecond);
  const long long long_bonus = MigrationsWithBonus(500 * kMillisecond);
  EXPECT_GT(short_bonus, long_bonus * 2)
      << "short=" << short_bonus << " long=" << long_bonus;
}

// --- Folding overhead: a more expensive fold must slow rigid jobs more.

class FoldingOverheadTest : public ::testing::TestWithParam<double> {};

TEST_P(FoldingOverheadTest, ProgressScalesWithOverhead) {
  const double overhead = GetParam();
  AppProfile profile = AppProfileBuilder("fold")
                           .WithCurve({{1, 1.0}, {16, 16.0}})
                           .WithWork(100.0)
                           .WithIterations(10)
                           .WithRequest(8)
                           .Build();
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 0;
  costs.folding_overhead = overhead;
  Application app(1, profile, costs);
  app.set_request(8);
  app.set_rigid(true);
  app.SetAllocation(4, 0);
  app.Start(0);
  app.Advance(0, kSecond);
  // speed = S(8) * 0.5 * overhead.
  EXPECT_NEAR(app.progress_s(), 8.0 * 0.5 * overhead, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Overheads, FoldingOverheadTest,
                         ::testing::Values(0.5, 0.7, 0.85, 1.0));

// --- Load monotonicity: higher offered load must not reduce response
// times under a fixed-ML policy (queueing only gets worse).

TEST(LoadMonotonicityTest, EquipartitionResponseGrowsWithLoad) {
  double prev = 0.0;
  for (double load : {0.6, 0.8, 1.0}) {
    ExperimentConfig config;
    config.workload = WorkloadId::kW3;
    config.load = load;
    config.policy = PolicyKind::kEquipartition;
    const ExperimentResult r = RunExperiment(config);
    ASSERT_TRUE(r.completed);
    const double resp = r.metrics.per_class.at(AppClass::kBt).avg_response_s;
    EXPECT_GE(resp, prev * 0.95) << "load " << load;
    prev = resp;
  }
}

// --- Machine SetOwner direct path (used by the time-sharing scheduler).

TEST(MachineSetOwnerTest, DirectOwnershipBypassesPartitioning) {
  Machine machine(4);
  machine.SetOwner(0, 7);
  machine.SetOwner(1, 7);
  machine.SetOwner(2, 9);
  EXPECT_EQ(machine.CountOf(7), 2);
  EXPECT_EQ(machine.OwnerOf(2), 9);
  EXPECT_EQ(machine.CountOf(9), 1);
  EXPECT_EQ(machine.FreeCpus(), 1);
  machine.SetOwner(0, kIdleJob);
  EXPECT_EQ(machine.CountOf(7), 1);
}

// --- PDPA step sweep: any step converges to an acceptable allocation for
// a medium-scalability application (hydro2d-like), only the path differs.

class StepSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(StepSweepTest, HydroConvergesForAnyStep) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW2;
  config.load = 0.8;
  config.policy = PolicyKind::kPdpa;
  config.pdpa.step = GetParam();
  const ExperimentResult r = RunExperiment(config);
  ASSERT_TRUE(r.completed);
  // hydro2d must end well below its 30-CPU request for every step size.
  EXPECT_LT(r.metrics.per_class.at(AppClass::kHydro2d).avg_alloc, 18.0);
}

INSTANTIATE_TEST_SUITE_P(Steps, StepSweepTest, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace pdpa
