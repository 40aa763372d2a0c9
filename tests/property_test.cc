// Parameterized property tests across modules:
//  * SelfAnalyzer accuracy across the whole application catalog
//  * PDPA convergence across target efficiencies and profiles
//  * ResourceManager safety under an adversarial (random-plan) policy
//  * Application progress conservation across tick sizes
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "src/app/application.h"
#include "src/common/rng.h"
#include "src/core/pdpa_policy.h"
#include "src/rm/resource_manager.h"
#include "src/runtime/nth_lib.h"

namespace pdpa {
namespace {

AppCosts NoCosts() {
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 0;
  return costs;
}

// ---------------------------------------------------------------------------
// SelfAnalyzer accuracy: for every catalog application and several
// allocations, the noiseless measured speedup must track the true curve
// (up to the Amdahl-factor normalization error at the baseline).

struct AnalyzerCase {
  AppClass app_class;
  int procs;
};

class AnalyzerAccuracyTest : public ::testing::TestWithParam<AnalyzerCase> {};

TEST_P(AnalyzerAccuracyTest, MeasuredSpeedupTracksTrueCurve) {
  const AnalyzerCase& param = GetParam();
  AppProfile profile = MakeProfile(param.app_class);
  const int baseline = std::max(1, profile.baseline_procs);
  auto app = std::make_unique<Application>(1, profile, NoCosts());
  SelfAnalyzerParams analyzer_params;
  analyzer_params.noise_sigma = 0.0;
  analyzer_params.amdahl_factor = 1.0;  // exact normalization for this check
  Registry registry;
  NthLibBinding binding(std::move(app), analyzer_params, Rng(1), AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  binding.set_report_sink(&reports);
  binding.SetProcessors(param.procs, 0);
  binding.StartJob(0);
  for (SimTime t = 0; t < 120 * kSecond && reports.empty(); t += 20 * kMillisecond) {
    binding.Tick(t, 20 * kMillisecond);
  }
  ASSERT_FALSE(reports.empty()) << "no measurement produced";
  // Expected measurement: S(p) / S(b) * b (normalization assumes a
  // perfectly-efficient baseline).
  const double true_s = profile.speedup->SpeedupAt(param.procs);
  const double base_s = profile.speedup->SpeedupAt(std::min(baseline, param.procs));
  const double expected = true_s / base_s * std::min(baseline, param.procs);
  EXPECT_NEAR(reports.back().speedup, expected, expected * 0.05)
      << profile.name << " at " << param.procs;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, AnalyzerAccuracyTest,
    ::testing::Values(AnalyzerCase{AppClass::kSwim, 8}, AnalyzerCase{AppClass::kSwim, 16},
                      AnalyzerCase{AppClass::kSwim, 30}, AnalyzerCase{AppClass::kBt, 8},
                      AnalyzerCase{AppClass::kBt, 20}, AnalyzerCase{AppClass::kBt, 30},
                      AnalyzerCase{AppClass::kHydro2d, 8}, AnalyzerCase{AppClass::kHydro2d, 16},
                      AnalyzerCase{AppClass::kApsi, 2}, AnalyzerCase{AppClass::kApsi, 8}));

// ---------------------------------------------------------------------------
// PDPA convergence: a single application on an otherwise idle machine must
// settle (STABLE or floor), with an allocation whose *true* efficiency is
// acceptable or that is explained by a resource/request limit.

struct ConvergenceCase {
  AppClass app_class;
  double target_eff;
  int initial_free;
};

// gtest prints parameters into the test list (and so into ctest names);
// without this it dumps the struct's raw bytes, padding included.
void PrintTo(const ConvergenceCase& c, std::ostream* os) {
  *os << "{" << AppClassName(c.app_class) << ", " << c.target_eff << ", " << c.initial_free
      << "}";
}

class PdpaConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(PdpaConvergenceTest, SingleAppSettlesAtAcceptableAllocation) {
  const ConvergenceCase& param = GetParam();
  const AppProfile profile = MakeProfile(param.app_class);

  Simulation sim;
  ResourceManager::Params rm_params;
  rm_params.num_cpus = param.initial_free;
  rm_params.analyzer.noise_sigma = 0.0;
  rm_params.app_costs = NoCosts();
  PdpaParams pdpa_params;
  pdpa_params.target_eff = param.target_eff;
  pdpa_params.high_eff = std::max(0.9, param.target_eff);
  auto policy = std::make_unique<PdpaPolicy>(pdpa_params, PdpaMlParams{});
  PdpaPolicy* policy_ptr = policy.get();
  ResourceManager rm(rm_params, std::move(policy), &sim, Rng(3));
  rm.Start();
  rm.StartJob(0, profile, profile.default_request, 0);

  // Run long enough for the search to settle but not for the job to finish.
  sim.RunUntil(20 * kSecond);
  if (!rm.HasJob(0)) {
    GTEST_SKIP() << "job finished before settling window";
  }
  const PdpaAutomaton* automaton = policy_ptr->AutomatonFor(0);
  ASSERT_NE(automaton, nullptr);
  EXPECT_TRUE(automaton->Settled()) << automaton->DebugString();

  const int alloc = automaton->current_alloc();
  EXPECT_GE(alloc, 1);
  EXPECT_LE(alloc, profile.default_request);
  // If not at the floor or the request, the settled allocation's true
  // efficiency must be >= target (allowing the normalization bias of the
  // Amdahl factor and one step of overshoot).
  if (alloc > 1 && alloc < profile.default_request) {
    const double true_eff = profile.speedup->EfficiencyAt(alloc);
    EXPECT_GT(true_eff, param.target_eff - 0.12) << automaton->DebugString();
  }
}

// "bt_t70_cpus60": class, target efficiency in percent, free CPUs.
std::string ConvergenceCaseName(const ::testing::TestParamInfo<ConvergenceCase>& info) {
  const std::string app = AppClassName(info.param.app_class);
  return app.substr(0, app.find('.')) + "_t" +
         std::to_string(std::lround(info.param.target_eff * 100)) + "_cpus" +
         std::to_string(info.param.initial_free);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PdpaConvergenceTest,
    ::testing::Values(ConvergenceCase{AppClass::kBt, 0.7, 60},
                      ConvergenceCase{AppClass::kBt, 0.7, 8},
                      ConvergenceCase{AppClass::kBt, 0.8, 60},
                      ConvergenceCase{AppClass::kHydro2d, 0.7, 60},
                      ConvergenceCase{AppClass::kHydro2d, 0.5, 60},
                      ConvergenceCase{AppClass::kApsi, 0.7, 60},
                      ConvergenceCase{AppClass::kSwim, 0.7, 12},
                      ConvergenceCase{AppClass::kSwim, 0.7, 60}),
    ConvergenceCaseName);

// ---------------------------------------------------------------------------
// RM safety under an adversarial policy that emits random plans: the RM
// must clamp everything to [1, request] and never overcommit the machine.

class ChaosPolicy : public SchedulingPolicy {
 public:
  explicit ChaosPolicy(Rng rng) : rng_(rng) {}

  std::string name() const override { return "Chaos"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override {
    AllocationPlan plan = RandomPlan(ctx);
    plan[job] = std::max(1, plan.contains(job) ? plan[job] : 1);
    return plan;
  }
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override {
    (void)job;
    return RandomPlan(ctx);
  }
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override {
    (void)report;
    return RandomPlan(ctx);
  }
  AllocationPlan OnQuantum(const PolicyContext& ctx) override { return RandomPlan(ctx); }
  bool ShouldAdmit(int running_jobs, int free_cpus) const override {
    (void)free_cpus;
    return running_jobs < 4;
  }

 private:
  AllocationPlan RandomPlan(const PolicyContext& ctx) {
    AllocationPlan plan;
    if (ctx.jobs.empty()) {
      return plan;
    }
    // Random counts that always sum to <= total_cpus (the policy contract);
    // the RM additionally clamps each to [1, request].
    int budget = ctx.total_cpus;
    for (const PolicyJobInfo& job : ctx.jobs) {
      const int upper = std::max(1, budget - static_cast<int>(ctx.jobs.size()));
      const int count = rng_.UniformInt(0, std::min(upper, 40));
      plan[job.id] = count;
      budget -= std::clamp(count, 1, job.request);
    }
    return plan;
  }

  Rng rng_;
};

TEST(RmChaosTest, NeverOvercommitsAndAlwaysCompletes) {
  Simulation sim;
  ResourceManager::Params rm_params;
  rm_params.num_cpus = 32;
  rm_params.analyzer.noise_sigma = 0.05;
  ResourceManager rm(rm_params, std::make_unique<ChaosPolicy>(Rng(77)), &sim, Rng(5));
  std::vector<JobId> finished;
  rm.set_job_finish_callback([&](JobId job, SimTime) { finished.push_back(job); });
  rm.Start();

  const AppProfile profile = AppProfileBuilder("chaos-app")
                                 .WithAmdahl(0.9)
                                 .WithWork(20.0)
                                 .WithIterations(20)
                                 .WithRequest(12)
                                 .Build();
  for (JobId job = 0; job < 4; ++job) {
    rm.StartJob(job, profile, 12, sim.now());
  }
  // Tick-by-tick invariant check while the chaos policy thrashes. Absolute
  // horizons: under tick elision the next pending event may lie beyond a
  // relative now()+dt horizon, and RunUntil leaves now() parked in that case
  // (see the RunUntil contract), so now()+dt stepping would never advance.
  for (int step = 0; step < 4000 && finished.size() < 4u; ++step) {
    sim.RunUntil(static_cast<SimTime>(step + 1) * 20 * kMillisecond);
    int total = 0;
    for (JobId job = 0; job < 4; ++job) {
      const int alloc = rm.AllocationOf(job);
      if (rm.HasJob(job)) {
        ASSERT_GE(alloc, 1);
        ASSERT_LE(alloc, 12);
        total += alloc;
      }
    }
    ASSERT_LE(total, 32);
    ASSERT_GE(rm.machine().FreeCpus(), 0);
  }
  EXPECT_EQ(finished.size(), 4u) << "jobs must finish even under a chaotic policy";
}

// ---------------------------------------------------------------------------
// Progress conservation: the wall time to finish a fixed application must
// be independent of the tick size used to integrate it.

class TickInvarianceTest : public ::testing::TestWithParam<SimDuration> {};

TEST_P(TickInvarianceTest, CompletionTimeIndependentOfTick) {
  const SimDuration tick = GetParam();
  AppProfile profile = AppProfileBuilder("tick-app")
                           .WithCurve({{1, 1.0}, {16, 12.0}})
                           .WithWork(30.0)
                           .WithIterations(30)
                           .Build();
  Application app(1, profile, NoCosts());
  app.SetAllocation(10, 0);
  app.Start(0);
  SimTime now = 0;
  while (!app.finished() && now < 200 * kSecond) {
    app.Advance(now, tick);
    now += tick;
  }
  ASSERT_TRUE(app.finished());
  // True wall time = 30 / S(10); S(10) = 1 + 9/15*11 = 7.6.
  const double expected_s = 30.0 / profile.speedup->SpeedupAt(10);
  EXPECT_NEAR(TimeToSeconds(app.finish_time()), expected_s, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Ticks, TickInvarianceTest,
                         ::testing::Values(kMillisecond, 7 * kMillisecond, 20 * kMillisecond,
                                           100 * kMillisecond, kSecond));

}  // namespace
}  // namespace pdpa
