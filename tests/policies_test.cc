// Tests for the baseline scheduling policies: Equipartition,
// Equal_efficiency and the IRIX time-sharing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pdpa_policy.h"
#include "src/machine/machine.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"
#include "src/rm/irix.h"
#include "src/rm/mccann_dynamic.h"

namespace pdpa {
namespace {

// --- AllocationPlan ----------------------------------------------------------

std::vector<std::pair<JobId, int>> Entries(const AllocationPlan& plan) {
  return std::vector<std::pair<JobId, int>>(plan.begin(), plan.end());
}

TEST(AllocationPlanTest, IteratesInAscendingJobIdWhateverTheInsertionOrder) {
  AllocationPlan plan;
  for (const JobId job : {5, 1, 9, 3, 7}) {
    plan[job] = 10 * job;
  }
  EXPECT_EQ(plan.size(), 5u);
  EXPECT_EQ(Entries(plan),
            (std::vector<std::pair<JobId, int>>{{1, 10}, {3, 30}, {5, 50}, {7, 70}, {9, 90}}));
}

TEST(AllocationPlanTest, SubscriptInsertsZeroAndUpdatesInPlace) {
  AllocationPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan[4], 0);  // inserted
  ++plan[4];
  ++plan[4];
  plan[2] = 7;
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.at(4), 2);
  EXPECT_EQ(plan.at(2), 7);
  EXPECT_TRUE(plan.contains(2));
  EXPECT_FALSE(plan.contains(3));
  EXPECT_EQ(plan.find(3), plan.end());
}

TEST(AllocationPlanTest, EmplaceKeepsTheExistingValue) {
  AllocationPlan plan;
  const auto [first, inserted] = plan.emplace(3, 5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->second, 5);
  const auto [again, inserted_again] = plan.emplace(3, 9);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, 5);
  EXPECT_EQ(plan.at(3), 5);
  EXPECT_EQ(plan.size(), 1u);
}

TEST(AllocationPlanTest, SpillsPastTheInlineCapacityAndStaysSorted) {
  // Matches a JobId-keyed std::map entry for entry while it grows well past
  // the inline capacity, in a scrambled insertion order.
  AllocationPlan plan;
  std::map<JobId, int> reference;
  Rng rng(11);
  const int n = 5 * static_cast<int>(AllocationPlan::kInlineJobs);
  for (int k = 0; k < 4 * n; ++k) {
    const JobId job = rng.UniformInt(0, n);
    const int count = rng.UniformInt(0, 60);
    if (rng.UniformInt(0, 1) == 0) {
      plan[job] = count;
      reference[job] = count;
    } else {
      plan.emplace(job, count);
      reference.emplace(job, count);
    }
    ASSERT_EQ(Entries(plan),
              (std::vector<std::pair<JobId, int>>(reference.begin(), reference.end())));
  }
  EXPECT_GT(plan.size(), AllocationPlan::kInlineJobs);
}

TEST(AllocationPlanTest, EqualityComparesEntries) {
  AllocationPlan a;
  a[2] = 4;
  a[1] = 3;
  AllocationPlan b;
  b[1] = 3;
  b[2] = 4;
  EXPECT_EQ(a, b);
  b[2] = 5;
  EXPECT_FALSE(a == b);
  b[2] = 4;
  b[0] = 0;
  EXPECT_FALSE(a == b);
  EXPECT_EQ(AllocationPlan{}, AllocationPlan{});
  // A spilled plan equals an inline one with the same entries.
  AllocationPlan big;
  const int n = static_cast<int>(AllocationPlan::kInlineJobs) + 1;
  for (int job = 0; job < n; ++job) {
    big[job] = job;
  }
  AllocationPlan copy = big;
  EXPECT_EQ(copy, big);
  copy[n] = 0;
  EXPECT_FALSE(copy == big);
}

PolicyContext MakeContext(std::vector<std::pair<JobId, int>> jobs_requests, int total_cpus = 60,
                          int free_cpus = 0) {
  PolicyContext ctx;
  ctx.total_cpus = total_cpus;
  ctx.free_cpus = free_cpus;
  for (const auto& [id, request] : jobs_requests) {
    PolicyJobInfo info;
    info.id = id;
    info.request = request;
    ctx.jobs.push_back(info);
  }
  return ctx;
}

TEST(EquipartitionTest, EqualSplitTwoBigJobs) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}}));
  EXPECT_EQ(plan.at(1), 30);
  EXPECT_EQ(plan.at(2), 30);
}

TEST(EquipartitionTest, EqualSplitFourBigJobs) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30}}));
  for (JobId j = 1; j <= 4; ++j) {
    EXPECT_EQ(plan.at(j), 15);
  }
}

TEST(EquipartitionTest, SmallRequestCappedAndLeftoverRedistributed) {
  // apsi requests 2: its leftover share goes to the others.
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 2}, {3, 30}}));
  EXPECT_EQ(plan.at(2), 2);
  EXPECT_EQ(plan.at(1) + plan.at(3), 58);
  EXPECT_LE(plan.at(1), 30);
  EXPECT_LE(plan.at(3), 30);
}

TEST(EquipartitionTest, UnevenRemainderDistributedDeterministically) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30},
                                                           {5, 30}, {6, 30}, {7, 30}}));
  // 60 / 7 = 8 remainder 4: first four jobs get 9.
  int total = 0;
  for (const auto& [job, count] : plan) {
    total += count;
    EXPECT_GE(count, 8);
    EXPECT_LE(count, 9);
  }
  EXPECT_EQ(total, 60);
}

// The CPU-by-CPU round-robin water-filling EqualSplit replaced by its
// closed form, kept here as the reference.
AllocationPlan RoundRobinSplit(const PolicyContext& ctx) {
  AllocationPlan plan;
  for (const PolicyJobInfo& job : ctx.jobs) {
    plan[job.id] = 0;
  }
  int remaining = ctx.total_cpus;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (const PolicyJobInfo& job : ctx.jobs) {
      if (remaining == 0) {
        break;
      }
      if (plan[job.id] < job.request) {
        ++plan[job.id];
        --remaining;
        progress = true;
      }
    }
  }
  return plan;
}

TEST(EquipartitionTest, EqualSplitMatchesRoundRobinWaterFilling) {
  Rng rng(2026);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::pair<JobId, int>> jobs;
    const int count = rng.UniformInt(0, 12);
    for (int i = 0; i < count; ++i) {
      // Ids out of order, so context order and map order differ.
      jobs.emplace_back(static_cast<JobId>(rng.UniformInt(0, 3) * 100 + i),
                        rng.UniformInt(0, 5) == 0 ? rng.UniformInt(0, 3) : rng.UniformInt(1, 70));
    }
    const PolicyContext ctx = MakeContext(jobs, rng.UniformInt(0, 130));
    EXPECT_EQ(Equipartition::EqualSplit(ctx), RoundRobinSplit(ctx)) << "trial " << trial;
  }
}

TEST(EquipartitionTest, AdmissionIsFixedMl) {
  Registry registry;
  Equipartition policy(4);
  policy.Attach(registry);
  EXPECT_TRUE(policy.ShouldAdmit(/*running_jobs=*/3, /*free_cpus=*/0));
  EXPECT_FALSE(policy.ShouldAdmit(/*running_jobs=*/4, /*free_cpus=*/60));
}

TEST(EquipartitionTest, ReallocatesOnlyAtArrivalAndCompletion) {
  Registry registry;
  Equipartition policy(4);
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  EXPECT_FALSE(policy.OnJobStart(ctx, 2).empty());
  EXPECT_FALSE(policy.OnJobFinish(ctx, 3).empty());
  PerfReport report;
  report.job = 1;
  EXPECT_TRUE(policy.OnReport(ctx, report).empty());
  EXPECT_TRUE(policy.OnQuantum(ctx).empty());
}

TEST(EqualEfficiencyTest, UnknownJobAssumedLinear) {
  Registry registry;
  EqualEfficiency policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}});
  (void)policy.OnJobStart(ctx, 1);
  EXPECT_DOUBLE_EQ(policy.ExtrapolatedSpeedup(1, 10), 10.0);
}

TEST(EqualEfficiencyTest, ExtrapolatesPowerLawFromTwoSamples) {
  Registry registry;
  EqualEfficiency policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}});
  (void)policy.OnJobStart(ctx, 1);
  PerfReport report;
  report.job = 1;
  report.procs = 4;
  report.speedup = 4.0;
  (void)policy.OnReport(ctx, report);
  report.procs = 16;
  report.speedup = 8.0;  // alpha = log(2)/log(4) = 0.5
  (void)policy.OnReport(ctx, report);
  EXPECT_NEAR(policy.ExtrapolatedSpeedup(1, 64), 16.0, 0.01);
  EXPECT_NEAR(policy.ExtrapolatedSpeedup(1, 4), 4.0, 0.01);
}

TEST(EqualEfficiencyTest, MostEfficientJobGetsMoreProcessors) {
  Registry registry;
  EqualEfficiency policy;
  policy.Attach(registry);
  // Capacity below the sum of requests so the split is contested.
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}}, /*total_cpus=*/40);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  // Job 1 scales (alpha ~1), job 2 does not (alpha ~0.1).
  PerfReport r;
  r.job = 1;
  r.procs = 4;
  r.speedup = 3.9;
  (void)policy.OnReport(ctx, r);
  r.procs = 8;
  r.speedup = 7.8;
  (void)policy.OnReport(ctx, r);
  r.job = 2;
  r.procs = 4;
  r.speedup = 1.3;
  (void)policy.OnReport(ctx, r);
  r.procs = 8;
  r.speedup = 1.4;
  const AllocationPlan plan = policy.OnReport(ctx, r);
  EXPECT_GT(plan.at(1), plan.at(2));
  EXPECT_EQ(plan.at(1) + plan.at(2), 40);
  EXPECT_LE(plan.at(1), 30);
}

TEST(EqualEfficiencyTest, PlanRespectsRequestsAndFloor) {
  Registry registry;
  EqualEfficiency policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 2}, {2, 30}});
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  const AllocationPlan plan = policy.OnQuantum(ctx);
  EXPECT_GE(plan.at(1), 1);
  EXPECT_LE(plan.at(1), 2);
  EXPECT_GE(plan.at(2), 1);
  EXPECT_LE(plan.at(2), 30);
}

TEST(EqualEfficiencyTest, NoiseCausesAllocationVariance) {
  // The paper's complaint: small measurement changes produce large
  // reallocation swings. Two jobs with identical true curves but noisy
  // samples should receive meaningfully different allocations over time.
  Registry registry;
  EqualEfficiency policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}}, /*total_cpus=*/40);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  Rng rng(5);
  int min_alloc = 60;
  int max_alloc = 0;
  for (int i = 0; i < 50; ++i) {
    for (JobId job : {1, 2}) {
      PerfReport r;
      r.job = job;
      r.procs = 8 + (i % 3) * 4;
      r.speedup = r.procs * 0.8 * rng.Uniform(0.95, 1.05);
      const AllocationPlan plan = policy.OnReport(ctx, r);
      min_alloc = std::min(min_alloc, plan.at(1));
      max_alloc = std::max(max_alloc, plan.at(1));
    }
  }
  EXPECT_GT(max_alloc - min_alloc, 4) << "expected allocation jitter under noise";
}

// Equal_efficiency's allocation as it was before each job was fitted once
// per reallocation: every round re-extrapolates every job at its next
// processor count and grants one processor to the earliest job with a
// strictly larger efficiency. Kept as the differential reference.
AllocationPlan ReferenceEqualEffPlan(const EqualEfficiency& policy, const PolicyContext& ctx) {
  AllocationPlan plan;
  if (ctx.jobs.empty()) {
    return plan;
  }
  int remaining = ctx.total_cpus;
  for (const PolicyJobInfo& job : ctx.jobs) {
    plan[job.id] = 1;
    --remaining;
  }
  if (remaining < 0) {
    return plan;
  }
  while (remaining > 0) {
    double best_eff = -1.0;
    JobId best_job = kIdleJob;
    for (const PolicyJobInfo& job : ctx.jobs) {
      const int next = plan[job.id] + 1;
      if (next > job.request) {
        continue;
      }
      const double eff = policy.ExtrapolatedSpeedup(job.id, next) / next;
      if (eff > best_eff) {
        best_eff = eff;
        best_job = job.id;
      }
    }
    if (best_job == kIdleJob) {
      break;
    }
    ++plan[best_job];
    --remaining;
  }
  return plan;
}

// Random sample histories drawn from a small value set, so efficiencies tie
// exactly across jobs and across processor counts; zero, negative and NaN
// speedups; requests below the machine; and, on tiny machines, more jobs
// than processors.
TEST(EqualEfficiencyDifferentialTest, IncrementalPlanMatchesPerRoundReference) {
  Rng scenario(77);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 200; ++trial) {
    Registry registry;
    EqualEfficiency policy;
    policy.Attach(registry);
    const int total_cpus = std::vector<int>{3, 8, 16, 60}[static_cast<std::size_t>(trial % 4)];
    const int njobs = scenario.UniformInt(1, total_cpus < 8 ? 5 : 4);
    PolicyContext ctx = MakeContext({}, total_cpus);
    for (int j = 0; j < njobs; ++j) {
      PolicyJobInfo info;
      info.id = 10 - j;  // descending ids: ctx order is not id order
      info.request = scenario.UniformInt(1, total_cpus + 2);
      ctx.jobs.push_back(info);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " start " << info.id);
      const AllocationPlan plan = policy.OnJobStart(ctx, info.id);
      ASSERT_EQ(plan, ReferenceEqualEffPlan(policy, ctx));
    }
    for (int step = 0; step < 40; ++step) {
      PerfReport report;
      report.job = ctx.jobs[static_cast<std::size_t>(scenario.UniformInt(0, njobs - 1))].id;
      report.procs = scenario.UniformInt(1, 8);
      const double pick = scenario.NextDouble();
      if (pick < 0.05) {
        report.speedup = kNaN;
      } else if (pick < 0.12) {
        report.speedup = 0.0;
      } else if (pick < 0.15) {
        report.speedup = -1.0;
      } else if (pick < 0.5) {
        report.speedup = static_cast<double>(report.procs);  // linear: ties at 1.0
      } else {
        report.speedup = 0.5 * scenario.UniformInt(1, 8);
      }
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " step " << step);
      // The plan first: OnReport records the sample the reference reads.
      const AllocationPlan plan = policy.OnReport(ctx, report);
      ASSERT_EQ(plan, ReferenceEqualEffPlan(policy, ctx));
      if (step % 10 == 9) {
        ASSERT_EQ(policy.OnQuantum(ctx), ReferenceEqualEffPlan(policy, ctx));
      }
    }
  }
}

TEST(IrixTest, ThreadsFollowJobLifecycle) {
  Registry registry;
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  policy.Attach(registry);
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 4}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  ASSERT_EQ(shares.size(), 1u);  // parallel to ctx.jobs: shares[0] is job 1
  EXPECT_DOUBLE_EQ(shares[0].effective_procs, 4.0);
  EXPECT_EQ(machine.CountOf(1), 4);
  (void)policy.OnJobFinish(MakeContext({}, 8), 1);
  policy.TimeShareTick(machine, MakeContext({}, 8), 20 * kMillisecond, &handoffs, &shares);
  EXPECT_TRUE(shares.empty());
  EXPECT_EQ(machine.FreeCpus(), 8);
}

TEST(IrixTest, UndercommittedRunsEverythingWithoutOverhead) {
  Registry registry;
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  policy.Attach(registry);
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 4}, {2, 4}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  ASSERT_EQ(shares.size(), 2u);  // shares[0] is job 1, shares[1] job 2
  EXPECT_DOUBLE_EQ(shares[0].effective_procs, 4.0);
  EXPECT_DOUBLE_EQ(shares[1].effective_procs, 4.0);
  EXPECT_NEAR(shares[0].overhead, 1.0, 1e-9);
}

TEST(IrixTest, OvercommitSharesCpusAndDegrades) {
  Registry registry;
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  policy.Attach(registry);
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 8}, {2, 8}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  double total_eff_procs = 0.0;
  double min_overhead = 1.0;
  for (int tick = 0; tick < 200; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
    ASSERT_EQ(shares.size(), 2u);  // shares[0] is job 1, shares[1] job 2
    total_eff_procs += shares[0].effective_procs + shares[1].effective_procs;
    min_overhead = std::min(min_overhead, shares[0].overhead);
  }
  // All 8 CPUs are always busy, split between the jobs...
  EXPECT_NEAR(total_eff_procs / 200.0, 8.0, 1e-9);
  // ...and contention overhead applies (2x overcommit).
  EXPECT_LT(min_overhead, 0.8);
}

TEST(IrixTest, TimeSlicingCausesMigrations) {
  Registry registry;
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  policy.Attach(registry);
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 8}, {2, 8}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  for (int tick = 0; tick < 500; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  }
  EXPECT_GT(policy.total_thread_migrations(), 20);
}

TEST(IrixTest, OmpDynamicDriftsThreadCountsTowardFairShare) {
  IrixTimeShare::Params params;
  params.omp_dynamic = true;
  params.omp_adjust_period = 100 * kMillisecond;  // fast, for the test
  params.omp_adjust_step = 2;
  params.omp_min_fraction = 0.5;  // floor 8 = the fair share
  Registry registry;
  IrixTimeShare policy(params, Rng(1));
  policy.Attach(registry);
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 16}, {2, 16}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  EXPECT_EQ(policy.ThreadCountOf(1), 16);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  for (int tick = 0; tick < 200; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  }
  // Fair share is 8 per job: both teams must have drifted down to it.
  EXPECT_EQ(policy.ThreadCountOf(1), 8);
  EXPECT_EQ(policy.ThreadCountOf(2), 8);
}

TEST(IrixTest, OmpDynamicDisabledKeepsRequestThreads) {
  IrixTimeShare::Params params;
  params.omp_dynamic = false;
  Registry registry;
  IrixTimeShare policy(params, Rng(1));
  policy.Attach(registry);
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 16}, {2, 16}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  for (int tick = 0; tick < 200; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  }
  EXPECT_EQ(policy.ThreadCountOf(1), 16);
  EXPECT_EQ(policy.ThreadCountOf(2), 16);
}

TEST(IrixTest, IsTimeSharingAndFixedMl) {
  Registry registry;
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  policy.Attach(registry);
  EXPECT_TRUE(policy.is_time_sharing());
  EXPECT_TRUE(policy.ShouldAdmit(/*running_jobs=*/1, /*free_cpus=*/0));
  EXPECT_FALSE(policy.ShouldAdmit(/*running_jobs=*/4, /*free_cpus=*/60));
}

TEST(McCannDynamicTest, UnknownJobsSplitLikeEquipartition) {
  Registry registry;
  McCannDynamic policy;
  policy.Attach(registry);
  const AllocationPlan plan =
      policy.OnQuantum(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30}}));
  for (JobId j = 1; j <= 4; ++j) {
    EXPECT_EQ(plan.at(j), 15);
  }
}

TEST(McCannDynamicTest, IdlenessReportMovesProcessorsImmediately) {
  Registry registry;
  McCannDynamic policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  // Job 2 reports 50% idleness at 30 processors: useful ~ 15+1.
  PerfReport report;
  report.job = 2;
  report.procs = 30;
  report.speedup = 15.0;
  report.efficiency = 0.5;
  const AllocationPlan plan = policy.OnReport(ctx, report);
  EXPECT_EQ(plan.at(2), 16);
  EXPECT_EQ(plan.at(1), 30);  // the freed processors flow to job 1
}

TEST(McCannDynamicTest, FinishForgetsJobState) {
  Registry registry;
  McCannDynamic policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  PerfReport report;
  report.job = 2;
  report.procs = 30;
  report.speedup = 3.0;
  report.efficiency = 0.1;
  (void)policy.OnReport(ctx, report);
  // Job 2 finishes and a new job reuses the id: it must start uncapped.
  (void)policy.OnJobFinish(MakeContext({{1, 30}}), 2);
  const AllocationPlan plan = policy.OnQuantum(MakeContext({{1, 30}, {2, 30}}));
  EXPECT_EQ(plan.at(2), 30);
}

TEST(McCannDynamicTest, PlanNeverBelowOneProcessor) {
  Registry registry;
  McCannDynamic policy;
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  PerfReport report;
  report.job = 1;
  report.procs = 30;
  report.speedup = 0.1;
  report.efficiency = 0.003;
  const AllocationPlan plan = policy.OnReport(ctx, report);
  EXPECT_GE(plan.at(1), 1);
}

TEST(IrixTest, ThreadReclaimsItsCpuAfterWaiting) {
  // Undercommitted after a transient: a thread that ran on cpu k and waited
  // one slice must come back to cpu k (affinity), not migrate.
  IrixTimeShare::Params params;
  params.affinity_bonus = 0;  // force alternation every tick
  params.vruntime_jitter = 0.0;
  Registry registry;
  IrixTimeShare policy(params, Rng(1));
  policy.Attach(registry);
  Machine machine(2);
  PolicyContext ctx = MakeContext({{1, 2}, {2, 2}}, 2);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  std::vector<TimeShare> shares;
  const long long before = policy.total_thread_migrations();
  for (int tick = 0; tick < 50; ++tick) {
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
  }
  // With zero jitter the two gangs alternate cleanly: after the initial
  // placements each thread returns to its own cpu, so migrations stay tiny.
  EXPECT_LE(policy.total_thread_migrations() - before, 4);
}

// The IRIX tick as it was before the dispatch permutation persisted across
// ticks: a fresh identity permutation stable_sorted by effective vruntime
// every tick, CPUs searched from 0 for each migrating thread, and per-job
// tallies in maps. Kept as the differential reference for IrixTimeShare.
class ReferenceIrix {
 public:
  ReferenceIrix(IrixTimeShare::Params params, Rng rng) : params_(params), rng_(rng) {}

  void OnJobStart(const PolicyContext& ctx, JobId job) {
    for (const PolicyJobInfo& info : ctx.jobs) {
      if (info.id == job) {
        for (int i = 0; i < info.request; ++i) {
          threads_.push_back(Thread{job, -1, false, 0.0});
        }
        break;
      }
    }
  }

  void OnJobFinish(JobId job) {
    std::erase_if(threads_, [job](const Thread& t) { return t.job == job; });
  }

  int ThreadCountOf(JobId job) const {
    return static_cast<int>(
        std::count_if(threads_.begin(), threads_.end(), [job](const Thread& t) {
          return t.job == job;
        }));
  }

  long long total_thread_migrations() const { return total_thread_migrations_; }

  std::map<JobId, TimeShare> TimeShareTick(Machine& machine, const PolicyContext& ctx,
                                           SimDuration dt, std::vector<CpuHandoff>* handoffs) {
    std::map<JobId, TimeShare> shares;
    for (const PolicyJobInfo& info : ctx.jobs) {
      shares[info.id] = TimeShare{0.0, 1.0};
    }
    const int ncpus = machine.num_cpus();
    clock_ += dt;
    if (params_.omp_dynamic && clock_ >= next_adjust_) {
      AdjustThreadCounts(ctx, ncpus);
      next_adjust_ = clock_ + params_.omp_adjust_period;
    }
    const int nthreads = static_cast<int>(threads_.size());
    if (nthreads == 0) {
      for (int c = 0; c < ncpus; ++c) {
        const JobId prev_owner = machine.OwnerOf(c);
        if (prev_owner != kIdleJob) {
          machine.SetOwner(c, kIdleJob);
          handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
        }
      }
      return shares;
    }
    const double bonus_s = TimeToSeconds(params_.affinity_bonus);
    std::vector<int> order(threads_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const Thread& ta = threads_[static_cast<std::size_t>(a)];
      const Thread& tb = threads_[static_cast<std::size_t>(b)];
      const double ka = ta.vruntime_s - (ta.running ? bonus_s : 0.0);
      const double kb = tb.vruntime_s - (tb.running ? bonus_s : 0.0);
      return ka < kb;
    });
    const int to_run = std::min(ncpus, nthreads);
    std::vector<bool> cpu_taken(static_cast<std::size_t>(ncpus), false);
    std::map<JobId, int> migrations;
    std::map<JobId, int> running_count;
    for (int i = 0; i < to_run; ++i) {
      const Thread& t = threads_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      if (t.last_cpu >= 0 && t.last_cpu < ncpus) {
        cpu_taken[static_cast<std::size_t>(t.last_cpu)] = true;
      }
    }
    std::vector<bool> cpu_assigned(static_cast<std::size_t>(ncpus), false);
    for (int i = 0; i < to_run; ++i) {
      Thread& t = threads_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      int cpu = -1;
      if (t.last_cpu >= 0 && t.last_cpu < ncpus &&
          !cpu_assigned[static_cast<std::size_t>(t.last_cpu)] &&
          cpu_taken[static_cast<std::size_t>(t.last_cpu)]) {
        cpu = t.last_cpu;
      } else {
        for (int c = 0; c < ncpus; ++c) {
          if (!cpu_taken[static_cast<std::size_t>(c)] &&
              !cpu_assigned[static_cast<std::size_t>(c)]) {
            cpu = c;
            break;
          }
        }
        if (cpu < 0) {
          for (int c = 0; c < ncpus; ++c) {
            if (!cpu_assigned[static_cast<std::size_t>(c)]) {
              cpu = c;
              break;
            }
          }
        }
        if (cpu >= 0 && t.last_cpu >= 0 && cpu != t.last_cpu) {
          ++migrations[t.job];
          ++total_thread_migrations_;
        }
      }
      cpu_assigned[static_cast<std::size_t>(cpu)] = true;
      const JobId prev_owner = machine.OwnerOf(cpu);
      if (prev_owner != t.job) {
        machine.SetOwner(cpu, t.job);
        handoffs->push_back(CpuHandoff{cpu, prev_owner, t.job});
      }
      t.last_cpu = cpu;
      t.running = true;
      t.vruntime_s += TimeToSeconds(dt) * (1.0 + rng_.Uniform(-params_.vruntime_jitter,
                                                              params_.vruntime_jitter));
      ++running_count[t.job];
    }
    for (int i = to_run; i < nthreads; ++i) {
      threads_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])].running = false;
    }
    for (int c = 0; c < ncpus; ++c) {
      if (!cpu_assigned[static_cast<std::size_t>(c)] && machine.OwnerOf(c) != kIdleJob) {
        const JobId prev_owner = machine.OwnerOf(c);
        machine.SetOwner(c, kIdleJob);
        handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
      }
    }
    const double overcommit = static_cast<double>(nthreads) / static_cast<double>(ncpus);
    const double contention =
        1.0 / (1.0 + params_.overcommit_penalty * std::max(0.0, overcommit - 1.0));
    for (auto& [job, share] : shares) {
      const int running = running_count.contains(job) ? running_count[job] : 0;
      share.effective_procs = static_cast<double>(running);
      double overhead = contention;
      if (running > 0) {
        const int migs = migrations.contains(job) ? migrations[job] : 0;
        overhead *= std::max(0.1, 1.0 - params_.migration_cost * static_cast<double>(migs) /
                                            static_cast<double>(running));
      }
      share.overhead = overhead;
    }
    return shares;
  }

 private:
  struct Thread {
    JobId job = kIdleJob;
    int last_cpu = -1;
    bool running = false;
    double vruntime_s = 0.0;
  };

  void AdjustThreadCounts(const PolicyContext& ctx, int ncpus) {
    if (ctx.jobs.empty()) {
      return;
    }
    const int fair = std::max(1, ncpus / static_cast<int>(ctx.jobs.size()));
    for (const PolicyJobInfo& info : ctx.jobs) {
      const int have = ThreadCountOf(info.id);
      const int floor_threads =
          std::max(1, static_cast<int>(info.request * params_.omp_min_fraction));
      const int want = std::min(info.request, std::max(fair, floor_threads));
      if (have > want) {
        int to_remove = std::min(params_.omp_adjust_step, have - want);
        for (auto it = threads_.rbegin(); it != threads_.rend() && to_remove > 0;) {
          if (it->job == info.id) {
            it = decltype(it)(threads_.erase(std::next(it).base()));
            --to_remove;
          } else {
            ++it;
          }
        }
      } else if (have < want) {
        for (int i = 0; i < std::min(params_.omp_adjust_step, want - have); ++i) {
          threads_.push_back(Thread{info.id, -1, false, 0.0});
        }
      }
    }
  }

  IrixTimeShare::Params params_;
  Rng rng_;
  std::vector<Thread> threads_;
  long long total_thread_migrations_ = 0;
  SimTime next_adjust_ = 0;
  SimTime clock_ = 0;
};

// Runs IrixTimeShare and the reference side by side through random job
// arrivals and departures on `ncpus` CPUs, each job requesting
// [min_request, max_request] threads, and requires identical dispatch, tick
// by tick. Trial parity and residues pick the parameters: zero jitter makes
// many threads' vruntimes tie exactly (every run adds the same dt), and an
// affinity bonus of exactly one tick ties running threads with waiting
// ones, so the (key, creation order) tie-break is exercised as much as the
// key order itself; short OMP_DYNAMIC periods reshape the thread list every
// few ticks.
void ExpectDispatchMatchesReference(Rng& scenario, int trial, int ncpus, int min_request,
                                    int max_request) {
  IrixTimeShare::Params params;
  params.vruntime_jitter = trial % 2 == 0 ? 0.0 : 0.15;
  params.affinity_bonus =
      std::vector<SimDuration>{0, 20 * kMillisecond, 80 * kMillisecond}[trial % 3];
  params.omp_dynamic = trial % 4 != 3;
  params.omp_adjust_period = scenario.UniformInt(1, 10) * 20 * kMillisecond;
  params.omp_adjust_step = scenario.UniformInt(1, 3);
  params.omp_min_fraction = scenario.Uniform(0.2, 1.0);
  const std::uint64_t seed = scenario.NextU64();
  Registry registry;
  IrixTimeShare policy(params, Rng(seed));
  policy.Attach(registry);
  ReferenceIrix reference(params, Rng(seed));
  Machine machine(ncpus);
  Machine reference_machine(ncpus);
  PolicyContext ctx = MakeContext({}, ncpus);
  JobId next_job = 1;
  std::vector<CpuHandoff> handoffs;
  std::vector<CpuHandoff> reference_handoffs;
  std::vector<TimeShare> shares;
  for (int tick = 0; tick < 300; ++tick) {
    const double event = scenario.NextDouble();
    if (event < 0.05 && ctx.jobs.size() < 4) {
      // Ids are not always ascending in ctx.jobs order.
      const JobId job = tick % 7 == 0 ? next_job + 100 : next_job;
      ++next_job;
      PolicyJobInfo info;
      info.id = job;
      info.request = scenario.UniformInt(min_request, max_request);
      ctx.jobs.push_back(info);
      (void)policy.OnJobStart(ctx, job);
      reference.OnJobStart(ctx, job);
    } else if (event < 0.08 && !ctx.jobs.empty()) {
      const std::size_t k =
          static_cast<std::size_t>(scenario.UniformInt(0, static_cast<int>(ctx.jobs.size()) - 1));
      const JobId job = ctx.jobs[k].id;
      ctx.jobs.erase(ctx.jobs.begin() + static_cast<std::ptrdiff_t>(k));
      (void)policy.OnJobFinish(ctx, job);
      reference.OnJobFinish(job);
    }
    handoffs.clear();
    reference_handoffs.clear();
    policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs, &shares);
    const std::map<JobId, TimeShare> expected =
        reference.TimeShareTick(reference_machine, ctx, 20 * kMillisecond, &reference_handoffs);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " cpus " << ncpus << " tick "
                                      << tick);
    ASSERT_EQ(handoffs.size(), reference_handoffs.size());
    for (std::size_t i = 0; i < handoffs.size(); ++i) {
      ASSERT_EQ(handoffs[i].cpu, reference_handoffs[i].cpu);
      ASSERT_EQ(handoffs[i].from, reference_handoffs[i].from);
      ASSERT_EQ(handoffs[i].to, reference_handoffs[i].to);
    }
    ASSERT_EQ(shares.size(), ctx.jobs.size());
    for (std::size_t k = 0; k < ctx.jobs.size(); ++k) {
      const TimeShare& want = expected.at(ctx.jobs[k].id);
      ASSERT_EQ(shares[k].effective_procs, want.effective_procs);
      ASSERT_EQ(shares[k].overhead, want.overhead);
      ASSERT_EQ(policy.ThreadCountOf(ctx.jobs[k].id), reference.ThreadCountOf(ctx.jobs[k].id));
    }
    ASSERT_EQ(policy.total_thread_migrations(), reference.total_thread_migrations());
  }
}

TEST(IrixDifferentialTest, DispatchMatchesStableSortReference) {
  Rng scenario(2024);
  for (int trial = 0; trial < 48; ++trial) {
    const int ncpus = scenario.UniformInt(1, 16);
    ExpectDispatchMatchesReference(scenario, trial, ncpus, 1, 2 * ncpus);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Machines from 1 to 200 CPUs, with up to four jobs whose threads together
// fall well below, around, or well above the CPU count.
TEST(IrixDifferentialTest, DispatchMatchesReferenceFromOneTo200Cpus) {
  Rng scenario(2025);
  int trial = 0;
  for (const int ncpus : {1, 2, 5, 31, 60, 64, 128, 129, 200}) {
    const std::vector<std::pair<int, int>> requests = {
        {1, std::max(1, ncpus / 10)}, {std::max(1, ncpus / 4), ncpus}, {2 * ncpus, 3 * ncpus}};
    for (const auto& [min_request, max_request] : requests) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        ExpectDispatchMatchesReference(scenario, trial++, ncpus, min_request, max_request);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(SpaceSharingPolicyDeathTest, TimeShareTickForbidden) {
  Registry registry;
  Equipartition policy(4);
  policy.Attach(registry);
  Machine machine(4);
  PolicyContext ctx = MakeContext({}, 4);
  std::vector<TimeShare> shares;
  EXPECT_DEATH(policy.TimeShareTick(machine, ctx, 1000, nullptr, &shares), "Check failed");
}

TEST(PdpaPolicyTest, LifecyclePlumbing) {
  Registry registry;
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}}, 60, 60);
  AllocationPlan plan = policy.OnJobStart(ctx, 1);
  EXPECT_EQ(plan.at(1), 30);
  ASSERT_NE(policy.AutomatonFor(1), nullptr);
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kNoRef);

  ctx.jobs[0].alloc = 30;
  ctx.free_cpus = 30;
  PerfReport report;
  report.job = 1;
  report.procs = 30;
  report.speedup = 24.0;  // eff 0.8 -> STABLE, no change
  plan = policy.OnReport(ctx, report);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kStable);

  plan = policy.OnJobFinish(MakeContext({{1, 30}}, 60, 30), 99);
  EXPECT_EQ(policy.AutomatonFor(99), nullptr);
}

TEST(PdpaPolicyTest, OnJobFinishRedistributesToEfficientStableJobs) {
  Registry registry;
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  policy.Attach(registry);
  PolicyContext ctx = MakeContext({{1, 30}}, 60, 8);
  (void)policy.OnJobStart(ctx, 1);  // alloc 8
  PerfReport report;
  report.job = 1;
  report.procs = 8;
  report.speedup = 7.8;  // eff 0.97 but free=0 at report time -> STABLE
  ctx.free_cpus = 0;
  (void)policy.OnReport(ctx, report);
  ASSERT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kStable);
  // Another job finished; 12 processors free.
  const AllocationPlan plan = policy.OnJobFinish(MakeContext({{1, 30}}, 60, 12), 2);
  ASSERT_TRUE(plan.contains(1));
  EXPECT_EQ(plan.at(1), 12);
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kInc);
}

TEST(PdpaPolicyTest, AdmissionRequiresFreeCpu) {
  Registry registry;
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  policy.Attach(registry);
  EXPECT_FALSE(policy.ShouldAdmit(/*running_jobs=*/1, /*free_cpus=*/0));
  EXPECT_TRUE(policy.ShouldAdmit(/*running_jobs=*/1, /*free_cpus=*/5));
}

}  // namespace
}  // namespace pdpa
