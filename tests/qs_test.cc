// Tests for the queuing system, SWF trace format, and workload generator.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/pdpa_policy.h"
#include "src/qs/queuing_system.h"
#include "src/qs/swf.h"
#include "src/qs/workload_generator.h"
#include "src/rm/equipartition.h"
#include "src/workload/catalog.h"

namespace pdpa {
namespace {

TEST(SwfTest, RoundTripPreservesJobs) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(i % kNumAppClasses);
    spec.submit = i * 7 * kSecond;
    spec.request = 2 + i;
    jobs.push_back(spec);
  }
  std::ostringstream out;
  EXPECT_EQ(WriteSwf(jobs, out, "test"), 10);

  std::istringstream in(out.str());
  std::vector<JobSpec> parsed;
  std::string error;
  ASSERT_TRUE(ReadSwf(in, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_EQ(parsed[i].app_class, jobs[i].app_class);
    EXPECT_EQ(parsed[i].submit, jobs[i].submit);
    EXPECT_EQ(parsed[i].request, jobs[i].request);
  }
}

TEST(SwfTest, CommentsAndBlankLinesSkipped) {
  std::istringstream in(
      "; a comment\n"
      "\n"
      "0 10 -1 -1 -1 -1 -1 30 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\n");
  std::vector<JobSpec> jobs;
  ASSERT_TRUE(ReadSwf(in, &jobs, nullptr));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].app_class, AppClass::kBt);
  EXPECT_EQ(jobs[0].submit, 10 * kSecond);
}

TEST(SwfTest, MalformedLinesRejectedWithError) {
  std::vector<JobSpec> jobs;
  std::string error;
  std::istringstream short_line("0 10 -1\n");
  EXPECT_FALSE(ReadSwf(short_line, &jobs, &error));
  EXPECT_NE(error.find("18 fields"), std::string::npos);

  std::istringstream bad_class("0 10 -1 -1 -1 -1 -1 30 -1 -1 -1 -1 -1 9 -1 -1 -1 -1\n");
  EXPECT_FALSE(ReadSwf(bad_class, &jobs, &error));
  EXPECT_NE(error.find("executable"), std::string::npos);

  std::istringstream bad_number("x 10 -1 -1 -1 -1 -1 30 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\n");
  EXPECT_FALSE(ReadSwf(bad_number, &jobs, &error));
}

TEST(SwfTest, MissingRequestFallsBackToProfileDefault) {
  std::istringstream in("0 10 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n");
  std::vector<JobSpec> jobs;
  ASSERT_TRUE(ReadSwf(in, &jobs, nullptr));
  EXPECT_EQ(jobs[0].request, MakeApsiProfile().default_request);
}

TEST(WorkloadGeneratorTest, DeterministicForSeed) {
  WorkloadGenSpec spec;
  spec.load_share = {0.5, 0.5, 0.0, 0.0};
  spec.load = 1.0;
  spec.seed = 77;
  const auto a = GenerateWorkload(spec);
  const auto b = GenerateWorkload(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].app_class, b[i].app_class);
  }
  spec.seed = 78;
  const auto c = GenerateWorkload(spec);
  EXPECT_TRUE(c.size() != a.size() || c[0].submit != a[0].submit);
}

TEST(WorkloadGeneratorTest, LoadCalibrationIsClose) {
  WorkloadGenSpec spec;
  spec.load_share = {0.25, 0.25, 0.25, 0.25};
  spec.load = 0.8;
  spec.window = 3000 * kSecond;  // long window for tight statistics
  spec.seed = 3;
  const auto jobs = GenerateWorkload(spec);
  const double load = EstimateLoad(jobs, spec.num_cpus, spec.window);
  EXPECT_NEAR(load, 0.8, 0.1);
}

TEST(WorkloadGeneratorTest, ClassSharesMatchTable1) {
  WorkloadGenSpec spec;
  spec.load_share = {0.0, 0.5, 0.0, 0.5};  // w3
  spec.load = 1.0;
  spec.window = 10000 * kSecond;
  spec.seed = 9;
  const auto jobs = GenerateWorkload(spec);
  double demand_bt = 0.0;
  double demand_apsi = 0.0;
  for (const JobSpec& job : jobs) {
    const AppProfile profile = MakeProfile(job.app_class);
    const double demand = profile.IdealExecSeconds(job.request) * job.request;
    if (job.app_class == AppClass::kBt) {
      demand_bt += demand;
    } else {
      ASSERT_EQ(job.app_class, AppClass::kApsi);
      demand_apsi += demand;
    }
  }
  EXPECT_NEAR(demand_bt / (demand_bt + demand_apsi), 0.5, 0.06);
}

TEST(WorkloadGeneratorTest, UntunedOverridesRequestButNotArrivals) {
  const auto tuned = BuildWorkload(WorkloadId::kW3, 0.6, 42, /*untuned=*/false);
  const auto untuned = BuildWorkload(WorkloadId::kW3, 0.6, 42, /*untuned=*/true);
  ASSERT_EQ(tuned.size(), untuned.size());
  for (std::size_t i = 0; i < tuned.size(); ++i) {
    EXPECT_EQ(tuned[i].submit, untuned[i].submit);  // same trace
    EXPECT_EQ(tuned[i].app_class, untuned[i].app_class);
    EXPECT_EQ(untuned[i].request, 30);
  }
}

TEST(WorkloadCatalogTest, SharesMatchTable1) {
  const auto w1 = WorkloadShares(WorkloadId::kW1);
  EXPECT_DOUBLE_EQ(w1[0], 0.5);
  EXPECT_DOUBLE_EQ(w1[1], 0.5);
  EXPECT_DOUBLE_EQ(w1[2], 0.0);
  const auto w4 = WorkloadShares(WorkloadId::kW4);
  for (double share : w4) {
    EXPECT_DOUBLE_EQ(share, 0.25);
  }
}

ResourceManager::Params SmallRmParams() {
  ResourceManager::Params params;
  params.num_cpus = 8;
  params.analyzer.noise_sigma = 0.0;
  params.app_costs.reconfig_freeze = 0;
  params.app_costs.warmup = 0;
  return params;
}

TEST(QueuingSystemTest, FcfsWithFixedMl) {
  Simulation sim;
  ResourceManager rm(SmallRmParams(), std::make_unique<Equipartition>(2), &sim, Rng(1));
  // Three jobs submitted at once; ML=2 means the third must wait.
  std::vector<JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = AppClass::kBt;
    spec.submit = 0;
    spec.request = 4;
    specs.push_back(spec);
  }
  // Swap in the tiny profile via request override path: the QS uses the
  // catalog profile, so instead run with the real bt profile but scaled
  // loads -- simpler: just verify ordering and ML enforcement.
  rm.Start();
  QueuingSystem qs(&sim, &rm, specs);
  qs.Start();
  sim.RunUntil(kSecond);
  EXPECT_EQ(qs.running(), 2);
  EXPECT_EQ(qs.queued(), 1);
  EXPECT_EQ(qs.max_ml(), 2);
  sim.RunUntil(3600 * kSecond);
  EXPECT_TRUE(qs.AllJobsDone());
  // FCFS: job 2 started only after one of 0/1 finished.
  const auto& outcomes = qs.outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  SimTime first_finish = 0;
  SimTime job2_start = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.id != 2) {
      first_finish = first_finish == 0 ? outcome.finish : std::min(first_finish, outcome.finish);
    } else {
      job2_start = outcome.start;
    }
  }
  EXPECT_GE(job2_start, first_finish);
}

TEST(QueuingSystemTest, OutcomesCarryTimes) {
  Simulation sim;
  ResourceManager rm(SmallRmParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  JobSpec spec;
  spec.id = 0;
  spec.app_class = AppClass::kApsi;
  spec.submit = 5 * kSecond;
  spec.request = 2;
  rm.Start();
  QueuingSystem qs(&sim, &rm, {spec});
  qs.Start();
  sim.RunUntil(3600 * kSecond);
  ASSERT_TRUE(qs.AllJobsDone());
  const JobOutcome& outcome = qs.outcomes()[0];
  EXPECT_EQ(outcome.submit, 5 * kSecond);
  EXPECT_GE(outcome.start, outcome.submit);
  EXPECT_GT(outcome.finish, outcome.start);
  EXPECT_NEAR(outcome.ResponseSeconds(),
              outcome.WaitSeconds() + outcome.ExecSeconds(), 1e-9);
}

TEST(QueuingSystemTest, ShortestDemandFirstReordersQueue) {
  Simulation sim;
  ResourceManager rm(SmallRmParams(), std::make_unique<Equipartition>(1), &sim, Rng(1));
  // Submit a long bt first and a short apsi second, both queued behind a
  // running job. With SJF ordering the apsi must start before the bt.
  std::vector<JobSpec> specs;
  JobSpec running;
  running.id = 0;
  running.app_class = AppClass::kApsi;
  running.submit = 0;
  running.request = 2;
  JobSpec long_job;
  long_job.id = 1;
  long_job.app_class = AppClass::kBt;
  long_job.submit = kSecond;
  long_job.request = 8;
  JobSpec short_job;
  short_job.id = 2;
  short_job.app_class = AppClass::kApsi;
  short_job.submit = 2 * kSecond;
  short_job.request = 2;
  specs = {running, long_job, short_job};

  rm.Start();
  QueuingSystem qs(&sim, &rm, specs, QueueOrder::kShortestDemandFirst);
  qs.Start();
  sim.RunUntil(4 * 3600 * kSecond);
  ASSERT_TRUE(qs.AllJobsDone());
  SimTime start_long = 0;
  SimTime start_short = 0;
  for (const JobOutcome& outcome : qs.outcomes()) {
    if (outcome.id == 1) {
      start_long = outcome.start;
    } else if (outcome.id == 2) {
      start_short = outcome.start;
    }
  }
  EXPECT_LT(start_short, start_long);
}

TEST(QueuingSystemTest, MlTimelineRecordsStartsAndFinishes) {
  Simulation sim;
  ResourceManager rm(SmallRmParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  std::vector<JobSpec> specs;
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = AppClass::kApsi;
    spec.submit = i * kSecond;
    spec.request = 2;
    specs.push_back(spec);
  }
  rm.Start();
  QueuingSystem qs(&sim, &rm, specs);
  qs.Start();
  sim.RunUntil(3600 * kSecond);
  ASSERT_TRUE(qs.AllJobsDone());
  const auto& timeline = qs.ml_timeline();
  ASSERT_EQ(timeline.size(), 4u);  // 2 starts + 2 finishes
  EXPECT_EQ(timeline.back().second, 0);
}

}  // namespace
}  // namespace pdpa
