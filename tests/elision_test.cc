// Event-horizon tick elision: the coarsened runs must be *byte-identical*
// to fine-tick runs.
//  * Integration linearity: advancing an application over [t, t+dt] in one
//    span equals two half-spans exactly (bit-for-bit), in steady state —
//    the property that makes span-sized Advance calls safe to substitute
//    for per-tick ones.
//  * Golden equivalence: for every policy x workload pair, a run with
//    elision enabled produces the same event log, time-series CSV, and
//    metrics as a run with Params::exact_ticks.
//  * And the coarse run must actually fire fewer ticks, or the machinery
//    is vacuous.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/app/application.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

AppCosts NoCosts() {
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 0;
  return costs;
}

AppProfile BoundaryProfile() {
  AppProfile profile;
  profile.name = "elision-app";
  profile.speedup = std::make_shared<TableSpeedup>(
      std::vector<std::pair<double, double>>{{1, 1.0}, {16, 11.0}});
  profile.sequential_work_s = 13.0;
  profile.iterations = 7;  // boundaries land off the tick grid
  profile.default_request = 12;
  profile.baseline_procs = 2;
  return profile;
}

// ---------------------------------------------------------------------------
// Integration linearity. Two identical applications in steady state: one
// advanced over [t, t+dt] whole, the other over two halves. Progress,
// iteration counts and finish instants must match *exactly* — EXPECT_EQ on
// doubles on purpose. This holds because Integrate anchors each
// constant-speed segment once and computes every boundary from the anchor,
// so chopping a span cannot move any intermediate value.

TEST(IntegrationLinearityTest, WholeSpanEqualsTwoHalfSpansExactly) {
  const AppProfile profile = BoundaryProfile();
  Application whole(1, profile, NoCosts());
  Application halves(2, profile, NoCosts());
  for (Application* app : {&whole, &halves}) {
    app->SetAllocation(9, 0);
    app->Start(0);
  }

  // Deliberately awkward span: 17ms crosses iteration boundaries at odd
  // microsecond offsets.
  const SimDuration dt = 17 * kMillisecond;
  SimTime now = 0;
  while (!whole.finished() && now < 60 * kSecond) {
    whole.Advance(now, dt);
    halves.Advance(now, dt / 2);
    halves.Advance(now + dt / 2, dt - dt / 2);
    ASSERT_EQ(whole.progress_s(), halves.progress_s()) << "at t=" << now;
    ASSERT_EQ(whole.completed_iterations(), halves.completed_iterations()) << "at t=" << now;
    now += dt;
  }
  ASSERT_TRUE(whole.finished());
  ASSERT_TRUE(halves.finished());
  EXPECT_EQ(whole.finish_time(), halves.finish_time());
}

TEST(IntegrationLinearityTest, SpanSplitIsExactAcrossWarmupSettle) {
  // Same property with a real warmup ramp: once the ramp has settled (the
  // Advance snap), the segment is steady and span splitting is exact again.
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 100 * kMillisecond;
  const AppProfile profile = BoundaryProfile();
  Application whole(1, profile, costs);
  Application halves(2, profile, costs);
  for (Application* app : {&whole, &halves}) {
    app->SetAllocation(9, 0);
    app->Start(0);
  }
  const SimDuration dt = 20 * kMillisecond;
  SimTime now = 0;
  while (!whole.finished() && now < 60 * kSecond) {
    whole.Advance(now, dt);
    halves.Advance(now, dt / 2);
    halves.Advance(now + dt / 2, dt - dt / 2);
    // During the ramp the two integrate different p_eff midpoints; only
    // compare once both report steady (ElisionReady) state.
    if (whole.ElisionReady(now + dt) && halves.ElisionReady(now + dt)) {
      ASSERT_EQ(whole.progress_s(), halves.progress_s()) << "at t=" << now;
    }
    now += dt;
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: elided vs exact-tick runs of the full experiment
// stack must produce byte-identical observable output. Counters are
// exempt by design (rm.ticks / rm.ticks_elided legitimately differ).

struct GoldenCase {
  PolicyKind policy;
  WorkloadId workload;
};

std::string CaseName(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(PolicyKindName(info.param.policy)) + "_" +
         WorkloadShortName(info.param.workload);
}

struct CapturedRun {
  std::string events;
  std::string timeseries;
  long long ticks = 0;
  ExperimentResult result;
};

CapturedRun RunCaptured(const GoldenCase& c, bool exact_ticks) {
  ExperimentConfig config;
  config.workload = c.workload;
  config.load = 1.0;
  config.seed = 42;
  config.policy = c.policy;
  config.rm.exact_ticks = exact_ticks;

  CapturedRun run;
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  TimeSeriesSampler timeseries;
  config.event_log = &events;
  config.timeseries = &timeseries;
  run.result = RunExperiment(config);
  events.Flush();  // The log buffers; push bytes out before reading.
  run.events = events_stream.str();
  timeseries.WriteCsv(&run.timeseries);
  for (const CounterSnapshot& counter : run.result.counters.counters) {
    if (counter.name == "rm.ticks") {
      run.ticks = counter.value;
    }
  }
  return run;
}

class GoldenEquivalenceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenEquivalenceTest, ElidedRunIsByteIdenticalToExactTicks) {
  const CapturedRun fine = RunCaptured(GetParam(), /*exact_ticks=*/true);
  const CapturedRun coarse = RunCaptured(GetParam(), /*exact_ticks=*/false);

  EXPECT_EQ(fine.events, coarse.events);
  EXPECT_EQ(fine.timeseries, coarse.timeseries);

  EXPECT_EQ(fine.result.completed, coarse.result.completed);
  EXPECT_EQ(fine.result.sim_end_s, coarse.result.sim_end_s);
  EXPECT_EQ(fine.result.max_ml, coarse.result.max_ml);
  EXPECT_EQ(fine.result.utilization, coarse.result.utilization);
  EXPECT_EQ(fine.result.reallocations, coarse.result.reallocations);
  EXPECT_EQ(fine.result.metrics.jobs, coarse.result.metrics.jobs);
  EXPECT_EQ(fine.result.metrics.makespan_s, coarse.result.metrics.makespan_s);
  ASSERT_EQ(fine.result.metrics.per_class.size(), coarse.result.metrics.per_class.size());
  for (const auto& [app_class, fine_metrics] : fine.result.metrics.per_class) {
    const auto it = coarse.result.metrics.per_class.find(app_class);
    ASSERT_NE(it, coarse.result.metrics.per_class.end());
    EXPECT_EQ(fine_metrics.count, it->second.count);
    EXPECT_EQ(fine_metrics.avg_response_s, it->second.avg_response_s);
    EXPECT_EQ(fine_metrics.avg_exec_s, it->second.avg_exec_s);
    EXPECT_EQ(fine_metrics.avg_wait_s, it->second.avg_wait_s);
    EXPECT_EQ(fine_metrics.p50_response_s, it->second.p50_response_s);
    EXPECT_EQ(fine_metrics.p95_response_s, it->second.p95_response_s);
    EXPECT_EQ(fine_metrics.avg_alloc, it->second.avg_alloc);
  }

  // The elision must not be vacuous: non-time-sharing policies fire fewer
  // ticks when it is on. IRIX is time-sharing — elision stays disabled and
  // the counts match instead.
  if (GetParam().policy == PolicyKind::kIrix) {
    EXPECT_EQ(coarse.ticks, fine.ticks);
  } else {
    EXPECT_LT(coarse.ticks, fine.ticks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWorkloads, GoldenEquivalenceTest,
    ::testing::Values(GoldenCase{PolicyKind::kEquipartition, WorkloadId::kW1},
                      GoldenCase{PolicyKind::kEquipartition, WorkloadId::kW2},
                      GoldenCase{PolicyKind::kEqualEfficiency, WorkloadId::kW1},
                      GoldenCase{PolicyKind::kEqualEfficiency, WorkloadId::kW2},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW1},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW2},
                      GoldenCase{PolicyKind::kIrix, WorkloadId::kW1},
                      GoldenCase{PolicyKind::kIrix, WorkloadId::kW2}),
    CaseName);

}  // namespace
}  // namespace pdpa
