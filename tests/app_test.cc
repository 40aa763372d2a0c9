// Tests for speedup models, the application catalog, and the malleable
// iterative application model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/app/app_profile.h"
#include "src/app/application.h"
#include "src/app/speedup_model.h"
#include "src/common/rng.h"

namespace pdpa {
namespace {

TEST(AmdahlSpeedupTest, Formula) {
  AmdahlSpeedup model(0.9);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(1), 1.0);
  EXPECT_NEAR(model.SpeedupAt(10), 1.0 / (0.1 + 0.09), 1e-9);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(0), 0.0);
  // Fully serial never speeds up; fully parallel is linear.
  EXPECT_DOUBLE_EQ(AmdahlSpeedup(0.0).SpeedupAt(32), 1.0);
  EXPECT_DOUBLE_EQ(AmdahlSpeedup(1.0).SpeedupAt(32), 32.0);
}

TEST(TableSpeedupTest, InterpolatesAndExtrapolatesFlat) {
  TableSpeedup model({{1, 1.0}, {4, 3.0}, {8, 5.0}});
  EXPECT_DOUBLE_EQ(model.SpeedupAt(1), 1.0);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(4), 3.0);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(2.5), 2.0);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(6), 4.0);
  EXPECT_DOUBLE_EQ(model.SpeedupAt(100), 5.0);  // flat extrapolation
  EXPECT_DOUBLE_EQ(model.SpeedupAt(0.5), 0.5);  // through the (0,0) anchor
  EXPECT_DOUBLE_EQ(model.SpeedupAt(0), 0.0);
}

TEST(TableSpeedupTest, EfficiencyDerived) {
  TableSpeedup model({{1, 1.0}, {10, 8.0}});
  EXPECT_NEAR(model.EfficiencyAt(10), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(model.EfficiencyAt(0), 1.0);
}

TEST(TableSpeedupTest, MaxSpeedupOverIsExactOnNonMonotoneFractionalTables) {
  TableSpeedup model({{1, 1.0}, {2.5, 3.2}, {3.75, 2.0}, {6.25, 4.1}, {9, 3.0}});
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(1, 2), model.SpeedupAt(2));  // rising segment
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(1, 3), 3.2);                // interior peak
  // Valleys between the peaks: the higher end point wins.
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(2.6, 4.5), model.SpeedupAt(2.6));
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(3, 5), model.SpeedupAt(5));
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(1, 100), 4.1);
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(7, 100), model.SpeedupAt(7));  // falling, then flat
  EXPECT_DOUBLE_EQ(model.MaxSpeedupOver(4, 4), model.SpeedupAt(4));
}

TEST(SpeedupModelTest, MaxSpeedupOverMatchesADenseScan) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<double, double>> points{{1, 1.0}};
    double p = 1.0;
    for (int i = rng.UniformInt(0, 8); i > 0; --i) {
      p += rng.Uniform(0.05, 3.0);
      points.emplace_back(p, rng.Uniform(0.2, 12.0));
    }
    const TableSpeedup table(points);
    const AmdahlSpeedup amdahl(rng.Uniform(0.0, 1.0));
    const double lo = rng.Uniform(1.0, 6.0);
    const double hi = lo + rng.Uniform(0.0, 12.0);
    for (const SpeedupModel* model : {static_cast<const SpeedupModel*>(&table),
                                      static_cast<const SpeedupModel*>(&amdahl)}) {
      const double max = model->MaxSpeedupOver(lo, hi);
      double scanned = std::max(model->SpeedupAt(lo), model->SpeedupAt(hi));
      for (int k = 0; k <= 4000; ++k) {
        scanned = std::max(scanned, model->SpeedupAt(lo + (hi - lo) * k / 4000.0));
      }
      for (const auto& [bp, speedup] : points) {
        if (model == &table && bp >= lo && bp <= hi) {
          scanned = std::max(scanned, speedup);
        }
      }
      EXPECT_DOUBLE_EQ(max, scanned) << model->DebugString() << " over [" << lo << ", " << hi
                                     << "]";
    }
  }
}

TEST(SaturatingSpeedupTest, MonotoneAndBounded) {
  const auto model = MakeSaturatingSpeedup(8, 16);
  double prev = 0.0;
  for (int p = 1; p <= 64; ++p) {
    const double s = model->SpeedupAt(p);
    EXPECT_GE(s, prev);
    EXPECT_LE(s, 16.0 + 1e-9);
    prev = s;
  }
  EXPECT_NEAR(model->SpeedupAt(8), 8.0, 1e-9);
}

TEST(AppProfileTest, CatalogShapesMatchPaper) {
  const AppProfile swim = MakeSwimProfile();
  const AppProfile bt = MakeBtProfile();
  const AppProfile hydro = MakeHydro2dProfile();
  const AppProfile apsi = MakeApsiProfile();

  // swim is superlinear through 30 CPUs with the knee at 16.
  EXPECT_GT(swim.speedup->EfficiencyAt(12), 1.0);
  EXPECT_GT(swim.speedup->EfficiencyAt(16), swim.speedup->EfficiencyAt(20));
  // bt has good scalability: eff ~0.85-0.9 at 20, ~0.70 at 30.
  EXPECT_NEAR(bt.speedup->EfficiencyAt(20), 0.87, 0.04);
  EXPECT_NEAR(bt.speedup->EfficiencyAt(30), 0.70, 0.03);
  // hydro2d is medium: crosses the 0.7 efficiency line around 10 CPUs.
  EXPECT_GT(hydro.speedup->EfficiencyAt(8), 0.7);
  EXPECT_LT(hydro.speedup->EfficiencyAt(12), 0.7);
  // apsi does not scale.
  EXPECT_LT(apsi.speedup->SpeedupAt(30), 1.5);
  EXPECT_EQ(apsi.default_request, 2);

  // All catalog speedups are monotone non-decreasing up to 32.
  for (const AppProfile* p : {&swim, &bt, &hydro, &apsi}) {
    double prev = 0.0;
    for (int c = 1; c <= 32; ++c) {
      const double s = p->speedup->SpeedupAt(c);
      EXPECT_GE(s, prev - 0.05) << p->name << " at " << c;
      prev = s;
    }
  }
}

TEST(AppProfileTest, IdealExecAndDemand) {
  const AppProfile bt = MakeBtProfile();
  EXPECT_NEAR(bt.IdealExecSeconds(1), bt.sequential_work_s, 1e-9);
  EXPECT_NEAR(bt.IdealExecSeconds(30), bt.sequential_work_s / 21.0, 1e-6);
  EXPECT_NEAR(bt.CpuDemandAtRequest(), bt.IdealExecSeconds(30) * 30, 1e-6);
}

// A tiny deterministic profile for application-model tests: linear speedup,
// 10 iterations of 1 second sequential work each.
AppProfile TestProfile() {
  AppProfile profile;
  profile.name = "test";
  profile.speedup = std::make_shared<TableSpeedup>(
      std::vector<std::pair<double, double>>{{1, 1.0}, {32, 32.0}});
  profile.sequential_work_s = 10.0;
  profile.iterations = 10;
  profile.default_request = 8;
  profile.baseline_procs = 1;
  return profile;
}

AppCosts NoCosts() {
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 0;
  return costs;
}

// Collects every iteration, one record at a time.
struct RecordingObserver final : IterationObserver {
  void OnIteration(const IterationRecord& record) override { records.push_back(record); }
  std::vector<IterationRecord> records;
};

TEST(ApplicationTest, RunsToCompletionAtExpectedTime) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(2, 0);
  app.Start(0);
  // 10 s of work at speedup 2 -> 5 s wall time.
  SimTime now = 0;
  while (!app.finished() && now < 100 * kSecond) {
    app.Advance(now, 20 * kMillisecond);
    now += 20 * kMillisecond;
  }
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(app.finish_time(), 5 * kSecond);
  EXPECT_EQ(app.completed_iterations(), 10);
}

TEST(ApplicationTest, IterationBoundariesAtExactSubTickInstants) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(1, 0);
  app.Start(0);
  RecordingObserver observer;
  app.set_observer(&observer);
  const std::vector<IterationRecord>& records = observer.records;
  // Advance with a tick that does not divide the 1 s iteration time.
  SimTime now = 0;
  while (!app.finished()) {
    app.Advance(now, 30 * kMillisecond);
    now += 30 * kMillisecond;
  }
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].end_time, (i + 1) * kSecond);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].wall_time, kSecond);
    EXPECT_TRUE(records[static_cast<std::size_t>(i)].clean);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].procs, 1);
  }
}

TEST(ApplicationTest, MultipleIterationsInOneTick) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(32, 0);  // speedup 32: iteration takes 31.25 ms
  app.Start(0);
  RecordingObserver observer;
  app.set_observer(&observer);
  app.Advance(0, 100 * kMillisecond);  // should complete 3 iterations
  EXPECT_EQ(observer.records.size(), 3u);
}

TEST(ApplicationTest, ReconfigFreezeDelaysProgress) {
  AppCosts costs;
  costs.reconfig_freeze = 100 * kMillisecond;
  costs.warmup = 0;
  Application app(1, TestProfile(), costs);
  app.SetAllocation(1, 0);
  app.Start(0);
  app.Advance(0, kSecond);  // completes iteration 1 exactly at t=1s
  EXPECT_EQ(app.completed_iterations(), 1);
  // Reallocate: 100 ms freeze. The same amount of work now needs 1.1 s... at
  // the same 1-CPU speed.
  app.SetAllocation(1 + 0, kSecond);  // same count: no freeze
  app.Advance(kSecond, kSecond);
  EXPECT_EQ(app.completed_iterations(), 2);
  app.SetAllocation(2, 2 * kSecond);  // real change: freeze applies
  app.Advance(2 * kSecond, kSecond);
  // 100 ms frozen, then 900 ms at speedup 2 = 1.8 s of work < 2.0 s needed
  // for two more iterations; exactly 1.8 -> completes one iteration (1.0)
  // and 0.8 into the next.
  EXPECT_EQ(app.completed_iterations(), 3);
  EXPECT_NEAR(app.progress_s(), 3.8, 1e-9);
}

TEST(ApplicationTest, TaintedIterationMarkedUnclean) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(1, 0);
  app.Start(0);
  RecordingObserver observer;
  app.set_observer(&observer);
  const std::vector<IterationRecord>& records = observer.records;
  app.Advance(0, 500 * kMillisecond);        // mid-iteration
  app.SetAllocation(2, 500 * kMillisecond);  // reallocation taints it
  app.Advance(500 * kMillisecond, kSecond);
  ASSERT_GE(records.size(), 1u);
  EXPECT_FALSE(records[0].clean);
  // The following iteration is clean again.
  while (records.size() < 2) {
    app.Advance(app.finish_time(), kSecond);  // keep advancing
    break;
  }
}

TEST(ApplicationTest, WarmupSlowsNewCpus) {
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 400 * kMillisecond;
  Application warm(1, TestProfile(), costs);
  warm.SetAllocation(16, 0);
  warm.Start(0);
  // warm_procs_ starts at the full 16 (Start initializes it), so grow it.
  warm.SetAllocation(32, 0);
  warm.Advance(0, 100 * kMillisecond);

  Application instant(2, TestProfile(), NoCosts());
  instant.SetAllocation(16, 0);
  instant.Start(0);
  instant.SetAllocation(32, 0);
  instant.Advance(0, 100 * kMillisecond);

  // The warming application made strictly less progress.
  EXPECT_LT(warm.progress_s(), instant.progress_s());
  EXPECT_GT(warm.progress_s(), 0.0);
}

TEST(ApplicationTest, ForcedProcsCapEffectiveProcs) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(8, 0);
  app.ForceProcs(2, 0);
  app.Start(0);
  EXPECT_EQ(app.EffectiveProcs(), 2);
  app.ForceProcs(0, 0);
  EXPECT_EQ(app.EffectiveProcs(), 8);
  // Force larger than allocation is capped by the allocation.
  app.ForceProcs(100, 0);
  EXPECT_EQ(app.EffectiveProcs(), 8);
}

TEST(ApplicationTest, TimeSharedAdvanceUsesFractionalProcs) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(8, 0);
  app.Start(0);
  app.AdvanceTimeShared(0, kSecond, 4.0, 0.5);
  // 1 s at speedup 4 with overhead 0.5 -> 2 s of progress.
  EXPECT_NEAR(app.progress_s(), 2.0, 1e-9);
}

TEST(ApplicationTest, NoProgressWhenNotStartedOrZeroProcs) {
  Application app(1, TestProfile(), NoCosts());
  app.SetAllocation(4, 0);
  app.Advance(0, kSecond);
  EXPECT_DOUBLE_EQ(app.progress_s(), 0.0);
}

TEST(ApplicationTest, RigidFoldingSlowsProportionally) {
  AppProfile profile = TestProfile();  // linear speedup
  profile.default_request = 8;
  AppCosts costs = NoCosts();
  costs.folding_overhead = 0.8;
  Application app(1, profile, costs);
  app.set_request(8);
  app.set_rigid(true);
  app.SetAllocation(4, 0);  // folded 2:1
  app.Start(0);
  app.Advance(0, kSecond);
  // speed = S(8) * (4/8) * 0.8 = 8 * 0.5 * 0.8 = 3.2.
  EXPECT_NEAR(app.progress_s(), 3.2, 1e-9);
}

TEST(ApplicationTest, RigidFullAllocationHasNoFoldingPenalty) {
  AppProfile profile = TestProfile();
  profile.default_request = 8;
  Application app(1, profile, NoCosts());
  app.set_request(8);
  app.set_rigid(true);
  app.SetAllocation(8, 0);
  app.Start(0);
  app.Advance(0, kSecond);
  EXPECT_NEAR(app.progress_s(), 8.0, 1e-9);  // full S(8), no overhead
}

TEST(ApplicationTest, MaxSpeedBoundsEveryReachableSpeed) {
  // Non-monotone curve with fractional breakpoints; its peak (6.0 at 3.5)
  // is reachable only through the warm-up ramp's fractional counts.
  AppProfile profile = TestProfile();
  profile.speedup =
      std::make_shared<TableSpeedup>(std::vector<std::pair<double, double>>{
          {1, 1.0}, {2.25, 2.0}, {3.5, 6.0}, {5.75, 3.0}, {8, 4.0}});
  profile.sequential_work_s = 1e6;  // never finishes here
  profile.iterations = 1;
  for (const int request : {1, 3, 4, 8, 12}) {
    AppCosts costs = NoCosts();
    costs.warmup = 100 * kMillisecond;
    Application app(1, profile, costs);
    app.set_request(request);
    const double max_speed = app.MaxSpeed();
    EXPECT_DOUBLE_EQ(max_speed, profile.speedup->MaxSpeedupOver(1, request)) << request;
    app.SetAllocation(1, 0);
    app.Start(0);
    Rng rng(static_cast<std::uint64_t>(request));
    SimTime now = 0;
    for (int step = 0; step < 400; ++step) {
      if (step % 7 == 0) {
        app.SetAllocation(rng.UniformInt(1, request), now);
      }
      const double before = app.progress_s();
      app.Advance(now, 20 * kMillisecond);
      now += 20 * kMillisecond;
      EXPECT_LE((app.progress_s() - before) / 0.02, max_speed * (1 + 1e-9))
          << "request " << request << " step " << step;
    }
  }
}

TEST(ApplicationTest, RigidMaxSpeedIsTheUnfoldedSpeed) {
  AppProfile profile = TestProfile();  // linear speedup
  for (const double overhead : {0.8, 1.25}) {
    AppCosts costs = NoCosts();
    costs.folding_overhead = overhead;
    Application app(1, profile, costs);
    app.set_request(8);
    app.set_rigid(true);
    EXPECT_DOUBLE_EQ(app.MaxSpeed(), 8.0 * std::max(1.0, overhead)) << overhead;
  }
}

TEST(AppProfileBuilderTest, DefaultsAndOverrides) {
  const AppProfile defaults = AppProfileBuilder("d").Build();
  EXPECT_EQ(defaults.name, "d");
  EXPECT_GT(defaults.sequential_work_s, 0.0);
  EXPECT_GE(defaults.iterations, 1);

  const AppProfile custom = AppProfileBuilder("c")
                                .WithAmdahl(0.5)
                                .WithWork(10.0)
                                .WithIterations(5)
                                .WithRequest(16)
                                .WithBaselineProcs(2)
                                .Build();
  EXPECT_DOUBLE_EQ(custom.sequential_work_s, 10.0);
  EXPECT_EQ(custom.iterations, 5);
  EXPECT_EQ(custom.default_request, 16);
  EXPECT_EQ(custom.baseline_procs, 2);
  // Amdahl f=0.5: S(inf) -> 2.
  EXPECT_NEAR(custom.speedup->SpeedupAt(1000), 2.0, 0.01);
}

TEST(AppProfileBuilderTest, CurveAndSaturatingVariants) {
  const AppProfile curve =
      AppProfileBuilder("t").WithCurve({{1, 1.0}, {8, 6.0}}).Build();
  EXPECT_DOUBLE_EQ(curve.speedup->SpeedupAt(8), 6.0);

  const AppProfile saturating = AppProfileBuilder("s").WithSaturating(4, 10).Build();
  EXPECT_NEAR(saturating.speedup->SpeedupAt(4), 4.0, 1e-9);
  EXPECT_LE(saturating.speedup->SpeedupAt(256), 10.0 + 1e-9);
}

TEST(ApplicationDeathTest, StartWithoutAllocationAborts) {
  Application app(1, TestProfile(), NoCosts());
  EXPECT_DEATH(app.Start(0), "Check failed");
}

}  // namespace
}  // namespace pdpa
