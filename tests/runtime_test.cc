// Tests for the runtime substrates: SelfAnalyzer, periodicity detector and
// the NthLib binding.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/app/application.h"
#include "src/common/rng.h"
#include "src/obs/counters.h"
#include "src/runtime/nth_lib.h"
#include "src/runtime/periodicity_detector.h"
#include "src/runtime/self_analyzer.h"

namespace pdpa {
namespace {

AppProfile LinearProfile() {
  AppProfile profile;
  profile.name = "linear";
  profile.speedup = std::make_shared<TableSpeedup>(
      std::vector<std::pair<double, double>>{{1, 1.0}, {32, 32.0}});
  profile.sequential_work_s = 40.0;
  profile.iterations = 40;
  profile.default_request = 16;
  profile.baseline_procs = 4;
  return profile;
}

AppCosts NoCosts() {
  AppCosts costs;
  costs.reconfig_freeze = 0;
  costs.warmup = 0;
  return costs;
}

SelfAnalyzerParams NoiselessParams() {
  SelfAnalyzerParams params;
  params.noise_sigma = 0.0;
  params.baseline_iterations = 2;
  params.amdahl_factor = 1.0;  // linear profile: baseline is perfectly efficient
  return params;
}

void RunTicks(Application& app, SimTime start, SimTime end, SimDuration dt = 20 * kMillisecond) {
  for (SimTime t = start; t < end; t += dt) {
    app.Advance(t, dt);
  }
}

TEST(SelfAnalyzerTest, BaselinePhaseForcesFewProcs) {
  Application app(1, LinearProfile(), NoCosts());
  Registry registry;
  SelfAnalyzer analyzer(&app, NoiselessParams(), Rng(1), AnalyzerCounters::Bind(registry));
  app.set_observer(&analyzer);
  app.SetAllocation(16, 0);
  analyzer.OnJobStart(0);
  app.Start(0);
  EXPECT_EQ(app.EffectiveProcs(), 4);
  EXPECT_FALSE(analyzer.baseline_done());

  // Two baseline iterations: 1 s work each at speedup 4 -> 0.25 s each.
  RunTicks(app, 0, 600 * kMillisecond);
  EXPECT_TRUE(analyzer.baseline_done());
  EXPECT_NEAR(analyzer.baseline_time_s(), 0.25, 1e-6);
  // Released to the full allocation.
  EXPECT_EQ(app.EffectiveProcs(), 16);
}

TEST(SelfAnalyzerTest, ReportsAccurateSpeedupWithoutNoise) {
  Application app(1, LinearProfile(), NoCosts());
  Registry registry;
  SelfAnalyzer analyzer(&app, NoiselessParams(), Rng(1), AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  analyzer.set_report_sink(&reports);
  app.set_observer(&analyzer);
  app.SetAllocation(16, 0);
  analyzer.OnJobStart(0);
  app.Start(0);
  RunTicks(app, 0, 2 * kSecond);
  ASSERT_FALSE(reports.empty());
  // Linear speedup: reported speedup at 16 procs must be ~16.
  EXPECT_NEAR(reports.back().speedup, 16.0, 0.2);
  EXPECT_NEAR(reports.back().efficiency, 1.0, 0.02);
  EXPECT_EQ(reports.back().procs, 16);
  EXPECT_EQ(reports.back().job, 1);
}

TEST(SelfAnalyzerTest, AmdahlFactorScalesEstimate) {
  Application app(1, LinearProfile(), NoCosts());
  SelfAnalyzerParams params = NoiselessParams();
  params.amdahl_factor = 0.9;
  Registry registry;
  SelfAnalyzer analyzer(&app, params, Rng(1), AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  analyzer.set_report_sink(&reports);
  app.set_observer(&analyzer);
  app.SetAllocation(16, 0);
  analyzer.OnJobStart(0);
  app.Start(0);
  RunTicks(app, 0, 2 * kSecond);
  ASSERT_FALSE(reports.empty());
  // Estimate = (t4 / t16) * 0.9 * 4 = 4 * 0.9 * 4 = 14.4.
  EXPECT_NEAR(reports.back().speedup, 14.4, 0.2);
}

TEST(SelfAnalyzerTest, TaintedIterationsProduceNoReport) {
  Application app(1, LinearProfile(), NoCosts());
  Registry registry;
  SelfAnalyzer analyzer(&app, NoiselessParams(), Rng(1), AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  analyzer.set_report_sink(&reports);
  app.set_observer(&analyzer);
  app.SetAllocation(16, 0);
  analyzer.OnJobStart(0);
  app.Start(0);
  // Finish the baseline (2 iterations x 0.25 s).
  RunTicks(app, 0, 500 * kMillisecond);
  ASSERT_TRUE(analyzer.baseline_done());
  const std::size_t before = reports.size();
  // Change the allocation mid-iteration over and over: every iteration is
  // tainted, so no new report may appear.
  SimTime now = 500 * kMillisecond;
  for (int i = 0; i < 20; ++i) {
    app.SetAllocation(8 + (i % 2), now);
    app.Advance(now, 20 * kMillisecond);
    now += 20 * kMillisecond;
  }
  EXPECT_EQ(reports.size(), before);
}

TEST(SelfAnalyzerTest, NoiseStaysWithinBounds) {
  Application app(1, LinearProfile(), NoCosts());
  SelfAnalyzerParams params = NoiselessParams();
  params.noise_sigma = 0.05;
  Registry registry;
  SelfAnalyzer analyzer(&app, params, Rng(99), AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  analyzer.set_report_sink(&reports);
  app.set_observer(&analyzer);
  app.SetAllocation(16, 0);
  analyzer.OnJobStart(0);
  app.Start(0);
  RunTicks(app, 0, 3 * kSecond);
  ASSERT_GT(reports.size(), 5u);
  for (const PerfReport& r : reports) {
    EXPECT_GT(r.speedup, 16.0 * 0.7);
    EXPECT_LT(r.speedup, 16.0 * 1.4);
  }
}

TEST(NthLibBindingTest, WiresAppAnalyzerAndReports) {
  auto app = std::make_unique<Application>(7, LinearProfile(), NoCosts());
  Registry registry;
  NthLibBinding binding(std::move(app), NoiselessParams(), Rng(3),
                        AnalyzerCounters::Bind(registry));
  std::vector<PerfReport> reports;
  binding.set_report_sink(&reports);
  binding.SetProcessors(16, 0);
  binding.StartJob(0);
  EXPECT_EQ(binding.app().EffectiveProcs(), 4);  // baseline engaged
  for (SimTime t = 0; t < 2 * kSecond; t += 20 * kMillisecond) {
    binding.Tick(t, 20 * kMillisecond);
  }
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.back().job, 7);
  EXPECT_NEAR(reports.back().speedup, 16.0, 0.3);
}

TEST(PeriodicityDetectorTest, DetectsSimpleCycle) {
  PeriodicityDetector dpd;
  // Three parallel loops per outer iteration: addresses A, B, C.
  const std::uint64_t pattern[] = {0xA, 0xB, 0xC};
  int starts = 0;
  for (int iter = 0; iter < 10; ++iter) {
    for (std::uint64_t loop : pattern) {
      if (dpd.OnLoopEvent(loop)) {
        ++starts;
      }
    }
  }
  EXPECT_TRUE(dpd.detected());
  EXPECT_EQ(dpd.period(), 3);
  // Detection needs confirm_repeats+1 = 3 occurrences; starts fire from then
  // on once per period.
  EXPECT_GE(starts, 6);
}

TEST(PeriodicityDetectorTest, SingleLoopPeriodOne) {
  PeriodicityDetector dpd;
  int starts = 0;
  for (int i = 0; i < 10; ++i) {
    if (dpd.OnLoopEvent(0x42)) {
      ++starts;
    }
  }
  EXPECT_EQ(dpd.period(), 1);
  EXPECT_GE(starts, 7);
}

TEST(PeriodicityDetectorTest, PhaseChangeResetsDetection) {
  PeriodicityDetector dpd;
  for (int i = 0; i < 12; ++i) {
    dpd.OnLoopEvent(i % 3);
  }
  ASSERT_EQ(dpd.period(), 3);
  // The application enters a new phase with a different loop structure.
  dpd.OnLoopEvent(0x999);
  EXPECT_FALSE(dpd.detected());
  // It re-detects the new cycle.
  for (int i = 0; i < 20; ++i) {
    dpd.OnLoopEvent(i % 4 + 100);
  }
  EXPECT_EQ(dpd.period(), 4);
}

TEST(PeriodicityDetectorTest, NoFalsePeriodOnRandomStream) {
  PeriodicityDetector dpd;
  std::uint64_t x = 1;
  for (int i = 0; i < 100; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    dpd.OnLoopEvent(x);
  }
  EXPECT_FALSE(dpd.detected());
}

TEST(PeriodicityDetectorTest, NestedIterativeRegions) {
  // Inner loop D repeats 4 times inside each outer iteration (A B D D D D):
  // the detector should find the full outer period of 6.
  PeriodicityDetector dpd;
  for (int outer = 0; outer < 8; ++outer) {
    dpd.OnLoopEvent(0xA);
    dpd.OnLoopEvent(0xB);
    for (int inner = 0; inner < 4; ++inner) {
      dpd.OnLoopEvent(0xD);
    }
  }
  EXPECT_TRUE(dpd.detected());
  EXPECT_EQ(dpd.period(), 6);
}

TEST(PeriodicityDetectorTest, ResetClearsState) {
  PeriodicityDetector dpd;
  for (int i = 0; i < 9; ++i) {
    dpd.OnLoopEvent(1);
  }
  ASSERT_TRUE(dpd.detected());
  dpd.Reset();
  EXPECT_FALSE(dpd.detected());
  EXPECT_EQ(dpd.periods_seen(), 0);
}

// --- Batched iteration runs ---------------------------------------------------

// The per-iteration reference: forwards every iteration to the analyzer one
// record at a time and never asks for runs.
class PerIterationReference final : public IterationObserver {
 public:
  explicit PerIterationReference(SelfAnalyzer* analyzer) : analyzer_(analyzer) {}
  void OnIteration(const IterationRecord& record) override { analyzer_->OnIteration(record); }

 private:
  SelfAnalyzer* analyzer_;
};

// Forwards to the analyzer as the application delivers, and tallies how it
// delivered, so the differential test can show which cases it covered.
class RunSpy final : public IterationObserver {
 public:
  explicit RunSpy(SelfAnalyzer* analyzer) : analyzer_(analyzer) {}
  void OnIteration(const IterationRecord& record) override {
    ++singles_this_span;
    analyzer_->OnIteration(record);
  }
  bool batches_runs() const override { return analyzer_->batches_runs(); }
  void OnIterationRun(const IterationRun& run) override {
    ++runs;
    multi_runs += run.count > 1;
    dirty_first += !run.first_clean;
    settled_mid_span += singles_this_span > 0;
    analyzer_->OnIterationRun(run);
  }

  int singles_this_span = 0;
  int runs = 0;
  int multi_runs = 0;
  int dirty_first = 0;
  int settled_mid_span = 0;

 private:
  SelfAnalyzer* analyzer_;
};

AppProfile RandomRunProfile(Rng& rng) {
  AppProfile profile;
  profile.name = "random";
  if (rng.UniformInt(0, 1) == 0) {
    profile.speedup = std::make_shared<AmdahlSpeedup>(rng.Uniform(0.5, 0.999));
  } else {
    std::vector<std::pair<double, double>> points{{1, 1.0}};
    double p = 1.0;
    double speedup = 1.0;
    for (int k = rng.UniformInt(1, 4); k > 0; --k) {
      p += rng.UniformInt(1, 10);
      speedup += rng.Uniform(0.0, p - speedup);
      points.emplace_back(p, speedup);
    }
    profile.speedup = std::make_shared<TableSpeedup>(points);
  }
  profile.iterations = rng.UniformInt(3, 400);
  profile.sequential_work_s = rng.Uniform(0.5, 80.0);
  profile.default_request = rng.UniformInt(1, 24);
  profile.baseline_procs = rng.UniformInt(1, 6);
  return profile;
}

// One side of the differential: an application, its analyzer and the
// analyzer's instruments in a private registry.
struct AnalyzedApp {
  AnalyzedApp(const AppProfile& profile, AppCosts costs, SelfAnalyzerParams params, Rng rng)
      : app(1, profile, costs), analyzer(&app, params, rng, AnalyzerCounters::Bind(registry)) {
    analyzer.set_report_sink(&reports);
  }

  Registry registry;
  Application app;
  SelfAnalyzer analyzer;
  std::vector<PerfReport> reports;
};

void ExpectSameReports(const std::vector<PerfReport>& a, const std::vector<PerfReport>& b,
                       std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job, b[i].job) << "seed " << seed << " report " << i;
    EXPECT_EQ(a[i].procs, b[i].procs) << "seed " << seed << " report " << i;
    EXPECT_EQ(a[i].speedup, b[i].speedup) << "seed " << seed << " report " << i;
    EXPECT_EQ(a[i].efficiency, b[i].efficiency) << "seed " << seed << " report " << i;
    EXPECT_EQ(a[i].when, b[i].when) << "seed " << seed << " report " << i;
  }
}

TEST(IterationRunDifferentialTest, BatchedRunsMatchPerIterationReference) {
  struct {
    int runs = 0;
    int multi_runs = 0;
    int dirty_first = 0;
    int settled_mid_span = 0;
  } totals;
  int time_shared_runs = 0;
  int noisy_runs = 0;
  int windowed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    Rng rng(seed);
    const AppProfile profile = RandomRunProfile(rng);
    AppCosts costs;
    costs.reconfig_freeze = rng.UniformInt(0, 2) * 40 * kMillisecond;
    costs.warmup = rng.UniformInt(0, 1) * 300 * kMillisecond;
    SelfAnalyzerParams params;
    params.noise_sigma = rng.UniformInt(0, 1) == 0 ? 0.0 : 0.03;
    params.baseline_iterations = rng.UniformInt(1, 3);
    params.measure_iterations = rng.UniformInt(1, 3);
    params.amdahl_factor = rng.Uniform(0.8, 1.0);
    const bool time_shared = rng.UniformInt(0, 3) == 0;
    const bool with_baseline = rng.UniformInt(0, 4) != 0;
    const Rng noise = rng.Fork();

    AnalyzedApp reference(profile, costs, params, noise);
    AnalyzedApp batched(profile, costs, params, noise);
    PerIterationReference per_iteration(&reference.analyzer);
    RunSpy spy(&batched.analyzer);
    reference.app.set_observer(&per_iteration);
    batched.app.set_observer(&spy);

    const int request = profile.default_request;
    for (AnalyzedApp* side : {&reference, &batched}) {
      side->app.SetAllocation(request, 0);
      if (with_baseline) {
        side->analyzer.OnJobStart(0);
      }
      side->app.Start(0);
    }
    SimTime now = 0;
    for (int step = 0; step < 3000 && !reference.app.finished(); ++step) {
      // Spans from a fine tick to many iterations long, so one span crosses
      // anything from zero to hundreds of boundaries.
      SimDuration dt = 20 * kMillisecond;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          dt = rng.UniformInt(1, 40) * kMillisecond;
          break;
        case 1:
          dt = SecondsToTime(rng.Uniform(0.1, 30.0));
          break;
        default:
          break;
      }
      const bool reallocate = rng.UniformInt(0, 9) == 0;
      const int procs = rng.UniformInt(1, request);
      const double shared_procs = rng.Uniform(0.5, 1.5 * request);
      const double overhead = rng.Uniform(0.5, 1.0);
      for (AnalyzedApp* side : {&reference, &batched}) {
        if (reallocate) {
          side->app.SetAllocation(procs, now);  // taints the running iteration
        }
        if (time_shared) {
          side->app.AdvanceTimeShared(now, dt, shared_procs, overhead);
        } else {
          side->app.Advance(now, dt);
        }
      }
      spy.singles_this_span = 0;
      now += dt;
      ASSERT_EQ(reference.app.progress_s(), batched.app.progress_s()) << "seed " << seed;
      ASSERT_EQ(reference.app.completed_iterations(), batched.app.completed_iterations())
          << "seed " << seed;
      ASSERT_EQ(reference.app.change_epoch(), batched.app.change_epoch()) << "seed " << seed;
      ASSERT_EQ(reference.app.finished(), batched.app.finished()) << "seed " << seed;
      ASSERT_EQ(reference.app.EffectiveProcs(), batched.app.EffectiveProcs()) << "seed " << seed;
    }
    EXPECT_EQ(reference.app.finish_time(), batched.app.finish_time()) << "seed " << seed;
    ExpectSameReports(reference.reports, batched.reports, seed);
    for (const char* name :
         {"analyzer.reports", "analyzer.dirty_iterations", "analyzer.baselines_done"}) {
      EXPECT_EQ(reference.registry.counter(name)->value(), batched.registry.counter(name)->value())
          << "seed " << seed << " " << name;
    }
    EXPECT_TRUE(reference.analyzer.rng() == batched.analyzer.rng()) << "seed " << seed;
    EXPECT_EQ(reference.analyzer.baseline_done(), batched.analyzer.baseline_done());

    totals.runs += spy.runs;
    totals.multi_runs += spy.multi_runs;
    totals.dirty_first += spy.dirty_first;
    totals.settled_mid_span += spy.settled_mid_span;
    time_shared_runs += time_shared ? spy.runs : 0;
    noisy_runs += params.noise_sigma > 0.0 ? spy.runs : 0;
    windowed_runs += params.measure_iterations > 1 ? spy.runs : 0;
  }
  // Every case the batch path has to get right actually happened.
  EXPECT_GT(totals.multi_runs, 100);
  EXPECT_GT(totals.dirty_first, 10);
  EXPECT_GT(totals.settled_mid_span, 10);
  EXPECT_GT(time_shared_runs, 10);
  EXPECT_GT(noisy_runs, 10);
  EXPECT_GT(windowed_runs, 10);
}

// --- Slot-resident bindings ---------------------------------------------------

// Everything of one job a caller can observe, compared between a reset and a
// freshly built binding.
void ExpectSameJobState(NthLibBinding& a, NthLibBinding& b, SimTime now, const char* where) {
  const Application& x = a.app();
  const Application& y = b.app();
  ASSERT_EQ(x.id(), y.id()) << where;
  EXPECT_EQ(&x.profile(), &y.profile()) << where;
  EXPECT_EQ(x.request(), y.request()) << where;
  EXPECT_EQ(x.rigid(), y.rigid()) << where;
  EXPECT_EQ(x.started(), y.started()) << where;
  EXPECT_EQ(x.finished(), y.finished()) << where;
  EXPECT_EQ(x.finish_time(), y.finish_time()) << where;
  EXPECT_EQ(x.allocated(), y.allocated()) << where;
  EXPECT_EQ(x.forced_procs(), y.forced_procs()) << where;
  EXPECT_EQ(x.EffectiveProcs(), y.EffectiveProcs()) << where;
  EXPECT_EQ(x.progress_s(), y.progress_s()) << where;
  EXPECT_EQ(x.completed_iterations(), y.completed_iterations()) << where;
  EXPECT_EQ(x.change_epoch(), y.change_epoch()) << where;
  EXPECT_EQ(x.MaxSpeed(), y.MaxSpeed()) << where;
  EXPECT_EQ(x.ElisionReady(now), y.ElisionReady(now)) << where;
  EXPECT_EQ(x.NextBoundaryTime(now), y.NextBoundaryTime(now)) << where;
  EXPECT_TRUE(x.SteadyAnchor(now) == y.SteadyAnchor(now)) << where;
  EXPECT_EQ(a.analyzer().baseline_done(), b.analyzer().baseline_done()) << where;
  EXPECT_EQ(a.analyzer().baseline_procs(), b.analyzer().baseline_procs()) << where;
  EXPECT_EQ(a.analyzer().baseline_time_s(), b.analyzer().baseline_time_s()) << where;
  EXPECT_TRUE(a.analyzer().rng() == b.analyzer().rng()) << where;
}

TEST(NthLibBindingTest, ResetEqualsFreshConstruction) {
  Rng rng(2024);
  std::vector<std::unique_ptr<const AppProfile>> profiles;
  for (int k = 0; k < 3; ++k) {
    profiles.push_back(std::make_unique<const AppProfile>(RandomRunProfile(rng)));
  }
  AppCosts costs;
  costs.reconfig_freeze = 30 * kMillisecond;
  costs.warmup = 200 * kMillisecond;
  SelfAnalyzerParams params;
  params.measure_iterations = 2;
  // Slot 0 hosts the resident binding, slot 1 a fresh one per job.
  HotStateArena arena;
  Registry registry;
  std::unique_ptr<NthLibBinding> resident;
  std::vector<PerfReport> resident_reports;
  int reporting_jobs = 0;
  int finished_jobs = 0;
  for (JobId job = 0; job < 24; ++job) {
    const AppProfile* profile = profiles[static_cast<std::size_t>(rng.UniformInt(0, 2))].get();
    const Rng noise = rng.Fork();
    if (resident == nullptr) {
      resident = std::make_unique<NthLibBinding>(
          std::make_unique<Application>(job, profile, costs, &arena, 0), params, noise,
          AnalyzerCounters::Bind(registry));
      resident->set_report_sink(&resident_reports);
    } else {
      // The previous tenant is left wherever the last job stopped: finished,
      // mid-iteration, frozen, or never started.
      resident->Reset(job, profile, noise);
    }
    NthLibBinding fresh(std::make_unique<Application>(job, profile, costs, &arena, 1), params,
                        noise, AnalyzerCounters::Bind(registry));
    std::vector<PerfReport> fresh_reports;
    fresh.set_report_sink(&fresh_reports);
    resident_reports.clear();
    ExpectSameJobState(*resident, fresh, 0, "after reset");

    const int request = rng.UniformInt(1, 24);
    const bool rigid = rng.UniformInt(0, 4) == 0;
    const int procs = rng.UniformInt(1, request);
    const bool start = rng.UniformInt(0, 5) != 0;
    const int steps = rng.UniformInt(0, 400);
    SimTime now = 0;
    for (NthLibBinding* b : {resident.get(), &fresh}) {
      b->app().set_request(request);
      b->app().set_rigid(rigid);
      b->SetProcessors(procs, 0);
      if (start) {
        rigid ? b->StartJobWithoutAnalyzer(0) : b->StartJob(0);
      }
    }
    for (int step = 0; step < steps && start; ++step) {
      const SimDuration dt = rng.UniformInt(1, 200) * kMillisecond;
      const int next_procs = rng.UniformInt(0, 7) == 0 ? rng.UniformInt(1, request) : procs;
      for (NthLibBinding* b : {resident.get(), &fresh}) {
        b->SetProcessors(next_procs, now);
        b->Tick(now, dt);
      }
      now += dt;
    }
    ExpectSameJobState(*resident, fresh, now, "after run");
    ExpectSameReports(resident_reports, fresh_reports, static_cast<std::uint64_t>(job));
    reporting_jobs += !fresh_reports.empty();
    finished_jobs += fresh.app().finished();
    EXPECT_EQ(arena.seg_valid[0], arena.seg_valid[1]);
    EXPECT_EQ(arena.seg_start[0], arena.seg_start[1]);
    EXPECT_EQ(arena.seg_end[0], arena.seg_end[1]);
    EXPECT_EQ(arena.seg_progress[0], arena.seg_progress[1]);
    EXPECT_EQ(arena.seg_speed[0], arena.seg_speed[1]);
    EXPECT_EQ(arena.ready_at[0], arena.ready_at[1]);
    EXPECT_EQ(arena.next_boundary[0], arena.next_boundary[1]);
  }
  // Tenants both finished and left mid-run, and measured along the way.
  EXPECT_GT(reporting_jobs, 4);
  EXPECT_GT(finished_jobs, 2);
  EXPECT_LT(finished_jobs, 22);
}

}  // namespace
}  // namespace pdpa
