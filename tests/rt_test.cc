// Tests for the live runtime: malleable team, kernels, wall-clock tuner and
// the in-process PDPA resource manager. These run real threads and real
// timers, so tolerances are generous; the latency-bound kernel gives true
// wall-clock speedup even on a single-core host.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>

#include "src/rt/kernels.h"
#include "src/rt/malleable_team.h"
#include "src/rt/process_rm.h"
#include "src/rt/self_tuner.h"

namespace pdpa {
namespace {

TEST(MalleableTeamTest, AllWorkersExecuteBody) {
  MalleableTeam team(4);
  std::atomic<int> hits{0};
  std::atomic<int> mask{0};
  team.ParallelRegion(4, [&](int worker, int width) {
    EXPECT_EQ(width, 4);
    hits.fetch_add(1);
    mask.fetch_or(1 << worker);
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(MalleableTeamTest, WidthChangesBetweenRegions) {
  MalleableTeam team(8);
  for (int width : {1, 8, 3, 5, 1, 8}) {
    std::atomic<int> hits{0};
    team.ParallelRegion(width, [&](int, int) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), width);
  }
  EXPECT_EQ(team.regions_executed(), 6);
}

TEST(MalleableTeamTest, ManySmallRegionsNoDeadlock) {
  MalleableTeam team(4);
  std::atomic<long long> sum{0};
  for (int i = 0; i < 500; ++i) {
    team.ParallelRegion(1 + (i % 4), [&](int, int) { sum.fetch_add(1); });
  }
  EXPECT_GT(sum.load(), 500);
}

TEST(MalleableTeamTest, ChunkedSumIsCorrect) {
  MalleableTeam team(4);
  // Sum 0..9999 split across workers; verifies chunk indexing logic that
  // clients typically write.
  constexpr int kN = 10000;
  std::vector<long long> partial(4, 0);
  team.ParallelRegion(4, [&](int worker, int width) {
    long long local = 0;
    for (int i = worker; i < kN; i += width) {
      local += i;
    }
    partial[static_cast<std::size_t>(worker)] = local;
  });
  long long total = 0;
  for (long long p : partial) {
    total += p;
  }
  EXPECT_EQ(total, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(LatencyKernelTest, ScalesWithWidth) {
  LatencyKernel kernel(/*work_ms=*/40.0, /*serial_fraction=*/0.0, /*scalability=*/1.0);
  MalleableTeam team(4);
  const auto t0 = std::chrono::steady_clock::now();
  team.ParallelRegion(1, [&](int w, int width) { kernel.RunChunk(w, width); });
  const auto t1 = std::chrono::steady_clock::now();
  team.ParallelRegion(4, [&](int w, int width) { kernel.RunChunk(w, width); });
  const auto t2 = std::chrono::steady_clock::now();
  const double serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double wide_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  EXPECT_GT(serial_ms, wide_ms * 1.8) << "4-wide should be ~4x faster";
}

TEST(LatencyKernelTest, ZeroScalabilityDoesNotSpeedUp) {
  LatencyKernel kernel(/*work_ms=*/30.0, /*serial_fraction=*/0.0, /*scalability=*/0.0);
  MalleableTeam team(4);
  const auto t0 = std::chrono::steady_clock::now();
  team.ParallelRegion(4, [&](int w, int width) { kernel.RunChunk(w, width); });
  const auto t1 = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  // Per-worker share = 30/4 * 4^1 = 30 ms: as slow as serial.
  EXPECT_GT(ms, 25.0);
}

TEST(BusyKernelTest, RunsAndAccumulatesChecksum) {
  BusyKernel kernel(100000, 0.1);
  kernel.RunSerialPart();
  kernel.RunChunk(0, 2);
  EXPECT_GT(kernel.checksum(), 0.0);
}

TEST(SelfTunerTest, BaselineThenReports) {
  SelfTuner tuner(3, SelfTuner::Params{.baseline_iterations = 2, .baseline_width = 1,
                                       .amdahl_factor = 1.0});
  EXPECT_EQ(tuner.WidthFor(8), 1);  // baseline engaged
  tuner.OnIteration(0.1, 1);
  EXPECT_FALSE(tuner.baseline_done());
  tuner.OnIteration(0.1, 1);
  EXPECT_TRUE(tuner.baseline_done());
  EXPECT_NEAR(tuner.baseline_seconds(), 0.1, 1e-9);
  EXPECT_EQ(tuner.WidthFor(8), 8);

  tuner.OnIteration(0.025, 4);  // 4x faster with 4 workers
  const auto report = tuner.LatestReport();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->job, 3);
  EXPECT_EQ(report->procs, 4);
  EXPECT_NEAR(report->speedup, 4.0, 1e-6);
  EXPECT_NEAR(report->efficiency, 1.0, 1e-6);
}

TEST(SelfTunerTest, WideIterationsIgnoredDuringBaseline) {
  SelfTuner tuner(0, SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 2,
                                       .amdahl_factor = 0.95});
  tuner.OnIteration(0.05, 8);  // not a baseline sample
  EXPECT_FALSE(tuner.baseline_done());
  tuner.OnIteration(0.2, 2);
  EXPECT_TRUE(tuner.baseline_done());
  // Normalization uses amdahl_factor * baseline_width.
  tuner.OnIteration(0.1, 4);
  ASSERT_TRUE(tuner.LatestReport().has_value());
  EXPECT_NEAR(tuner.LatestReport()->speedup, 2.0 * 0.95 * 2.0, 1e-6);
}

TEST(InProcessRmTest, ScalableAppGrowsNonScalableShrinks) {
  InProcessRm::Params params;
  params.cpu_budget = 8;
  params.quantum_ms = 10.0;
  // Tolerate wall-clock noise from thread wake-up latency on loaded hosts.
  params.pdpa.target_eff = 0.3;
  InProcessRm rm(params);

  // App 1 scales perfectly (latency-bound, fully parallel).
  rm.AddApplication(std::make_unique<RtApplication>(
      1, "scalable", std::make_unique<LatencyKernel>(40.0, 0.0, 1.0), /*iterations=*/16,
      /*request=*/6, SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 1,
                                       .amdahl_factor = 1.0}));
  // App 2 does not scale at all.
  rm.AddApplication(std::make_unique<RtApplication>(
      2, "flat", std::make_unique<LatencyKernel>(40.0, 0.0, 0.05), /*iterations=*/16,
      /*request=*/6, SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 1,
                                       .amdahl_factor = 1.0}));
  rm.Run();

  const PdpaAutomaton* scalable = rm.AutomatonFor(1);
  const PdpaAutomaton* flat = rm.AutomatonFor(2);
  ASSERT_NE(scalable, nullptr);
  ASSERT_NE(flat, nullptr);
  // The live PDPA loop must have shrunk the non-scalable app to the floor
  // and grown (or at least kept) the scalable one.
  EXPECT_LE(flat->current_alloc(), 2);
  EXPECT_GE(scalable->current_alloc(), 3);
}

TEST(InProcessRmTest, CoordinatedAdmissionQueuesBeyondDefaultMl) {
  InProcessRm::Params params;
  params.cpu_budget = 4;
  params.quantum_ms = 5.0;
  params.default_ml = 1;  // one app at a time until it settles
  InProcessRm rm(params);
  for (JobId job = 0; job < 3; ++job) {
    rm.AddApplication(std::make_unique<RtApplication>(
        job, "queued", std::make_unique<LatencyKernel>(10.0, 0.0, 0.05), /*iterations=*/12,
        /*request=*/4,
        SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 1,
                          .amdahl_factor = 1.0}));
  }
  rm.Run();
  // Every application ran to completion...
  for (JobId job = 0; job < 3; ++job) {
    EXPECT_NE(rm.AutomatonFor(job), nullptr);
  }
  // ...and the coordinated rule admitted more than the default ML once the
  // flat (non-scalable) apps settled at 1 worker each.
  EXPECT_GE(rm.max_concurrency(), 2);
}

// Latency kernel that also keeps virtual time for the tuner's clock: after
// each region, worker 0 advances `clock_us` by the region's modeled
// duration. Iteration timings are then exact however the host schedules the
// sleeping workers, while the real sleeps still pace the application against
// the resource manager's polling loop.
class VirtualTimeLatencyKernel : public IterativeKernel {
 public:
  VirtualTimeLatencyKernel(double work_ms, std::atomic<long long>* clock_us)
      : latency_(work_ms, 0.0, 1.0), work_ms_(work_ms), clock_us_(clock_us) {}

  std::string name() const override { return "virtual-latency"; }
  void RunChunk(int worker_index, int width) override {
    latency_.RunChunk(worker_index, width);
    if (worker_index == 0) {
      clock_us_->fetch_add(std::llround(work_ms_ * 1000.0 / width));
    }
  }

 private:
  LatencyKernel latency_;
  double work_ms_;
  std::atomic<long long>* clock_us_;
};

TEST(RtApplicationTest, DpdModeDetectsIterationsAndTunes) {
  // "Binary-only" path: the application never announces iteration
  // boundaries; the runtime discovers them from the parallel-loop stream
  // with the Dynamic Periodicity Detector and still feeds the tuner.
  InProcessRm::Params params;
  params.cpu_budget = 4;
  params.quantum_ms = 5.0;
  params.pdpa.target_eff = 0.3;
  params.pdpa.high_eff = 0.9;
  InProcessRm rm(params);

  RtApplication::Options options;
  options.loops_per_iteration = 3;
  options.detect_iterations_with_dpd = true;
  // The tuner reads the kernel's virtual time, so host load cannot distort
  // the measured speedups PDPA acts on.
  std::atomic<long long> clock_us{0};
  options.clock = [&clock_us] { return static_cast<double>(clock_us.load()) * 1e-6; };
  auto app = std::make_unique<RtApplication>(
      0, "binary-only", std::make_unique<VirtualTimeLatencyKernel>(24.0, &clock_us),
      /*iterations=*/20,
      /*request=*/4,
      SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 1, .amdahl_factor = 1.0},
      options);
  RtApplication* raw = app.get();
  rm.AddApplication(std::move(app));
  rm.Run();

  EXPECT_TRUE(raw->finished());
  EXPECT_EQ(raw->completed_iterations(), 20);
  // The detector needs a few periods to lock on, then reports boundaries.
  EXPECT_GT(raw->detected_boundaries(), 8);
  // The tuner produced measurements (baseline done) through the DPD path.
  EXPECT_TRUE(raw->tuner().baseline_done());
  // And PDPA acted on them: a perfectly scalable app should have grown.
  EXPECT_GE(rm.AutomatonFor(0)->current_alloc(), 2);
}

TEST(SelfTunerTest, InjectedClockTimesIterations) {
  double now_s = 5.0;
  SelfTuner tuner(3, SelfTuner::Params{}, [&now_s] { return now_s; });
  EXPECT_EQ(tuner.Now(), 5.0);
  now_s = 6.5;
  EXPECT_EQ(tuner.Now(), 6.5);
  // Without an injected clock the host clock moves forward.
  SelfTuner host(4, SelfTuner::Params{});
  const double before = host.Now();
  EXPECT_GE(host.Now(), before);
}

TEST(InProcessRmTest, SingleAppRunsToCompletion) {
  InProcessRm::Params params;
  params.cpu_budget = 4;
  params.quantum_ms = 5.0;
  InProcessRm rm(params);
  auto app = std::make_unique<RtApplication>(
      0, "solo", std::make_unique<LatencyKernel>(8.0, 0.1, 1.0), 10, 4,
      SelfTuner::Params{.baseline_iterations = 1, .baseline_width = 1, .amdahl_factor = 1.0});
  RtApplication* raw = app.get();
  rm.AddApplication(std::move(app));
  rm.Run();
  EXPECT_TRUE(raw->finished());
  EXPECT_EQ(raw->completed_iterations(), 10);
}

}  // namespace
}  // namespace pdpa
