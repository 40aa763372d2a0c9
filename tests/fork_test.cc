// Shared-prefix snapshot/fork (DESIGN.md §12): a cell started from its
// group's prefix snapshot must be *byte-identical* to a cold run.
//  * Golden equivalence: for every eligible policy x workload x seed, the
//    forked run produces the same event JSONL, time-series CSV, and metrics
//    as RunExperiment from t=0 — and, for quantum-passive policies, the
//    same final counter/gauge/histogram snapshot, because the prefix
//    registry is restored rather than recomputed.
//  * Sweep integration: a forked sweep produces the same CSV and per-cell
//    recordings as cold RunExperiment runs of its cells (and serial ==
//    parallel), the machinery is non-vacuous (more forked cells than
//    prefixes built), and a one-cell grid builds no prefix at all.
//  * Eligibility: traces, early arrivals, empty workloads and IRIX
//    (policy-owned per-tick randomness) all decline to fork.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/workload/experiment.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

// ---------------------------------------------------------------------------
// Experiment-level golden equivalence.

struct GoldenCase {
  PolicyKind policy;
  WorkloadId workload;
  std::uint64_t seed;
  bool exact_ticks;
};

// gtest prints parameters into the test list (and so into ctest names);
// without this it dumps the struct's raw bytes, padding included.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "{" << PolicyKindName(c.policy) << ", " << WorkloadShortName(c.workload) << ", seed "
      << c.seed << (c.exact_ticks ? ", exact_ticks" : "") << "}";
}

std::string CaseName(const ::testing::TestParamInfo<GoldenCase>& info) {
  return std::string(PolicyKindName(info.param.policy)) + "_" +
         WorkloadShortName(info.param.workload) + "_s" + std::to_string(info.param.seed) +
         (info.param.exact_ticks ? "_exact" : "");
}

ExperimentConfig BaseConfig(const GoldenCase& c) {
  ExperimentConfig config;
  config.workload = c.workload;
  config.load = 1.0;
  config.seed = c.seed;
  config.policy = c.policy;
  config.rm.exact_ticks = c.exact_ticks;
  return config;
}

struct CapturedRun {
  std::string events;
  std::string timeseries;
  RegistrySnapshot counters;
  ExperimentResult result;
};

// Wires private sinks into `config` and runs it — cold from t=0, or forked
// from a freshly built prefix snapshot.
CapturedRun RunCaptured(ExperimentConfig config, bool forked) {
  CapturedRun run;
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  TimeSeriesSampler timeseries;
  config.event_log = &events;
  config.timeseries = &timeseries;
  if (forked) {
    std::shared_ptr<const std::vector<JobSpec>> jobs = BuildJobs(config);
    EXPECT_TRUE(ForkEligible(config, *jobs));
    const PrefixSnapshot snapshot = BuildPrefixSnapshot(config, jobs);
    run.result = RunExperimentFrom(config, snapshot);
  } else {
    run.result = RunExperiment(config);
  }
  events.Flush();  // The log buffers; push bytes out before reading.
  run.events = events_stream.str();
  timeseries.WriteCsv(&run.timeseries);
  run.counters = std::move(run.result.counters);
  return run;
}

void ExpectSameSnapshot(const RegistrySnapshot& cold, const RegistrySnapshot& forked) {
  ASSERT_EQ(cold.counters.size(), forked.counters.size());
  for (std::size_t i = 0; i < cold.counters.size(); ++i) {
    EXPECT_EQ(cold.counters[i].name, forked.counters[i].name);
    EXPECT_EQ(cold.counters[i].value, forked.counters[i].value) << cold.counters[i].name;
  }
  ASSERT_EQ(cold.gauges.size(), forked.gauges.size());
  for (std::size_t i = 0; i < cold.gauges.size(); ++i) {
    EXPECT_EQ(cold.gauges[i].name, forked.gauges[i].name);
    EXPECT_EQ(cold.gauges[i].value, forked.gauges[i].value) << cold.gauges[i].name;
    EXPECT_EQ(cold.gauges[i].has_value, forked.gauges[i].has_value) << cold.gauges[i].name;
  }
  ASSERT_EQ(cold.histograms.size(), forked.histograms.size());
  for (std::size_t i = 0; i < cold.histograms.size(); ++i) {
    EXPECT_EQ(cold.histograms[i].name, forked.histograms[i].name);
    EXPECT_EQ(cold.histograms[i].bucket_counts, forked.histograms[i].bucket_counts)
        << cold.histograms[i].name;
    EXPECT_EQ(cold.histograms[i].count, forked.histograms[i].count) << cold.histograms[i].name;
    EXPECT_EQ(cold.histograms[i].sum, forked.histograms[i].sum) << cold.histograms[i].name;
  }
}

class GoldenForkTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenForkTest, ForkedRunIsByteIdenticalToColdRun) {
  const ExperimentConfig config = BaseConfig(GetParam());
  const CapturedRun cold = RunCaptured(config, /*forked=*/false);
  const CapturedRun forked = RunCaptured(config, /*forked=*/true);

  EXPECT_EQ(cold.events, forked.events);
  EXPECT_EQ(cold.timeseries, forked.timeseries);

  EXPECT_EQ(cold.result.completed, forked.result.completed);
  EXPECT_EQ(cold.result.sim_end_s, forked.result.sim_end_s);
  EXPECT_EQ(cold.result.max_ml, forked.result.max_ml);
  EXPECT_EQ(cold.result.reallocations, forked.result.reallocations);
  EXPECT_EQ(cold.result.metrics.jobs, forked.result.metrics.jobs);
  EXPECT_EQ(cold.result.metrics.makespan_s, forked.result.metrics.makespan_s);
  ASSERT_EQ(cold.result.metrics.per_class.size(), forked.result.metrics.per_class.size());
  for (const auto& [app_class, cold_metrics] : cold.result.metrics.per_class) {
    const auto it = forked.result.metrics.per_class.find(app_class);
    ASSERT_NE(it, forked.result.metrics.per_class.end());
    EXPECT_EQ(cold_metrics.count, it->second.count);
    EXPECT_EQ(cold_metrics.avg_response_s, it->second.avg_response_s);
    EXPECT_EQ(cold_metrics.avg_exec_s, it->second.avg_exec_s);
    EXPECT_EQ(cold_metrics.avg_wait_s, it->second.avg_wait_s);
    EXPECT_EQ(cold_metrics.p50_response_s, it->second.p50_response_s);
    EXPECT_EQ(cold_metrics.p95_response_s, it->second.p95_response_s);
    EXPECT_EQ(cold_metrics.avg_alloc, it->second.avg_alloc);
  }
  ASSERT_EQ(cold.result.outcomes.size(), forked.result.outcomes.size());
  for (std::size_t i = 0; i < cold.result.outcomes.size(); ++i) {
    EXPECT_EQ(cold.result.outcomes[i].id, forked.result.outcomes[i].id);
    EXPECT_EQ(cold.result.outcomes[i].submit, forked.result.outcomes[i].submit);
    EXPECT_EQ(cold.result.outcomes[i].start, forked.result.outcomes[i].start);
    EXPECT_EQ(cold.result.outcomes[i].finish, forked.result.outcomes[i].finish);
  }

  // Under exact ticks the prefix fires the identical tick/quantum cadence
  // for every policy; with elision, passive policies park identically. In
  // both cases the restored prefix registry makes the *entire* final
  // instrument state match a cold run bit for bit. Non-passive policies
  // under elision legitimately differ (their cold prefix evaluates empty
  // quanta the passive sentinel elides), so only these cases compare.
  const bool counters_exact =
      GetParam().exact_ticks || GetParam().policy == PolicyKind::kEquipartition ||
      GetParam().policy == PolicyKind::kPdpa;
  if (counters_exact) {
    ExpectSameSnapshot(cold.counters, forked.counters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesWorkloadsSeeds, GoldenForkTest,
    ::testing::Values(GoldenCase{PolicyKind::kEquipartition, WorkloadId::kW1, 42, false},
                      GoldenCase{PolicyKind::kEquipartition, WorkloadId::kW2, 43, false},
                      GoldenCase{PolicyKind::kEqualEfficiency, WorkloadId::kW1, 43, false},
                      GoldenCase{PolicyKind::kEqualEfficiency, WorkloadId::kW2, 42, false},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW1, 42, false},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW1, 43, false},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW2, 42, false},
                      GoldenCase{PolicyKind::kMcCannDynamic, WorkloadId::kW1, 42, false},
                      GoldenCase{PolicyKind::kMcCannDynamic, WorkloadId::kW2, 43, false},
                      GoldenCase{PolicyKind::kEquipartition, WorkloadId::kW1, 42, true},
                      GoldenCase{PolicyKind::kEqualEfficiency, WorkloadId::kW1, 42, true},
                      GoldenCase{PolicyKind::kPdpa, WorkloadId::kW2, 43, true},
                      GoldenCase{PolicyKind::kMcCannDynamic, WorkloadId::kW1, 42, true}),
    CaseName);

// ---------------------------------------------------------------------------
// Snapshot/Restore primitives.

TEST(SimulationRestoreTest, RestoreStampsTheClockOntoAFreshSimulation) {
  Simulation sim;
  sim.Restore(12345678);
  EXPECT_EQ(sim.now(), 12345678);
  // Restore is monotone: a second restore may only move forward.
  sim.Restore(23456789);
  EXPECT_EQ(sim.now(), 23456789);
}

TEST(RegistryRestoreTest, RestoreOverwritesRegistersAndZeroes) {
  Registry source;
  source.counter("a")->Increment(7);
  source.gauge("g")->Set(3.5);
  source.histogram("h", {1.0, 10.0})->Observe(4.0);
  const RegistrySnapshot snapshot = source.Snapshot();

  Registry target;
  target.counter("a")->Increment(100);   // overwritten to 7
  target.counter("stale")->Increment(5); // zeroed (absent from snapshot)
  target.Restore(snapshot);

  const RegistrySnapshot after = target.Snapshot();
  for (const CounterSnapshot& c : after.counters) {
    if (c.name == "a") {
      EXPECT_EQ(c.value, 7);
    } else if (c.name == "stale") {
      EXPECT_EQ(c.value, 0);
    }
  }
  bool saw_gauge = false;
  for (const GaugeSnapshot& g : after.gauges) {
    if (g.name == "g") {
      saw_gauge = true;
      EXPECT_TRUE(g.has_value);
      EXPECT_EQ(g.value, 3.5);
    }
  }
  EXPECT_TRUE(saw_gauge);
  bool saw_histogram = false;
  for (const HistogramSnapshot& h : after.histograms) {
    if (h.name == "h") {
      saw_histogram = true;
      EXPECT_EQ(h.count, 1);
      EXPECT_EQ(h.sum, 4.0);
    }
  }
  EXPECT_TRUE(saw_histogram);
}

TEST(ForkEligibilityTest, TraceRecordingDeclinesToFork) {
  ExperimentConfig config;
  config.record_trace = true;
  const std::shared_ptr<const std::vector<JobSpec>> jobs = BuildJobs(config);
  EXPECT_FALSE(PrefixForkable(config, *jobs));
}

TEST(ForkEligibilityTest, EmptyWorkloadDeclinesToFork) {
  const ExperimentConfig config;
  const std::vector<JobSpec> no_jobs;
  EXPECT_FALSE(PrefixForkable(config, no_jobs));
}

TEST(ForkEligibilityTest, ArrivalInsideFirstQuantumDeclinesToFork) {
  ExperimentConfig config;
  JobSpec early;
  early.id = 1;
  early.submit = config.rm.quantum / 2;  // inside the first quantum
  early.request = 8;
  config.jobs_override = {early};
  const std::shared_ptr<const std::vector<JobSpec>> jobs = BuildJobs(config);
  EXPECT_FALSE(PrefixForkable(config, *jobs));
}

TEST(ForkEligibilityTest, IrixIsPrefixForkableButNotForkEligible) {
  ExperimentConfig config;
  config.policy = PolicyKind::kIrix;
  const std::shared_ptr<const std::vector<JobSpec>> jobs = BuildJobs(config);
  ASSERT_TRUE(PrefixForkable(config, *jobs));
  EXPECT_FALSE(ForkEligible(config, *jobs));
}

TEST(ForkEligibilityTest, SnapshotDivergencePrecedesFirstArrival) {
  ExperimentConfig config;
  std::shared_ptr<const std::vector<JobSpec>> jobs = BuildJobs(config);
  ASSERT_TRUE(PrefixForkable(config, *jobs));
  SimTime first = (*jobs)[0].submit;
  for (const JobSpec& spec : *jobs) {
    first = std::min(first, spec.submit);
  }
  const PrefixSnapshot snapshot = BuildPrefixSnapshot(config, jobs);
  EXPECT_LT(snapshot.divergence, first);
  EXPECT_FALSE(snapshot.with_timeseries);
  EXPECT_TRUE(snapshot.machine_points.empty());
}

// ---------------------------------------------------------------------------
// Sweep-level integration.

SweepGrid ForkGrid() {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2};
  grid.loads = {1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency, PolicyKind::kPdpa,
                   PolicyKind::kMcCannDynamic};
  grid.seeds = {42, 43};
  return grid;
}

SweepOptions CaptureAll(int jobs, ForkStats* stats) {
  SweepOptions options;
  options.jobs = jobs;
  options.capture_counters = true;
  options.capture_events = true;
  options.capture_timeseries = true;
  options.fork_stats = stats;
  return options;
}

// Every cell of `grid` run cold from t=0 by RunExperiment, with the same
// private sinks a sweep cell gets: the reference a forked sweep must match.
std::vector<SweepCellResult> ColdCells(const SweepGrid& grid) {
  std::vector<SweepCellResult> cells;
  for (const SweepCell& cell : ExpandGrid(grid)) {
    CapturedRun run = RunCaptured(cell.config, /*forked=*/false);
    SweepCellResult r;
    r.cell = cell;
    r.result = std::move(run.result);
    r.counters = std::move(run.counters);
    r.events_jsonl = std::move(run.events);
    r.timeseries_csv = std::move(run.timeseries);
    cells.push_back(std::move(r));
  }
  return cells;
}

std::string Csv(const std::vector<SweepCellResult>& results, std::size_t seeds_per_group) {
  std::ostringstream out;
  SweepCsv(results, seeds_per_group, out);
  return out.str();
}

void ExpectSameCells(const std::vector<SweepCellResult>& a,
                     const std::vector<SweepCellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].events_jsonl, b[i].events_jsonl) << a[i].cell.name;
    EXPECT_EQ(a[i].timeseries_csv, b[i].timeseries_csv) << a[i].cell.name;
    EXPECT_EQ(a[i].result.sim_end_s, b[i].result.sim_end_s) << a[i].cell.name;
    EXPECT_EQ(a[i].result.metrics.makespan_s, b[i].result.metrics.makespan_s) << a[i].cell.name;
  }
}

TEST(SweepForkTest, ForkedSweepMatchesColdSweepByteForByte) {
  ForkStats fork_stats;
  const std::vector<SweepCellResult> forked =
      RunSweep(ForkGrid(), CaptureAll(1, &fork_stats));
  const std::vector<SweepCellResult> cold = ColdCells(ForkGrid());

  ExpectSameCells(cold, forked);
  EXPECT_EQ(Csv(cold, 2), Csv(forked, 2));

  // Non-vacuity: one prefix per (workload, load, seed) group, forked into
  // all four policies' cells — strictly more forks than prefix runs.
  EXPECT_EQ(fork_stats.groups, 4u);
  EXPECT_EQ(fork_stats.prefixes_built, 4u);
  EXPECT_EQ(fork_stats.forked_cells, forked.size());
  EXPECT_EQ(fork_stats.cold_cells, 0u);
  EXPECT_GT(fork_stats.forked_cells, fork_stats.prefixes_built);
}

// A one-cell group builds no prefix (a prefix run plus one fork costs more
// than one cold run), so a one-cell sweep is exactly the cold run: even the
// tick and event counters of a quantum-active policy match.
TEST(SweepForkTest, OneCellGridRunsColdWithoutAPrefix) {
  SweepGrid grid;
  grid.loads = {0.6};
  grid.policies = {PolicyKind::kEqualEfficiency};
  ForkStats stats;
  const std::vector<SweepCellResult> swept = RunSweep(grid, CaptureAll(1, &stats));
  const std::vector<SweepCellResult> cold = ColdCells(grid);

  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.prefixes_built, 0u);
  EXPECT_EQ(stats.forked_cells, 0u);
  EXPECT_EQ(stats.cold_cells, 1u);
  ExpectSameCells(cold, swept);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(cold[0].counters.ToString(), swept[0].counters.ToString());
}

TEST(SweepForkTest, ParallelForkedSweepMatchesSerial) {
  ForkStats serial_stats;
  const std::vector<SweepCellResult> serial =
      RunSweep(ForkGrid(), CaptureAll(1, &serial_stats));
  ForkStats parallel_stats;
  const std::vector<SweepCellResult> parallel =
      RunSweep(ForkGrid(), CaptureAll(4, &parallel_stats));

  ExpectSameCells(serial, parallel);
  EXPECT_EQ(Csv(serial, 2), Csv(parallel, 2));
  // Fork decisions are deterministic, not scheduling-dependent.
  EXPECT_EQ(serial_stats.forked_cells, parallel_stats.forked_cells);
  EXPECT_EQ(serial_stats.prefixes_built, parallel_stats.prefixes_built);

  // Counter snapshots match cell for cell: the per-cell registry is fresh
  // even though the event log / sampler scratch is reused per worker.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExpectSameSnapshot(serial[i].counters, parallel[i].counters);
  }
}

TEST(SweepForkTest, IrixCellsRunColdInsideAForkedSweep) {
  SweepGrid grid = ForkGrid();
  grid.policies = {PolicyKind::kIrix, PolicyKind::kPdpa};
  ForkStats stats;
  const std::vector<SweepCellResult> results = RunSweep(grid, CaptureAll(1, &stats));

  ExpectSameCells(ColdCells(grid), results);
  // 4 groups x 2 policies: the PDPA half forks, the IRIX half replays cold.
  EXPECT_EQ(stats.forked_cells, 4u);
  EXPECT_EQ(stats.cold_cells, 4u);
}

}  // namespace
}  // namespace pdpa
