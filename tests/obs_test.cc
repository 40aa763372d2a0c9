// Observability subsystem tests: counters/gauges/histograms semantics, the
// JSONL event log (including the determinism golden test), and the
// per-quantum time-series sampler's integral-exactness invariant.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

// ---------------------------------------------------------------- counters

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_FALSE(gauge.has_value());
  gauge.Set(3.0);
  gauge.Set(-1.5);
  EXPECT_TRUE(gauge.has_value());
  EXPECT_DOUBLE_EQ(gauge.value(), -1.5);
  gauge.Reset();
  EXPECT_FALSE(gauge.has_value());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, LeBucketSemanticsWithOverflow) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // bucket 0 (le 1.0)
  histogram.Observe(1.0);   // bucket 0 (le semantics: 1.0 <= 1.0)
  histogram.Observe(1.5);   // bucket 1
  histogram.Observe(4.0);   // bucket 2
  histogram.Observe(100.0); // overflow
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);
  EXPECT_EQ(histogram.bucket_counts()[0], 2);
  EXPECT_EQ(histogram.bucket_counts()[1], 1);
  EXPECT_EQ(histogram.bucket_counts()[2], 1);
  EXPECT_EQ(histogram.bucket_counts()[3], 1);
  EXPECT_EQ(histogram.count(), 5);
  EXPECT_DOUBLE_EQ(histogram.sum(), 107.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.bucket_counts()[0], 0);
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  Registry registry;
  Counter* a = registry.counter("test.counter");
  Counter* b = registry.counter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(b->value(), 7);
  Gauge* g1 = registry.gauge("test.gauge");
  Gauge* g2 = registry.gauge("test.gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = registry.histogram("test.hist", {1.0, 2.0});
  Histogram* h2 = registry.histogram("test.hist", {5.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->upper_bounds().size(), 2u);
}

TEST(RegistryTest, SnapshotIsNameSortedAndResetAllZeroes) {
  Registry registry;
  registry.counter("z.last")->Increment(3);
  registry.counter("a.first")->Increment(1);
  registry.gauge("m.gauge")->Set(9.5);
  registry.histogram("h.hist", {1.0})->Observe(0.5);

  RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[1].name, "z.last");
  EXPECT_EQ(snapshot.counters[1].value, 3);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 9.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  EXPECT_FALSE(snapshot.ToString().empty());

  registry.ResetAll();
  Counter* survived = registry.counter("z.last");
  EXPECT_EQ(survived->value(), 0);
  EXPECT_EQ(registry.Snapshot().counters.size(), 2u);  // registrations survive
}

// ------------------------------------------------------------------- json

TEST(JsonTest, EscapeRoundTripsThroughParse) {
  std::string line;
  JsonObjectWriter writer(&line);
  writer.Field("text", "line\nwith \"quotes\" and \\slash\\ and\ttab")
      .Field("n", 42)
      .Field("neg", -7)
      .Field("flag", true)
      .Field("x", 0.125);
  writer.Finish();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseFlatJson(line, &fields));
  EXPECT_EQ(fields["text"], "line\nwith \"quotes\" and \\slash\\ and\ttab");
  EXPECT_EQ(fields["n"], "42");
  EXPECT_EQ(fields["neg"], "-7");
  EXPECT_EQ(fields["flag"], "true");
  EXPECT_EQ(fields["x"], "0.125");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  std::map<std::string, std::string> fields;
  EXPECT_FALSE(ParseFlatJson("", &fields));
  EXPECT_FALSE(ParseFlatJson("{\"a\":}", &fields));
  EXPECT_FALSE(ParseFlatJson("{\"a\":1", &fields));
  EXPECT_FALSE(ParseFlatJson("not json", &fields));
  EXPECT_TRUE(ParseFlatJson("{}", &fields));
  EXPECT_TRUE(fields.empty());
  EXPECT_TRUE(ParseFlatJson("  {\"a\": 1}  ", &fields));
  EXPECT_EQ(fields["a"], "1");
}

TEST(EventLogTest, NullSinkDisablesRecording) {
  EventLog log(nullptr);
  EXPECT_FALSE(log.enabled());
  log.JobSubmit(0, 1, "bt", 8, false);
  EXPECT_EQ(log.lines_written(), 0);
}

TEST(EventLogTest, EmittersProduceParseableJsonl) {
  std::ostringstream out;
  EventLog log(&out);
  log.RunStart("PDPA", "w1", 1.0, 42, 60);
  log.JobSubmit(1000, 3, "hydro2d", 24, false);
  log.PdpaTransition(2000, 3, "NO_REF", "INC", 4, 8, 3.2, 0.8, 0.7, "report");
  log.RunEnd(5000, 1, true);
  EXPECT_EQ(log.lines_written(), 4);
  log.Flush();

  std::istringstream lines(out.str());
  std::string line;
  int parsed = 0;
  std::map<std::string, std::string> fields;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(ParseFlatJson(line, &fields)) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, 4);
  // Last parsed line is run_end.
  EXPECT_EQ(fields["type"], "run_end");
  EXPECT_EQ(fields["t_us"], "5000");
  EXPECT_EQ(fields["completed"], "true");
}

// ------------------------------------------------------------- time-series

TEST(TimeSeriesTest, AllocIntegralSumsWindows) {
  TimeSeriesSampler sampler;
  sampler.AddApp({0, 1000, 1, 4.0, 0.0, 0.0, "INC"});
  sampler.AddApp({1000, 3000, 1, 6.0, 3.0, 0.5, "STABLE"});
  sampler.AddApp({0, 2000, 2, 2.0, 0.0, 0.0, ""});
  const std::map<JobId, double> integrals = sampler.AllocIntegralUs();
  EXPECT_DOUBLE_EQ(integrals.at(1), 4.0 * 1000 + 6.0 * 2000);
  EXPECT_DOUBLE_EQ(integrals.at(2), 2.0 * 2000);
}

TEST(TimeSeriesTest, CsvHasHeaderAndRows) {
  TimeSeriesSampler sampler;
  sampler.AddApp({0, 1000000, 7, 4.0, 2.5, 0.625, "DEC"});
  sampler.AddMachine({1000000, 10, 3, 2, 0.833});
  std::string csv;
  sampler.WriteCsv(&csv);
  EXPECT_NE(csv.find("kind,t_s,t_end_s,job,alloc,speedup,efficiency,state,"
                     "free_cpus,running,queued,utilization"),
            std::string::npos);
  EXPECT_NE(csv.find("app,"), std::string::npos);
  EXPECT_NE(csv.find("machine,"), std::string::npos);
  EXPECT_NE(csv.find("DEC"), std::string::npos);
  sampler.Clear();
  EXPECT_TRUE(sampler.empty());
}

// ------------------------------------------------- end-to-end (golden runs)

ExperimentConfig RecorderConfig(EventLog* log, TimeSeriesSampler* timeseries) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.policy = PolicyKind::kPdpa;
  config.seed = 42;
  config.event_log = log;
  config.timeseries = timeseries;
  return config;
}

TEST(FlightRecorderTest, TwoIdenticalRunsAreByteIdentical) {
  std::ostringstream first;
  {
    EventLog log(&first);
    const ExperimentResult result = RunExperiment(RecorderConfig(&log, nullptr));
    ASSERT_TRUE(result.completed);
    EXPECT_GT(log.lines_written(), 0);
  }
  std::ostringstream second;
  {
    EventLog log(&second);
    const ExperimentResult result = RunExperiment(RecorderConfig(&log, nullptr));
    ASSERT_TRUE(result.completed);
  }
  ASSERT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(FlightRecorderTest, EventLogContainsPdpaTransitionsWithEfficiency) {
  std::ostringstream out;
  EventLog log(&out);
  const ExperimentResult result = RunExperiment(RecorderConfig(&log, nullptr));
  ASSERT_TRUE(result.completed);
  log.Flush();

  std::istringstream lines(out.str());
  std::string line;
  int transitions = 0;
  int inc_or_dec = 0;
  bool saw_run_start = false;
  bool saw_run_end = false;
  while (std::getline(lines, line)) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(ParseFlatJson(line, &fields)) << line;
    const std::string type = fields["type"];
    if (type == "run_start") {
      saw_run_start = true;
      EXPECT_EQ(fields["policy"], "PDPA");
    } else if (type == "run_end") {
      saw_run_end = true;
    } else if (type == "pdpa_transition") {
      ++transitions;
      EXPECT_TRUE(fields.contains("eff")) << line;
      EXPECT_TRUE(fields.contains("target")) << line;
      EXPECT_TRUE(fields.contains("from")) << line;
      EXPECT_TRUE(fields.contains("to")) << line;
      if (fields["to"] == "INC" || fields["to"] == "DEC") {
        ++inc_or_dec;
      }
    }
  }
  EXPECT_TRUE(saw_run_start);
  EXPECT_TRUE(saw_run_end);
  // The PDPA search must actually move allocations around on w1 at load 1.
  EXPECT_GT(transitions, 0);
  EXPECT_GT(inc_or_dec, 0);
}

TEST(FlightRecorderTest, TimeseriesIntegralMatchesAvgAllocMetric) {
  TimeSeriesSampler timeseries;
  const ExperimentResult result = RunExperiment(RecorderConfig(nullptr, &timeseries));
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(timeseries.apps().empty());
  ASSERT_FALSE(timeseries.machine().empty());

  // Rebuild per-class avg_alloc from the CSV windows: sum alloc*(dt) per job,
  // divide by the job's wall time, average per class. It must agree with
  // ComputeMetrics' avg_alloc (acceptance bound: 1%; windows telescope, so
  // the match is in practice much tighter).
  const std::map<JobId, double> integrals = timeseries.AllocIntegralUs();
  std::map<AppClass, double> alloc_sum;
  std::map<AppClass, int> count;
  for (const JobOutcome& outcome : result.outcomes) {
    ++count[outcome.app_class];
    const auto it = integrals.find(outcome.id);
    if (it != integrals.end() && outcome.finish > outcome.start) {
      alloc_sum[outcome.app_class] +=
          it->second / static_cast<double>(outcome.finish - outcome.start);
    }
  }
  ASSERT_FALSE(result.metrics.per_class.empty());
  for (const auto& [app_class, metrics] : result.metrics.per_class) {
    ASSERT_GT(count[app_class], 0);
    const double from_timeseries = alloc_sum[app_class] / count[app_class];
    EXPECT_NEAR(from_timeseries, metrics.avg_alloc, 0.01 * metrics.avg_alloc + 1e-9)
        << AppClassName(app_class);
  }
}

TEST(FlightRecorderTest, TimeseriesStatesComeFromTheAutomaton) {
  TimeSeriesSampler timeseries;
  const ExperimentResult result = RunExperiment(RecorderConfig(nullptr, &timeseries));
  ASSERT_TRUE(result.completed);
  int named_states = 0;
  for (const TimeSeriesSampler::AppPoint& point : timeseries.apps()) {
    EXPECT_LT(point.t_start, point.t_end);
    if (!point.state.empty()) {
      ++named_states;
      EXPECT_TRUE(point.state == "NO_REF" || point.state == "INC" || point.state == "DEC" ||
                  point.state == "STABLE")
          << point.state;
    }
  }
  EXPECT_GT(named_states, 0);
}

}  // namespace
}  // namespace pdpa
