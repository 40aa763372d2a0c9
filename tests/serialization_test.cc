// Serialization fast-path tests (DESIGN.md §9).
//
// Pins the three layers the zero-allocation path is built from:
//   1. the fmt.h number formatters are byte-identical to the snprintf
//      contracts the sinks have always used ("%lld"/"%llu"/"%.Ng"/"%.Nf"),
//      asserted over an exhaustive-edge + deterministic-random corpus;
//   2. the JSON escape table round-trips every byte through
//      JsonEscape/ParseFlatJson, including the \u00XX control-range;
//   3. every converted sink (event JSONL, time-series CSV, sweep CSV,
//      Paraver .prv) produces byte-identical output to the retained legacy
//      serializers on live simulation data.
// Plus BufWriter unit coverage (spill, oversized record, dtor flush).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/strings.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/trace/paraver_writer.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/experiment.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

// ------------------------------------------------------------ fmt golden

// Deterministic 64-bit generator (xorshift*): the corpus must be identical
// on every run, everywhere — no std::random device/seed variation.
class DeterministicBits {
 public:
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

 private:
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

std::vector<long long> IntCorpus() {
  std::vector<long long> corpus = {
      0,
      1,
      -1,
      7,
      -42,
      std::numeric_limits<long long>::max(),
      std::numeric_limits<long long>::min(),
      std::numeric_limits<int>::max(),
      std::numeric_limits<int>::min(),
  };
  long long p = 1;
  for (int i = 0; i < 18; ++i) {
    p *= 10;
    corpus.push_back(p);
    corpus.push_back(p - 1);
    corpus.push_back(-p);
    corpus.push_back(-p + 1);
  }
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(static_cast<long long>(bits.Next()));
  }
  return corpus;
}

std::vector<double> DoubleCorpus() {
  std::vector<double> corpus = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      2.0 / 3.0,
      1e-3,
      123.456,
      1e10,
      1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest subnormal
      std::numeric_limits<double>::epsilon(),
  };
  for (int e = -30; e <= 30; ++e) {
    corpus.push_back(std::pow(10.0, e));
    corpus.push_back(-std::pow(10.0, e) * 1.2345678901);
  }
  // AppendGeneral's integral fast path (|v| < 10^precision): both sides of
  // every power of ten, the 2^52 / 2^53 region where doubles stop holding
  // every integer, negative integers, and non-integers just below one.
  for (int e = 0; e <= 17; ++e) {
    const double p = std::pow(10.0, e);
    for (const double v : {p - 1.0, p, p + 1.0, std::nextafter(p, 0.0), std::nextafter(p, 2 * p)}) {
      corpus.push_back(v);
      corpus.push_back(-v);
    }
  }
  for (const double v : {0x1p52, 0x1p52 - 1.0, 0x1p52 + 1.0, 0x1p52 - 0.5, 0x1p53, 0x1p53 + 2.0,
                         std::nextafter(0x1p52, 0.0), -42.0, -7.0, 30.0, 59.0, 1.0 - 0x1p-53,
                         2.0 - 0x1p-52, 59.0 - 0x1p-47, 0.1, 99.99999999}) {
    corpus.push_back(v);
    corpus.push_back(-v);
  }
  DeterministicBits bits;
  for (int i = 0; i < 2000; ++i) {
    // Integers of every magnitude, and the nearest non-integers below them.
    const double whole = static_cast<double>(static_cast<long long>(bits.Next() >> (i % 64)));
    corpus.push_back(whole);
    corpus.push_back(-whole);
    corpus.push_back(std::nextafter(whole, 0.0));
  }
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns: exercises subnormals, NaN payloads, both signs.
    double value = 0.0;
    const std::uint64_t pattern = bits.Next();
    std::memcpy(&value, &pattern, sizeof(value));
    corpus.push_back(value);
    // And values in the ranges the sinks actually emit.
    corpus.push_back(static_cast<double>(pattern % 1000000) / 997.0);
  }
  return corpus;
}

TEST(FmtGoldenTest, AppendIntMatchesStrFormatLld) {
  std::string got;
  for (const long long value : IntCorpus()) {
    got.clear();
    AppendInt(&got, value);
    ASSERT_EQ(got, StrFormat("%lld", value));
  }
}

TEST(FmtGoldenTest, AppendUintMatchesStrFormatLlu) {
  std::string got;
  for (const long long value : IntCorpus()) {
    const unsigned long long u = static_cast<unsigned long long>(value);
    got.clear();
    AppendUint(&got, u);
    ASSERT_EQ(got, StrFormat("%llu", u));
  }
}

TEST(FmtGoldenTest, AppendGeneralMatchesStrFormatG) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {1, 2, 6, 10, 17}) {
    const std::string spec = StrFormat("%%.%dg", precision);
    for (const double value : corpus) {
      got.clear();
      AppendGeneral(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, AppendFixedMatchesStrFormatF) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {0, 2, 3, 6}) {
    const std::string spec = StrFormat("%%.%df", precision);
    for (const double value : corpus) {
      // Fixed notation of huge magnitudes prints hundreds of digits; the
      // sinks only ever use %f for times/loads. Keep the corpus in range.
      if (std::isfinite(value) && std::abs(value) > 1e15) {
        continue;
      }
      got.clear();
      AppendFixed(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, AppendMicrosAsSecondsMatchesStrFormatF) {
  std::vector<SimTime> corpus = {0,
                                 1,
                                 999999,
                                 1000000,
                                 (SimTime{1} << 52) - 1,
                                 SimTime{1} << 52,
                                 -1,
                                 -1000000,
                                 (SimTime{1} << 52) + 1,
                                 SimTime{1} << 53,
                                 std::numeric_limits<SimTime>::max(),
                                 std::numeric_limits<SimTime>::min()};
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    // Every magnitude up to 2^63 - 1, both signs.
    const auto t = static_cast<SimTime>(bits.Next() >> (1 + i % 63));
    corpus.push_back(t);
    corpus.push_back(-t);
  }
  std::string got;
  for (const SimTime t : corpus) {
    got.clear();
    AppendMicrosAsSeconds(&got, t);
    ASSERT_EQ(got, StrFormat("%.6f", TimeToSeconds(t))) << "t " << t;
  }
}

TEST(FmtGoldenTest, DefaultGeneralPrecisionIsTen) {
  std::string got;
  AppendGeneral(&got, 2.0 / 3.0);
  EXPECT_EQ(got, StrFormat("%.10g", 2.0 / 3.0));
}

// --------------------------------------------------------- escape table

TEST(JsonEscapeTest, FullEscapeTableRoundTripsThroughParse) {
  // Every byte 0x00..0x7F plus a multi-byte UTF-8 sample; the escape table
  // must emit the short forms for the named controls, \u00XX for the rest
  // of the control range, and pass everything else through.
  std::string raw;
  for (int c = 0; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  raw += "π … \xC3\xA9";  // multi-byte sequences pass through untouched

  const std::string escaped = JsonEscape(raw);
  EXPECT_TRUE(escaped.find("\\u0000") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u001f") != std::string::npos);
  // \b and \f take the \u00XX form — the escape table's short forms are
  // only \" \\ \n \r \t, and the byte contract pins it that way.
  EXPECT_TRUE(escaped.find("\\u0008") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u000c") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\n") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\r") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\t") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\"") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\\") != std::string::npos);
  // No raw control bytes may survive escaping.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }

  std::string line;
  JsonObjectWriter writer(&line);
  writer.Field("payload", raw);
  writer.Finish();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseFlatJson(line, &fields));
  EXPECT_EQ(fields["payload"], raw);
}

TEST(JsonEscapeTest, JsonEscapeToAppendsIdenticalBytes) {
  const std::string raw = "a\"b\\c\nd\x01";
  std::string appended = "prefix:";
  JsonEscapeTo(&appended, raw);
  EXPECT_EQ(appended, "prefix:" + JsonEscape(raw));
}

TEST(JsonEscapeTest, FastAndLegacyWritersAgreeOnEscapes) {
  std::string raw;
  for (int c = 1; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  std::string fast;
  JsonObjectWriter writer(&fast);
  writer.Field("s", raw).Field("n", 42).Field("d", 1.0 / 3.0).Field("b", true);
  writer.Finish();
  internal::LegacyJsonObjectWriter legacy;
  legacy.Field("s", raw).Field("n", 42).Field("d", 1.0 / 3.0).Field("b", true);
  EXPECT_EQ(fast, legacy.Finish());
}

// ------------------------------------------------------------- BufWriter

TEST(BufWriterTest, SmallAppendsReachSinkOnFlush) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("hello");
  writer.Append(' ');
  writer.Append("world");
  EXPECT_EQ(sink.str(), "");  // still buffered
  writer.Flush();
  EXPECT_EQ(sink.str(), "hello world");
  EXPECT_EQ(writer.bytes_written(), 11u);
}

TEST(BufWriterTest, SpillsAtBufferBoundaryWithoutByteLoss) {
  std::ostringstream sink;
  std::string expected;
  {
    BufWriter writer(&sink);
    const std::string chunk(1000, 'x');
    for (int i = 0; i < 200; ++i) {  // 200 KB through a 64 KiB buffer
      std::string record = chunk;
      record[0] = static_cast<char>('a' + i % 26);
      writer.Append(record);
      expected += record;
    }
    EXPECT_EQ(writer.bytes_written(), expected.size());
  }  // destructor flushes the tail
  EXPECT_EQ(sink.str(), expected);
}

TEST(BufWriterTest, OversizedRecordBypassesBuffer) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("head:");
  const std::string big(BufWriter::kBufferSize * 2, 'y');
  writer.Append(big);
  // The oversized record cannot fit the buffer, so it (and the bytes queued
  // before it) must already be in the sink without an explicit Flush.
  EXPECT_EQ(sink.str(), "head:" + big);
}

TEST(BufWriterTest, NullSinkDiscardsQuietly) {
  BufWriter writer(nullptr);
  writer.Append("dropped");
  writer.Flush();
  EXPECT_EQ(writer.bytes_written(), 0u);
}

// ------------------------------------------------ time-series CSV rows

// WriteCsv must print exactly what the legacy writer prints, both into a
// fresh string and appended to a warm one that already holds bytes and
// spare capacity from a previous, larger write.
void ExpectCsvMatchesLegacy(const TimeSeriesSampler& series) {
  std::ostringstream legacy;
  internal::WriteTimeSeriesCsvLegacy(series, legacy);
  std::string fresh;
  series.WriteCsv(&fresh);
  EXPECT_EQ(fresh, legacy.str());
  std::string warm(1 << 20, 'x');
  warm.resize(3);
  series.WriteCsv(&warm);
  EXPECT_EQ(warm, "xxx" + legacy.str());
}

TimeSeriesSampler::AppPoint App(SimTime t_start, SimTime t_end, JobId job, double alloc,
                                std::string state = "") {
  TimeSeriesSampler::AppPoint point;
  point.t_start = t_start;
  point.t_end = t_end;
  point.job = job;
  point.alloc = alloc;
  point.speedup = 2.5;
  point.efficiency = 0.625;
  point.state = std::move(state);
  return point;
}

TimeSeriesSampler::MachinePoint MachineAt(SimTime t, double utilization) {
  return TimeSeriesSampler::MachinePoint{t, 3, 2, 1, utilization};
}

// The CSV writer reuses a job's formatted speedup/efficiency pair while both
// values are bitwise unchanged. Values that compare equal but print
// differently (0.0 / -0.0), NaN, jobs that share a slot (1, 65 and 129) and
// interleaved jobs must all still print exactly as the legacy writer does.
TEST(TimeSeriesCsvTest, RepeatedMeasurementsMatchLegacyWriter) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  TimeSeriesSampler series;
  const std::vector<std::pair<JobId, std::pair<double, double>>> points = {
      {1, {0.0, 0.0}},   {1, {-0.0, 0.0}},  {1, {-0.0, -0.0}}, {1, {0.0, 0.0}},
      {65, {0.0, 0.0}},  {1, {0.0, 0.0}},   {65, {kNaN, 0.5}}, {65, {kNaN, 0.5}},
      {1, {kNaN, 0.5}},  {2, {2.5, 0.625}}, {1, {2.5, 0.625}}, {2, {2.5, 0.625}},
      {2, {2.5, 0.6250000000000001}},       {129, {3.0, 1.0}}, {1, {3.0, 1.0}}};
  SimTime t = 0;
  for (const auto& [job, measurement] : points) {
    TimeSeriesSampler::AppPoint point;
    point.t_start = t;
    point.t_end = t + 100 * kMillisecond;
    point.job = job;
    point.alloc = 3.0;
    point.speedup = measurement.first;
    point.efficiency = measurement.second;
    series.AddApp(point);
    t += 100 * kMillisecond;
  }
  ExpectCsvMatchesLegacy(series);
  std::string csv;
  series.WriteCsv(&csv);
  EXPECT_NE(csv.find("app,0.100000,0.200000,1,3,-0,0,"), std::string::npos);
}

// Several jobs' windows and the machine sample share each instant, and every
// row of an instant reuses its formatted timestamps.
TEST(TimeSeriesCsvTest, AppAndMachineRowsAtOneInstantMatchLegacyWriter) {
  TimeSeriesSampler series;
  for (SimTime t = 100 * kMillisecond; t <= kSecond; t += 100 * kMillisecond) {
    for (JobId job = 1; job <= 4; ++job) {
      series.AddApp(App(t - 100 * kMillisecond, t, job, 15.0, "STABLE"));
    }
    series.AddMachine(MachineAt(t, 1.0));
  }
  ExpectCsvMatchesLegacy(series);
}

// More distinct instants than the timestamp cache has slots, revisited in a
// scrambled order: by pigeonhole some share a slot and evict each other,
// whatever the slot hash.
TEST(TimeSeriesCsvTest, CollidingInstantsMatchLegacyWriter) {
  DeterministicBits bits;
  std::vector<SimTime> instants;
  for (int i = 0; i < 300; ++i) {
    instants.push_back(static_cast<SimTime>(i) * 100 * kMillisecond);
  }
  TimeSeriesSampler series;
  for (int i = 0; i < 3000; ++i) {
    const SimTime t_start = instants[bits.Next() % instants.size()];
    const SimTime t_end = instants[bits.Next() % instants.size()];
    series.AddApp(App(t_start, t_end, static_cast<JobId>(i % 7), 4.0));
  }
  ExpectCsvMatchesLegacy(series);
}

// Partial windows (a job's start and finish fall between quanta), times
// outside the exact fast path, and fractional or negative-zero allocations.
TEST(TimeSeriesCsvTest, PartialWindowsOddTimesAndAllocsMatchLegacyWriter) {
  constexpr SimTime kExactLimit = SimTime{1} << 52;
  TimeSeriesSampler series;
  series.AddApp(App(123457, 200000, 1, 2.5));
  series.AddApp(App(200000, 287123, 1, 1.0 / 3.0));
  series.AddApp(App(-1, 0, 2, -0.0));
  series.AddApp(App(-2500001, -1000000, 3, 0.1));
  series.AddApp(App(std::numeric_limits<SimTime>::min(), -7, 4, 29.999999999));
  series.AddMachine(MachineAt(-3, 0.5));
  series.AddMachine(MachineAt(287123, 0.25));
  series.AddApp(App(kExactLimit - 1, kExactLimit, 5, 1e-7));
  series.AddApp(App(kExactLimit, kExactLimit + 1, 5, 12345678901.5));
  series.AddApp(App(kExactLimit + 1, std::numeric_limits<SimTime>::max(), 5, 7.0));
  series.AddMachine(MachineAt(kExactLimit, 0.75));
  series.AddMachine(MachineAt(std::numeric_limits<SimTime>::max(), 1.0));
  ExpectCsvMatchesLegacy(series);
}

// Utilization is cached by bits: -0.0 next to 0.0, NaN, and more distinct
// values than the cache has slots, revisited in a scrambled order so some
// share a slot.
TEST(TimeSeriesCsvTest, UtilizationBitPatternsMatchLegacyWriter) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  TimeSeriesSampler series;
  SimTime t = 0;
  for (const double u : {0.0, -0.0, 0.0, kNaN, -kNaN, kNaN, 0.5, -0.0}) {
    series.AddMachine(MachineAt(t += 100 * kMillisecond, u));
  }
  DeterministicBits bits;
  for (int i = 0; i < 5000; ++i) {
    const double u = static_cast<double>(bits.Next() % 1000) / 999.0;
    series.AddMachine(MachineAt(t += 100 * kMillisecond, u));
  }
  ExpectCsvMatchesLegacy(series);
}

// A state name longer than any fixed row budget grows the buffer by itself.
TEST(TimeSeriesCsvTest, LongStateNamesMatchLegacyWriter) {
  TimeSeriesSampler series;
  series.AddApp(App(0, 100000, 1, 3.0, std::string(300, 'S')));
  series.AddApp(App(0, 100000, 2, 3.0, std::string(100000, 'L')));
  series.AddMachine(MachineAt(100000, 1.0));
  series.AddApp(App(100000, 200000, 1, 3.0, "INC"));
  ExpectCsvMatchesLegacy(series);
}

// A 1-node cluster CSV is the single-node CSV with "node," before the header
// and "0," before every row.
TEST(TimeSeriesCsvTest, OneNodeClusterCsvPrefixesTheSingleNodeCsv) {
  TimeSeriesSampler series;
  for (SimTime t = 100 * kMillisecond; t <= kSecond; t += 100 * kMillisecond) {
    series.AddApp(App(t - 100 * kMillisecond, t, 1, 3.0, "DEC"));
    series.AddApp(App(t - 100 * kMillisecond, t, 2, 2.5));
    series.AddMachine(MachineAt(t, 0.5));
  }
  series.AddApp(App(kSecond, kSecond + 42, 1, 3.0, std::string(1000, 'Z')));
  std::string single;
  series.WriteCsv(&single);
  std::string expected;
  std::istringstream lines(single);
  std::string line;
  bool header = true;
  while (std::getline(lines, line)) {
    expected += (header ? "node," : "0,") + line + "\n";
    header = false;
  }
  std::string cluster;
  WriteClusterTimeSeriesCsv({&series}, &cluster);
  EXPECT_EQ(cluster, expected);
}

// -------------------------------------------- end-to-end byte identity

struct CapturedRun {
  std::string events;
  std::string timeseries_fast;
  std::string timeseries_legacy;
};

CapturedRun RunCaptured(PolicyKind policy, bool legacy_events) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.seed = 42;
  config.policy = policy;

  CapturedRun run;
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  events.set_legacy_serialization_for_test(legacy_events);
  TimeSeriesSampler timeseries;
  config.event_log = &events;
  config.timeseries = &timeseries;
  (void)RunExperiment(config);
  events.Flush();
  run.events = events_stream.str();

  std::ostringstream legacy_csv;
  timeseries.WriteCsv(&run.timeseries_fast);
  internal::WriteTimeSeriesCsvLegacy(timeseries, legacy_csv);
  run.timeseries_legacy = legacy_csv.str();
  return run;
}

class SerializationGoldenTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SerializationGoldenTest, LiveRunEventsAndTimeseriesAreByteIdentical) {
  const CapturedRun fast = RunCaptured(GetParam(), /*legacy_events=*/false);
  const CapturedRun legacy = RunCaptured(GetParam(), /*legacy_events=*/true);
  ASSERT_FALSE(fast.events.empty());
  EXPECT_EQ(fast.events, legacy.events);
  EXPECT_EQ(fast.timeseries_fast, fast.timeseries_legacy);
  EXPECT_EQ(fast.timeseries_fast, legacy.timeseries_fast);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SerializationGoldenTest,
                         ::testing::Values(PolicyKind::kPdpa, PolicyKind::kEquipartition),
                         [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
                           return std::string(PolicyKindName(param_info.param));
                         });

TEST(SerializationGoldenTest, SweepCsvMatchesLegacyIncludingAggregates) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds = {42, 43, 44};

  SweepOptions capture;
  capture.jobs = 1;
  capture.capture_events = true;
  capture.capture_timeseries = true;
  const std::vector<SweepCellResult> fast = RunSweep(grid, capture);
  SweepOptions capture_legacy = capture;
  capture_legacy.legacy_serialization_for_test = true;
  const std::vector<SweepCellResult> legacy = RunSweep(grid, capture_legacy);

  ASSERT_EQ(fast.size(), legacy.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_FALSE(fast[i].events_jsonl.empty());
    EXPECT_EQ(fast[i].events_jsonl, legacy[i].events_jsonl) << "cell " << i;
    EXPECT_EQ(fast[i].timeseries_csv, legacy[i].timeseries_csv) << "cell " << i;
  }

  // The replica rows and the mean/p50/p95 aggregate rows must both survive
  // the rewrite byte for byte (3 seeds ensures a non-trivial percentile).
  std::ostringstream fast_csv, legacy_csv;
  SweepCsv(fast, grid.seeds.size(), fast_csv);
  internal::SweepCsvLegacy(fast, grid.seeds.size(), legacy_csv);
  ASSERT_FALSE(fast_csv.str().empty());
  EXPECT_EQ(fast_csv.str(), legacy_csv.str());
}

TEST(SerializationGoldenTest, ParaverTraceMatchesLegacy) {
  TraceRecorder recorder(4);
  // A deterministic ownership history with handoffs, idle gaps, and enough
  // ticks to sample the grid several times.
  for (int step = 0; step < 40; ++step) {
    const SimTime now = step * 100 * kMillisecond;
    recorder.Tick(now);
    if (step % 4 == 0) {
      const int cpu = step % 4;
      const JobId from = step % 8 == 0 ? kIdleJob : static_cast<JobId>(step % 3);
      const JobId to = static_cast<JobId>((step + 1) % 3);
      recorder.OnHandoff(now, CpuHandoff{cpu, from, to});
    }
  }
  recorder.Finalize(40 * 100 * kMillisecond);

  std::ostringstream fast, legacy;
  WriteParaverTrace(recorder, /*num_jobs=*/3, fast);
  internal::WriteParaverTraceLegacy(recorder, /*num_jobs=*/3, legacy);
  ASSERT_FALSE(fast.str().empty());
  EXPECT_EQ(fast.str(), legacy.str());
}

}  // namespace
}  // namespace pdpa
