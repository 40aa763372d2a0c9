// Serialization goldens (DESIGN.md §9): every recording writer checked
// against committed bytes under tests/golden/serialization/.
//
// The goldens were recorded from the pre-fast-path writers (per-field
// StrFormat temporaries and per-line ostream inserts), which a first
// version of this test checked against the same files next to the current
// writers before they were deleted; test names that say "Legacy" refer to
// those recorded bytes. Small fixtures are committed verbatim. Live-run
// and sweep recordings (0.2-1.2 MB per cell) and the larger fixtures are
// committed as one "<label> <bytes> <FNV-1a 64>" line per recording
// (DigestLine below).
//
// Every run also writes what it printed, under the golden's own name, into
// the build tree; tests/CMakeLists.txt gives the command that copies those
// files back after a deliberate output change. ctest label: golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/trace/paraver_writer.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/experiment.h"
#include "src/workload/sweep.h"
#include "tests/deterministic_bits.h"

namespace pdpa {
namespace {

// ------------------------------------------------------ golden helpers

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// One line of a digest golden: "<label> <byte count> <FNV-1a 64 in hex>".
std::string DigestLine(std::string_view label, std::string_view bytes) {
  return StrFormat("%.*s %zu %016llx\n", static_cast<int>(label.size()), label.data(),
                   bytes.size(), static_cast<unsigned long long>(Fnv1a64(bytes)));
}

// Writes `printed` to the build tree's copy of golden `name`, then checks
// it against the committed file.
void ExpectGolden(const std::string& name, const std::string& printed) {
  std::filesystem::create_directories(PDPA_GOLDEN_OUT_DIR);
  std::ofstream(std::string(PDPA_GOLDEN_OUT_DIR) + "/" + name, std::ios::binary) << printed;
  std::ifstream in(std::string(PDPA_GOLDEN_DIR) + "/" + name, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << name;
  const std::string golden{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const auto diff = std::mismatch(printed.begin(), printed.end(), golden.begin(), golden.end());
  EXPECT_TRUE(printed == golden) << name << ": printed " << printed.size() << " bytes, golden "
                                 << golden.size() << ", first difference at byte "
                                 << (diff.first - printed.begin());
}

// ------------------------------------------------------- JSON writer

// Every byte 0x01..0x7f in a value and in a key, next to each value type;
// then the numeric edges and the three string forms.
TEST(JsonEscapeTest, FastAndLegacyWritersAgreeOnEscapes) {
  std::string raw;
  for (int c = 1; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  StringInterner interner;
  const InternedString interned = interner.Intern("tab\tquote\"slash\\");
  std::string printed;
  const auto print = [&printed](const auto& fill) {
    JsonObjectWriter writer(&printed);
    fill(writer);
    writer.Finish();
    printed.push_back('\n');
  };
  print([&](JsonObjectWriter& w) {
    w.Field("s", raw).Field("n", 42).Field("d", 1.0 / 3.0).Field("b", true);
  });
  print([&](JsonObjectWriter& w) { w.Field(raw, raw).Field("b", false); });
  print([&](JsonObjectWriter& w) {
    w.Field("zero", 0.0)
        .Field("neg_zero", -0.0)
        .Field("nan", kNaN)
        .Field("neg_nan", -kNaN)
        .Field("inf", kInf)
        .Field("neg_inf", -kInf)
        .Field("subnormal", std::numeric_limits<double>::denorm_min())
        .Field("max", std::numeric_limits<double>::max());
  });
  print([&](JsonObjectWriter& w) {
    w.Field("llong_min", LLONG_MIN)
        .Field("llong_max", LLONG_MAX)
        .Field("ullong_max", ULLONG_MAX)
        .Field("ullong_zero", 0ULL)
        .Field("int_min", INT_MIN);
  });
  print([&](JsonObjectWriter& w) {
    w.Field("interned", interned)
        .Field("view", interned.raw)
        .Field("c_str", "tab\tquote\"slash\\")
        .Field("empty", "");
  });
  ExpectGolden("json_writer.txt", printed);
}

TEST(JsonEscapeTest, LongStringMatchesGolden) {
  std::string raw;
  for (int i = 0; i < 100000; ++i) {
    raw.push_back(static_cast<char>(1 + i % 0x7f));
  }
  std::string record;
  JsonObjectWriter writer(&record);
  writer.Field("long", raw);
  writer.Finish();
  ExpectGolden("json_long_string.txt", DigestLine("record", record));
}

// Every typed emitter with a node tag, plus the raw Emit escape hatch
// (which the tag does not apply to).
TEST(JsonEscapeTest, NodeTaggedEventLogMatchesGolden) {
  std::ostringstream sink;
  {
    EventLog log(&sink);
    log.set_node_tag(3);
    log.RunStart("PDPA", "w1", 0.6, 42, 60);
    log.JobSubmit(100, 1, "swim", 30, false);
    log.JobStart(200, 1, "swim", 30, 15, 1, 0);
    log.AdmitHold(300, 4, 2, 0);
    log.PerfSample(400, 1, 15, 12.5, 12.5 / 15.0);
    log.PdpaTransition(500, 1, "NO_REF", "INC", 15, 19, 12.5, 0.8333333333, 0.7, "report");
    log.AllocDecision(600, "quantum", "1:19 2:41");
    log.CpuHandoffs(700, 4, 1);
    log.Emit(R"({"type":"raw","t_us":800})");
    log.JobFinish(900, 1, 100, 200);
    log.RunEnd(1000, 1, true);
  }
  ExpectGolden("event_log_node_tag.txt", sink.str());
}

// ------------------------------------------------ time-series CSV rows

// WriteCsv must print the golden bytes both into a fresh string and
// appended to a warm one that already holds bytes and spare capacity from
// a previous, larger write. Large cases compare by digest.
void ExpectCsvMatchesGolden(const std::string& name, const TimeSeriesSampler& series,
                            bool digest) {
  std::string fresh;
  series.WriteCsv(&fresh);
  std::string warm(1 << 20, 'x');
  warm.resize(3);
  series.WriteCsv(&warm);
  EXPECT_TRUE(warm == "xxx" + fresh);
  ExpectGolden(name, digest ? DigestLine("csv", fresh) : fresh);
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
// interleaved jobs must all still print the golden bytes.
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
  ExpectCsvMatchesGolden("timeseries_repeated_measurements.txt", series, /*digest=*/false);
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
  ExpectCsvMatchesGolden("timeseries_one_instant.txt", series, /*digest=*/false);
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
  ExpectCsvMatchesGolden("timeseries_colliding_instants.txt", series, /*digest=*/true);
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
  ExpectCsvMatchesGolden("timeseries_partial_windows.txt", series, /*digest=*/false);
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
  ExpectCsvMatchesGolden("timeseries_utilization_bits.txt", series, /*digest=*/true);
}

// A state name longer than any fixed row budget grows the buffer by itself.
TEST(TimeSeriesCsvTest, LongStateNamesMatchLegacyWriter) {
  TimeSeriesSampler series;
  series.AddApp(App(0, 100000, 1, 3.0, std::string(300, 'S')));
  series.AddApp(App(0, 100000, 2, 3.0, std::string(100000, 'L')));
  series.AddMachine(MachineAt(100000, 1.0));
  series.AddApp(App(100000, 200000, 1, 3.0, "INC"));
  ExpectCsvMatchesGolden("timeseries_long_state_names.txt", series, /*digest=*/true);
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

// -------------------------------------------- end-to-end recordings

class SerializationGoldenTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SerializationGoldenTest, LiveRunEventsAndTimeseriesAreByteIdentical) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.seed = 42;
  config.policy = GetParam();
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  TimeSeriesSampler timeseries;
  config.event_log = &events;
  config.timeseries = &timeseries;
  (void)RunExperiment(config);
  events.Flush();
  const std::string jsonl = events_stream.str();
  ASSERT_FALSE(jsonl.empty());
  std::string csv;
  timeseries.WriteCsv(&csv);
  ExpectGolden(StrFormat("live_w1_s42_%s.txt", PolicyKindName(GetParam())),
               DigestLine("events", jsonl) + DigestLine("timeseries", csv));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SerializationGoldenTest,
                         ::testing::Values(PolicyKind::kPdpa, PolicyKind::kEquipartition),
                         [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
                           return std::string(PolicyKindName(param_info.param));
                         });

// Every cell's recordings and the sweep CSV, replica rows and the
// mean/p50/p95 aggregate rows (3 seeds makes the percentiles non-trivial).
// The sweep profiles its cells, which must not leak into any output.
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
  capture.capture_prof = true;
  const std::vector<SweepCellResult> results = RunSweep(grid, capture);
  std::string cells;
  for (const SweepCellResult& r : results) {
    ASSERT_FALSE(r.events_jsonl.empty());
    cells += DigestLine(r.cell.name + " events", r.events_jsonl);
    cells += DigestLine(r.cell.name + " timeseries", r.timeseries_csv);
  }
  ExpectGolden("sweep_w1_cells.txt", cells);

  std::ostringstream csv;
  SweepCsv(results, grid.seeds.size(), csv);
  ExpectGolden("sweep_w1_csv.txt", csv.str());
}

// ------------------------------------------------------------ Paraver

// Three traces, back to back: handoffs between jobs with idle gaps; a job
// holding one CPU across every sample next to a CPU that idles, runs, idles
// and runs again; and a trace with no jobs at all.
TEST(SerializationGoldenTest, ParaverTraceMatchesLegacy) {
  TraceRecorder handoffs(4);
  for (int step = 0; step < 40; ++step) {
    const SimTime now = step * 100 * kMillisecond;
    handoffs.Tick(now);
    if (step % 4 == 0) {
      const int cpu = step % 4;
      const JobId from = step % 8 == 0 ? kIdleJob : static_cast<JobId>(step % 3);
      const JobId to = static_cast<JobId>((step + 1) % 3);
      handoffs.OnHandoff(now, CpuHandoff{cpu, from, to});
    }
  }
  handoffs.Finalize(40 * 100 * kMillisecond);

  TraceRecorder holds(3, 100 * kMillisecond);
  holds.OnHandoff(0, CpuHandoff{0, kIdleJob, 0});
  for (int step = 0; step < 12; ++step) {
    const SimTime now = step * 100 * kMillisecond;
    if (step == 2 || step == 7) {
      holds.OnHandoff(now, CpuHandoff{1, kIdleJob, 1});
    } else if (step == 4 || step == 9) {
      holds.OnHandoff(now, CpuHandoff{1, 1, kIdleJob});
    } else if (step == 10) {
      holds.OnHandoff(now, CpuHandoff{2, kIdleJob, 1});
    }
    holds.Tick(now);
  }
  holds.Finalize(12 * 100 * kMillisecond);

  TraceRecorder idle(2, 100 * kMillisecond);
  for (int step = 0; step < 5; ++step) {
    idle.Tick(step * 100 * kMillisecond);
  }
  idle.Finalize(5 * 100 * kMillisecond);

  std::ostringstream prv;
  WriteParaverTrace(handoffs, /*num_jobs=*/3, prv);
  WriteParaverTrace(holds, /*num_jobs=*/2, prv);
  WriteParaverTrace(idle, /*num_jobs=*/0, prv);
  ExpectGolden("paraver.txt", prv.str());
}

}  // namespace
}  // namespace pdpa
