// simbench — the simulator's benchmark program. One binary runs one of four
// workloads for a fixed host-time budget, checks every simulated output
// against stored reference digests, and prints either the end-to-end
// metrics (untraced run) or the per-layer ledger (traced run) as one JSON
// line. simbench/run.py builds it and is the documented entry point; the
// workloads, metrics and how to read them are described in
// simbench/README.md.
//
// simbench reaches the simulator only through its public entry points:
// ExpandGrid/BuildJobs/RunSweep/SweepCsv/MergeProfiles (src/workload),
// RunCluster (src/cluster), and the Profiler and RegistrySnapshot hooks
// (src/obs).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/prof.h"
#include "src/rm/equipartition.h"
#include "src/workload/sweep.h"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: simbench --workload NAME --seed N [flags]

workloads:
  paper-grid              12 sweeps of the paper grid (w1-w4 x loads
                          0.6/0.8/1.0 x IRIX/Equip/Equal_eff/PDPA x 4 seeds,
                          60-CPU SMP), recorders off
  paper-grid-recorded     8 of those sweeps with events, time-series and
                          counters captured in memory and digested
  cluster-drain           1000 nodes x 8 CPUs draining 100k Equipartition
                          jobs, serial engine (shards = 1)
  cluster-drain-sharded   the same trace at shards = min(4, cores); also
                          checked outcome for outcome against the serial run

flags:
  --workload NAME         one of the above (required)
  --seed N                non-negative workload seed (required)
  --seconds S             host seconds of measurement, 1..120 (default 10)
  --trace 0|1             0: end-to-end metrics, untraced; 1: per-layer
                          ledger from traced passes (default 0)
  --reference FILE        stored reference digests (see simbench/README.md)
  --print_reference       print the reference lines for --seed and exit
  --help                  this text
)";

constexpr int kExitUsage = 2;

// ---- Workload shapes ---------------------------------------------------------

enum class Workload { kPaperGrid, kPaperGridRecorded, kClusterDrain, kClusterDrainSharded };

struct NamedWorkload {
  const char* name;
  Workload workload;
};

constexpr NamedWorkload kWorkloads[] = {
    {"paper-grid", Workload::kPaperGrid},
    {"paper-grid-recorded", Workload::kPaperGridRecorded},
    {"cluster-drain", Workload::kClusterDrain},
    {"cluster-drain-sharded", Workload::kClusterDrainSharded},
};

// One sweep of the paper grid is 4 workloads x 3 loads x 4 policies x
// kGridSeeds replicas = 192 cells. A cell's cost depends heavily on its
// trace, so one sweep's speed swings with the seed; each run therefore
// cycles through several sweeps ("blocks") with distinct replica seeds.
constexpr int kGridSeeds = 4;
constexpr int kGridBlocks = 12;
constexpr int kRecordedBlocks = 8;

// The cluster_bench shape: many small Equipartition jobs on 1000 x 8 CPUs.
constexpr int kClusterNodes = 1000;
constexpr int kClusterCpusPerNode = 8;
constexpr int kClusterJobs = 100000;
constexpr double kClusterArrivalsPerSecond = 100.0;

// Set-up samples taken before the timed phase and after every pass.
constexpr int kSetupRepeats = 5;
// Timed passes after the warm-up, however short --seconds is: at least one
// per block and at least kMinTimedPasses.
constexpr int kMinTimedPasses = 3;
constexpr int kMinTracedPasses = 2;

// Threads a workload may use: at most the host's cores, and at most 4.
int HostThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

double NanosToMs(long long ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(std::move(values), 50.0);
}

// ---- Output digests ----------------------------------------------------------

// 64-bit multiply-xorshift hash over 8-byte words. Not cryptographic: it
// only has to make an accidental match of two different outputs unlikely.
class Digest {
 public:
  void Add(std::string_view bytes) {
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, 8);
      Mix(word);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    Mix(tail);
    Mix(bytes.size());
  }
  void Add(long long value) { Mix(static_cast<std::uint64_t>(value)); }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Mix(bits);
  }

  std::string Hex() const {
    std::uint64_t h = state_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = "0123456789abcdef"[h & 0xF];
      h >>= 4;
    }
    return out;
  }

 private:
  void Mix(std::uint64_t word) {
    state_ = (state_ ^ word) * 0x9E3779B97F4A7C15ULL;
    state_ ^= state_ >> 29;
  }

  std::uint64_t state_ = 0x243F6A8885A308D3ULL;
};

// Reference digests, one line per (kind, seed), one digest per block:
//   grid <seed> <sweep CSV + outcome digest of block 0> ... <block 11>
//   rec <seed> <recording digest of block 0> ... <block 7>
//   cluster <seed> <cluster result digest>
class ReferenceStore {
 public:
  bool Load(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      return false;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      std::istringstream fields(line);
      std::string kind, seed, field;
      fields >> kind >> seed;
      std::vector<std::string>& values = lines_[kind + " " + seed];
      while (fields >> field) {
        values.push_back(field);
      }
    }
    return true;
  }

  // The line's digests, or null when no line is stored.
  const std::vector<std::string>* Find(const char* kind, std::uint64_t seed) const {
    const auto it = lines_.find(std::string(kind) + " " + std::to_string(seed));
    return it == lines_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> lines_;
};

// Compares `actual` with `*expected`, adopting it when nothing is expected
// yet (no stored reference: every pass of a block must match its first).
bool MatchOrAdopt(const std::string& actual, std::string* expected) {
  if (expected->empty()) {
    *expected = actual;
  }
  return actual == *expected;
}

std::string JoinDigests(const std::vector<std::string>& digests) {
  std::string out;
  for (const std::string& digest : digests) {
    out += " " + digest;
  }
  return out;
}

// ---- Pass results and the traced ledger -------------------------------------

struct PassOutcome {
  double wall_s = 0.0;
  long long cells = 0;
  long long jobs_completed = 0;
  long long jobs_attempted = 0;
  long long jobs_failed = 0;
  // Peak resident set during the pass; filled in by Run().
  double peak_rss_mb = 0.0;
};

// What one traced pass measured, in the simulator's own span and counter
// vocabulary plus the benchmark's timers around public calls.
struct TraceData {
  Profiler profile;
  std::map<PolicyKind, long long> decide_self_ns;
  std::map<std::string, long long> counters;
  // Threads whose time the spans can cover, and threads x pass wall.
  int threads = 1;
  long long capacity_ns = 0;
  long long sweep_csv_ns = 0;
  long long events_bytes = 0;
  long long timeseries_bytes = 0;
  std::vector<double> cell_ms;
  long long cell_total_ns = 0;
  ForkStats fork;

  long long Counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  long long SpanSelfNs() const {
    long long total = 0;
    for (int i = 0; i < kNumSpanIds; ++i) {
      total += profile.stats(static_cast<SpanId>(i)).self_ns;
    }
    return total;
  }

  long long UnattributedNs() const { return capacity_ns - SpanSelfNs() - sweep_csv_ns; }

  // The deterministic half: span hits, counters and fork stats. Controller
  // wake cycles (cluster.barrier_wait hits) depend on thread timing when
  // shards > 1 and are left out then.
  std::string Fingerprint(bool with_barrier_hits) const {
    std::string out;
    for (int i = 0; i < kNumSpanIds; ++i) {
      const SpanId id = static_cast<SpanId>(i);
      if (id != SpanId::kClusterBarrierWait || with_barrier_hits) {
        out += std::string(SpanName(id)) + "=" + std::to_string(profile.stats(id).hits) + "\n";
      }
    }
    for (const auto& [name, value] : counters) {
      out += name + "=" + std::to_string(value) + "\n";
    }
    out += "fork=" + std::to_string(fork.prefixes_built) + "/" +
           std::to_string(fork.forked_cells) + "/" + std::to_string(fork.cold_cells) + "\n";
    return out;
  }
};

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

// ---- Workload runners --------------------------------------------------------

class Bench {
 public:
  virtual ~Bench() = default;
  // Generates every block's inputs; returns the nanoseconds spent in trace
  // generation proper.
  virtual long long Setup() = 0;
  // One pass over block `block`; a non-null `trace` makes it a traced pass.
  virtual PassOutcome Pass(int block, TraceData* trace) = 0;
  // Checks run once after the timed phase; returns failed jobs.
  virtual long long Verify(std::string* report) {
    (void)report;
    return 0;
  }
  virtual int blocks() const { return 1; }
  virtual bool has_reference() const = 0;
  virtual int workers() const = 0;
  virtual int shards() const { return 1; }
};

// Block `block` of the paper grid for `seed`: replica seeds
// seed * 1000 + block * kGridSeeds + {0..3}, distinct across blocks.
SweepGrid PaperGrid(std::uint64_t seed, int block) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2, WorkloadId::kW3, WorkloadId::kW4};
  grid.loads = {0.6, 0.8, 1.0};
  grid.policies = {PolicyKind::kIrix, PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency,
                   PolicyKind::kPdpa};
  grid.seeds.clear();
  for (int i = 0; i < kGridSeeds; ++i) {
    grid.seeds.push_back(seed * 1000 + static_cast<std::uint64_t>(block * kGridSeeds + i));
  }
  return grid;
}

class SweepBench : public Bench {
 public:
  SweepBench(bool recorded, int blocks, std::uint64_t seed, const ReferenceStore& refs)
      : recorded_(recorded), expected_grid_(blocks), expected_rec_(blocks) {
    for (int b = 0; b < blocks; ++b) {
      grids_.push_back(PaperGrid(seed, b));
    }
    const std::vector<std::string>* grid_ref = refs.Find("grid", seed);
    const std::vector<std::string>* rec_ref = refs.Find("rec", seed);
    if (grid_ref != nullptr && static_cast<int>(grid_ref->size()) >= blocks &&
        (!recorded || (rec_ref != nullptr && static_cast<int>(rec_ref->size()) >= blocks))) {
      stored_ = true;
      for (int b = 0; b < blocks; ++b) {
        expected_grid_[b] = (*grid_ref)[b];
        expected_rec_[b] = recorded ? (*rec_ref)[b] : std::string();
      }
    }
  }

  long long Setup() override {
    block_jobs_.assign(grids_.size(), {});
    long long trace_ns = 0;
    for (std::size_t b = 0; b < grids_.size(); ++b) {
      std::map<std::tuple<WorkloadId, double, std::uint64_t>, long long> group_jobs;
      for (const SweepCell& cell : ExpandGrid(grids_[b])) {
        const auto key = std::make_tuple(cell.workload, cell.load, cell.seed);
        auto it = group_jobs.find(key);
        if (it == group_jobs.end()) {
          const long long t0 = prof::NowNanos();
          const auto jobs = BuildJobs(cell.config);
          trace_ns += prof::NowNanos() - t0;
          it = group_jobs.emplace(key, static_cast<long long>(jobs->size())).first;
        }
        block_jobs_[b].push_back(it->second);
      }
    }
    return trace_ns;
  }

  PassOutcome Pass(int block, TraceData* trace) override {
    const SweepGrid& grid = grids_[static_cast<std::size_t>(block)];
    const std::vector<long long>& cell_jobs = block_jobs_[static_cast<std::size_t>(block)];
    SweepOptions options;
    options.jobs = workers();
    options.capture_events = recorded_;
    options.capture_timeseries = recorded_;
    options.capture_counters = recorded_ || trace != nullptr;
    options.capture_prof = trace != nullptr;
    ForkStats fork;
    options.fork_stats = &fork;

    const long long t0 = prof::NowNanos();
    const std::vector<SweepCellResult> results = RunSweep(grid, options);
    const long long t1 = prof::NowNanos();
    std::ostringstream csv;
    SweepCsv(results, grid.seeds.size(), csv);
    const long long t2 = prof::NowNanos();

    // The block's outputs: the sweep CSV, every cell's own CSV rows and
    // per-job outcomes, and (recorded) every cell's recordings.
    Digest grid_digest;
    Digest rec_digest;
    grid_digest.Add(csv.str());
    for (const SweepCellResult& r : results) {
      std::vector<SweepCellResult> one(1);
      one[0].cell = r.cell;
      one[0].result = r.result;
      std::ostringstream cell_csv;
      SweepCsv(one, 1, cell_csv);
      grid_digest.Add(cell_csv.str());
      for (const JobOutcome& o : r.result.outcomes) {
        grid_digest.Add(static_cast<long long>(o.id));
        grid_digest.Add(static_cast<long long>(o.submit));
        grid_digest.Add(static_cast<long long>(o.start));
        grid_digest.Add(static_cast<long long>(o.finish));
      }
      if (recorded_) {
        rec_digest.Add(r.events_jsonl);
        rec_digest.Add(r.timeseries_csv);
        rec_digest.Add(r.counters.ToString());
      }
    }
    last_grid_ = grid_digest.Hex();
    last_rec_ = recorded_ ? rec_digest.Hex() : std::string();
    const std::size_t b = static_cast<std::size_t>(block);
    const bool block_ok = MatchOrAdopt(last_grid_, &expected_grid_[b]) &&
                          MatchOrAdopt(last_rec_, &expected_rec_[b]);

    PassOutcome out;
    out.wall_s = static_cast<double>(t2 - t0) / 1e9;
    out.cells = static_cast<long long>(results.size());
    for (const SweepCellResult& r : results) {
      const long long jobs = cell_jobs[r.cell.index];
      out.jobs_completed += static_cast<long long>(r.result.outcomes.size());
      out.jobs_attempted += jobs;
      out.jobs_failed += block_ok && r.result.completed ? 0 : jobs;
    }

    if (trace != nullptr) {
      trace->profile = MergeProfiles(results);
      trace->threads = std::min(workers(), static_cast<int>(results.size()));
      trace->capacity_ns = trace->threads * (t2 - t0);
      trace->sweep_csv_ns = t2 - t1;
      trace->fork = fork;
      for (const SweepCellResult& r : results) {
        trace->decide_self_ns[r.cell.policy] += r.profile.stats(SpanId::kPolicyDecide).self_ns;
        for (const CounterSnapshot& counter : r.counters.counters) {
          trace->counters[counter.name] += counter.value;
        }
        trace->events_bytes += static_cast<long long>(r.events_jsonl.size());
        trace->timeseries_bytes += static_cast<long long>(r.timeseries_csv.size());
        trace->cell_ms.push_back(NanosToMs(r.host_end_ns - r.host_begin_ns));
        trace->cell_total_ns += r.host_end_ns - r.host_begin_ns;
      }
    }
    return out;
  }

  int blocks() const override { return static_cast<int>(grids_.size()); }
  bool has_reference() const override { return stored_; }
  int workers() const override { return HostThreads(); }

  const std::string& last_grid() const { return last_grid_; }
  const std::string& last_rec() const { return last_rec_; }

 private:
  bool recorded_;
  std::vector<SweepGrid> grids_;
  std::vector<std::vector<long long>> block_jobs_;  // [block][cell index]
  bool stored_ = false;
  std::vector<std::string> expected_grid_;
  std::vector<std::string> expected_rec_;
  std::string last_grid_;
  std::string last_rec_;
};

// Seeded cluster trace: Poisson arrivals at kClusterArrivalsPerSecond, a
// uniformly drawn application class, and a request of just over half a node.
std::vector<JobSpec> ClusterTrace(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSpec> jobs;
  jobs.reserve(kClusterJobs);
  double submit_s = 0.0;
  for (int i = 0; i < kClusterJobs; ++i) {
    submit_s += rng.Exponential(kClusterArrivalsPerSecond);
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1));
    spec.submit = SecondsToTime(submit_s);
    spec.request = kClusterCpusPerNode / 2 + 1;
    jobs.push_back(spec);
  }
  return jobs;
}

std::string ClusterDigest(const ClusterResult& result) {
  Digest digest;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const JobOutcome& o = result.outcomes[i];
    digest.Add(static_cast<long long>(o.id));
    digest.Add(static_cast<long long>(o.submit));
    digest.Add(static_cast<long long>(o.start));
    digest.Add(static_cast<long long>(o.finish));
    digest.Add(static_cast<long long>(result.outcome_nodes[i]));
  }
  digest.Add(static_cast<long long>(result.completed));
  digest.Add(static_cast<long long>(result.end_time));
  digest.Add(static_cast<long long>(result.max_node_running));
  digest.Add(result.total_reallocations);
  for (const auto& [id, integral] : result.alloc_integral_us) {
    digest.Add(static_cast<long long>(id));
    digest.Add(integral);
  }
  digest.Add(result.counters.ToString());
  return digest.Hex();
}

class ClusterBench : public Bench {
 public:
  ClusterBench(int shards, std::uint64_t seed, const ReferenceStore& refs)
      : shards_(shards), seed_(seed) {
    const std::vector<std::string>* ref = refs.Find("cluster", seed);
    if (ref != nullptr && ref->size() == 1) {
      expected_ = (*ref)[0];
      stored_ = true;
    }
  }

  long long Setup() override {
    const long long t0 = prof::NowNanos();
    jobs_ = ClusterTrace(seed_);
    const long long trace_ns = prof::NowNanos() - t0;
    options_ = ClusterOptions{};
    options_.num_nodes = kClusterNodes;
    options_.cpus_per_node = kClusterCpusPerNode;
    options_.make_policy = [] { return std::make_unique<Equipartition>(4); };
    options_.rm_params.analyzer.noise_sigma = 0.0;
    options_.rm_params.app_costs.reconfig_freeze = 0;
    options_.rm_params.app_costs.warmup = 0;
    options_.rm_params.boundary_batch = true;
    options_.arrival_batch = true;
    options_.seed = seed_;
    options_.shards = shards_;
    return trace_ns;
  }

  PassOutcome Pass(int /*block*/, TraceData* trace) override {
    ClusterOptions options = options_;
    options.profiler = trace != nullptr ? &trace->profile : nullptr;
    const long long t0 = prof::NowNanos();
    ClusterResult result = RunCluster(jobs_, options);
    const long long t1 = prof::NowNanos();

    PassOutcome out;
    out.wall_s = static_cast<double>(t1 - t0) / 1e9;
    out.cells = 1;
    out.jobs_completed = static_cast<long long>(result.outcomes.size());
    out.jobs_attempted = static_cast<long long>(jobs_.size());
    last_digest_ = ClusterDigest(result);
    const bool ok = result.completed && MatchOrAdopt(last_digest_, &expected_);
    out.jobs_failed = ok ? 0 : out.jobs_attempted;

    if (trace != nullptr) {
      trace->threads = 1;
      trace->capacity_ns = t1 - t0;
      for (const CounterSnapshot& counter : result.counters.counters) {
        trace->counters[counter.name] += counter.value;
      }
      trace->decide_self_ns[PolicyKind::kEquipartition] +=
          trace->profile.stats(SpanId::kPolicyDecide).self_ns;
    }
    if (shards_ > 1 && first_ == nullptr) {
      first_ = std::make_unique<ClusterResult>(std::move(result));
    }
    return out;
  }

  // Sharded only: the first sharded pass must equal a serial run of the same
  // trace outcome for outcome, with identical counters.
  long long Verify(std::string* report) override {
    if (first_ == nullptr) {
      return 0;
    }
    ClusterOptions serial_options = options_;
    serial_options.shards = 1;
    const ClusterResult serial = RunCluster(jobs_, serial_options);
    const ClusterResult& sharded = *first_;
    const std::size_t n = std::min(serial.outcomes.size(), sharded.outcomes.size());
    long long differing =
        static_cast<long long>(std::max(serial.outcomes.size(), sharded.outcomes.size()) - n);
    for (std::size_t i = 0; i < n; ++i) {
      const JobOutcome& a = serial.outcomes[i];
      const JobOutcome& b = sharded.outcomes[i];
      if (a.id != b.id || a.start != b.start || a.finish != b.finish ||
          serial.outcome_nodes[i] != sharded.outcome_nodes[i]) {
        ++differing;
      }
    }
    const bool counters_ok = serial.counters.ToString() == sharded.counters.ToString();
    *report += "serial vs sharded: " + std::to_string(differing) + " of " +
               std::to_string(serial.outcomes.size()) + " outcomes differ, counters " +
               (counters_ok ? "identical" : "DIFFER") + "\n";
    return counters_ok ? differing : static_cast<long long>(jobs_.size());
  }

  bool has_reference() const override { return stored_; }
  int workers() const override { return shards_; }
  int shards() const override { return shards_; }
  const std::string& last_digest() const { return last_digest_; }

 private:
  int shards_;
  std::uint64_t seed_;
  std::vector<JobSpec> jobs_;
  ClusterOptions options_;
  bool stored_ = false;
  std::string expected_;
  std::string last_digest_;
  std::unique_ptr<ClusterResult> first_;
};

// ---- Ledger ------------------------------------------------------------------

// The per-layer metrics, in BENCHMARK.json order. Every workload prints
// every metric; a layer a workload never reaches reads 0.
std::vector<Metric> Ledger(const TraceData& t, double overhead_ratio, double build_jobs_ms) {
  const auto hits = [&](SpanId id) { return static_cast<double>(t.profile.stats(id).hits); };
  const auto self_ms = [&](SpanId id) { return NanosToMs(t.profile.stats(id).self_ns); };
  const auto decide_ms = [&](PolicyKind kind) {
    const auto it = t.decide_self_ns.find(kind);
    return it == t.decide_self_ns.end() ? 0.0 : NanosToMs(it->second);
  };
  const auto counter = [&](const char* name) { return static_cast<double>(t.Counter(name)); };
  const double fired = counter("rm.ticks");
  const double elided = counter("rm.ticks_elided");
  const bool sweep = !t.cell_ms.empty();
  return {
      {"sim.event_pop.hits", "count", hits(SpanId::kSimEventPop)},
      {"sim.event_pop.self_ms", "ms", self_ms(SpanId::kSimEventPop)},
      {"sim.event_push.hits", "count", hits(SpanId::kSimEventPush)},
      {"sim.event_push.self_ms", "ms", self_ms(SpanId::kSimEventPush)},
      {"sim.events_dispatched", "count", counter("sim.events_dispatched")},
      {"rm.tick.hits", "count", hits(SpanId::kRmTick)},
      {"rm.tick.self_ms", "ms", self_ms(SpanId::kRmTick)},
      {"rm.quantum.hits", "count", hits(SpanId::kRmQuantum)},
      {"rm.quantum.self_ms", "ms", self_ms(SpanId::kRmQuantum)},
      {"rm.ticks_elided_ratio", "ratio", fired + elided > 0 ? elided / (fired + elided) : 0.0},
      {"analyzer.reports", "count", counter("analyzer.reports")},
      {"rm.perf_reports", "count", counter("rm.perf_reports")},
      {"policy.decide.hits", "count", hits(SpanId::kPolicyDecide)},
      {"policy.decide.self_ms", "ms", self_ms(SpanId::kPolicyDecide)},
      {"policy.decide.self_ms.irix", "ms", decide_ms(PolicyKind::kIrix)},
      {"policy.decide.self_ms.equal_eff", "ms", decide_ms(PolicyKind::kEqualEfficiency)},
      {"policy.decide.self_ms.pdpa", "ms", decide_ms(PolicyKind::kPdpa)},
      {"policy.decide.self_ms.equip", "ms", decide_ms(PolicyKind::kEquipartition)},
      {"rm.plans_applied", "count", counter("rm.plans_applied")},
      {"rm.cpu_handoffs", "count", counter("rm.cpu_handoffs")},
      {"qs.starts", "count", counter("qs.starts")},
      {"qs.holds", "count", counter("qs.holds")},
      {"obs.serialize.hits", "count", hits(SpanId::kObsSerialize)},
      {"obs.serialize.self_ms", "ms", self_ms(SpanId::kObsSerialize)},
      {"obs.flush.self_ms", "ms", self_ms(SpanId::kObsFlush)},
      {"obs.events_bytes", "bytes", static_cast<double>(t.events_bytes)},
      {"obs.timeseries_bytes", "bytes", static_cast<double>(t.timeseries_bytes)},
      {"obs.sweep_csv_ms", "ms", NanosToMs(t.sweep_csv_ns)},
      {"obs.prof_overhead_ratio", "x", overhead_ratio},
      {"sweep.cell.hits", "count", hits(SpanId::kSweepCell)},
      {"sweep.cell.self_ms", "ms", self_ms(SpanId::kSweepCell)},
      {"sweep.cell_ms.p50", "ms", sweep ? Percentile(t.cell_ms, 50.0) : 0.0},
      {"sweep.cell_ms.p99", "ms", sweep ? Percentile(t.cell_ms, 99.0) : 0.0},
      {"sweep.cell_ms.count", "count", static_cast<double>(t.cell_ms.size())},
      {"sweep.worker_busy_ratio", "ratio",
       sweep ? static_cast<double>(t.cell_total_ns) / static_cast<double>(t.capacity_ns) : 0.0},
      {"fork.prefixes_built", "count", static_cast<double>(t.fork.prefixes_built)},
      {"fork.forked_cells", "count", static_cast<double>(t.fork.forked_cells)},
      {"fork.cold_cells", "count", static_cast<double>(t.fork.cold_cells)},
      {"workload.build_jobs_ms", "ms", build_jobs_ms},
      {"cluster.barrier_wait.hits", "count", hits(SpanId::kClusterBarrierWait)},
      {"cluster.barrier_wait.self_ms", "ms", self_ms(SpanId::kClusterBarrierWait)},
      {"cluster.drain.hits", "count", hits(SpanId::kClusterDrain)},
      {"cluster.drain.self_ms", "ms", self_ms(SpanId::kClusterDrain)},
      {"cluster.place.hits", "count", hits(SpanId::kClusterPlace)},
      {"cluster.place.self_ms", "ms", self_ms(SpanId::kClusterPlace)},
      {"cluster.arrival_batches", "count", counter("cluster.arrival_batches")},
      {"cluster.batched_arrivals", "count", counter("cluster.batched_arrivals")},
      {"cluster.placements", "count", counter("cluster.placements")},
      {"unattributed_ms", "ms", NanosToMs(t.UnattributedNs())},
      {"ledger.capacity_ms", "ms", NanosToMs(t.capacity_ns)},
  };
}

// One row per span with hits, then the benchmark's own timed call and the
// unattributed remainder; shares are of threads x pass wall.
std::string LedgerTable(const TraceData& t, bool dark_workers) {
  std::string out;
  char line[160];
  const double capacity_ms = NanosToMs(t.capacity_ns);
  const auto row = [&](const char* name, const std::string& hits, double ms) {
    std::snprintf(line, sizeof line, "  %-22s %12s %12.3f %7.2f%%\n", name, hits.c_str(), ms,
                  capacity_ms > 0 ? 100.0 * ms / capacity_ms : 0.0);
    out += line;
  };
  std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s\n", "layer", "hits", "self ms",
                "share");
  out += line;
  for (int i = 0; i < kNumSpanIds; ++i) {
    const SpanId id = static_cast<SpanId>(i);
    const SpanStats& stats = t.profile.stats(id);
    if (stats.hits > 0) {
      row(SpanName(id), std::to_string(stats.hits), NanosToMs(stats.self_ns));
    }
  }
  if (t.sweep_csv_ns > 0) {
    row("obs.sweep_csv (timed)", "1", NanosToMs(t.sweep_csv_ns));
  }
  row("unattributed", "-", NanosToMs(t.UnattributedNs()));
  std::snprintf(line, sizeof line, "  %-22s %12s %12.3f  = %d thread(s) x pass wall%s\n",
                "capacity", "", capacity_ms, t.threads,
                dark_workers ? " (controller only: shard workers are not profiled)" : "");
  out += line;
  if (!t.cell_ms.empty()) {
    std::snprintf(line, sizeof line, "  of unattributed, idle workers outside any cell: %.3f ms\n",
                  NanosToMs(t.capacity_ns - t.cell_total_ns - t.sweep_csv_ns));
    out += line;
  }
  return out;
}

// ---- Driver -------------------------------------------------------------------

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Resets the process's peak resident set (VmHWM) to its current size, so
// PeakRssMb() reads the peak of what ran since. Linux only.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

int PrintReference(std::uint64_t seed) {
  const ReferenceStore none;
  SweepBench plain(false, kGridBlocks, seed, none);
  SweepBench recorded(true, kRecordedBlocks, seed, none);
  plain.Setup();
  recorded.Setup();
  std::vector<std::string> grid;
  std::vector<std::string> rec;
  for (int b = 0; b < kGridBlocks; ++b) {
    plain.Pass(b, nullptr);
    grid.push_back(plain.last_grid());
    if (b < kRecordedBlocks) {
      recorded.Pass(b, nullptr);
      rec.push_back(recorded.last_rec());
      if (recorded.last_grid() != plain.last_grid()) {
        std::fprintf(stderr, "seed %llu block %d: recorded and unrecorded sweeps disagree\n",
                     static_cast<unsigned long long>(seed), b);
        return 1;
      }
    }
  }
  ClusterBench cluster(1, seed, none);
  cluster.Setup();
  cluster.Pass(0, nullptr);
  const unsigned long long s = static_cast<unsigned long long>(seed);
  std::printf("grid %llu%s\n", s, JoinDigests(grid).c_str());
  std::printf("rec %llu%s\n", s, JoinDigests(rec).c_str());
  std::printf("cluster %llu %s\n", s, cluster.last_digest().c_str());
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::string workload_name = flags.GetString("workload", "");
  const std::string seed_text = flags.GetString("seed", "");
  const int seconds = flags.GetInt("seconds", 10);
  const int trace_mode = flags.GetInt("trace", 0);
  const std::string reference_path = flags.GetString("reference", "");
  const bool print_reference = flags.GetBool("print_reference", false);
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return kExitUsage;
  }
  if (flags.had_parse_error() || !flags.positional().empty()) {
    std::fprintf(stderr, "malformed arguments (see --help)\n");
    return kExitUsage;
  }
  if (seed_text.empty() || seed_text.find_first_not_of("0123456789") != std::string::npos ||
      seed_text.size() > 19) {
    std::fprintf(stderr, "--seed must be a non-negative integer (see --help)\n");
    return kExitUsage;
  }
  const std::uint64_t seed = std::stoull(seed_text);
  if (print_reference) {
    return PrintReference(seed);
  }
  const NamedWorkload* workload = nullptr;
  for (const NamedWorkload& candidate : kWorkloads) {
    if (workload_name == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (see --help)\n", workload_name.c_str());
    return kExitUsage;
  }
  if (seconds < 1 || seconds > 120 || (trace_mode != 0 && trace_mode != 1)) {
    std::fprintf(stderr, "--seconds must be 1..120 and --trace 0 or 1 (see --help)\n");
    return kExitUsage;
  }
  ReferenceStore refs;
  if (!reference_path.empty() && !refs.Load(reference_path)) {
    std::fprintf(stderr, "cannot read --reference %s\n", reference_path.c_str());
    return kExitUsage;
  }

  std::unique_ptr<Bench> bench;
  switch (workload->workload) {
    case Workload::kPaperGrid:
      bench = std::make_unique<SweepBench>(false, kGridBlocks, seed, refs);
      break;
    case Workload::kPaperGridRecorded:
      bench = std::make_unique<SweepBench>(true, kRecordedBlocks, seed, refs);
      break;
    case Workload::kClusterDrain:
      bench = std::make_unique<ClusterBench>(1, seed, refs);
      break;
    case Workload::kClusterDrainSharded:
      bench = std::make_unique<ClusterBench>(HostThreads(), seed, refs);
      break;
  }

  std::printf("host: {\"hardware_concurrency\": %u, \"build_type\": \"%s\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"seconds\": %d, \"trace\": %d, \"workers\": %d, \"shards\": %d, "
              "\"blocks\": %d}\n",
              std::thread::hardware_concurrency(), SIMBENCH_BUILD_TYPE, workload->name,
              static_cast<unsigned long long>(seed), seconds, trace_mode, bench->workers(),
              bench->shards(), bench->blocks());

  // Set-up: generate every input trace. It is sampled kSetupRepeats times
  // before the timed phase and again after every pass (regenerating
  // identical inputs), so its samples cover the host across the whole run.
  // A sample times the second of two back-to-back set-ups: the first refills
  // the caches a pass has evicted, so the sample measures set-up work, not
  // what the preceding pass left behind. setup_s is the fastest sample: on a
  // shared host, whole batches of samples run at half speed while a
  // neighbour loads the same core, and the share of such batches, and with
  // it the median, swings from run to run.
  std::vector<double> setup_s;
  std::vector<double> build_jobs_ms;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      bench->Setup();
      const long long t0 = prof::NowNanos();
      const long long trace_ns = bench->Setup();
      setup_s.push_back(static_cast<double>(prof::NowNanos() - t0) / 1e9);
      build_jobs_ms.push_back(NanosToMs(trace_ns));
    }
  };
  set_up();

  // Timed phase: a warm-up pass of block 0, then passes until --seconds have
  // elapsed. An untraced run cycles through the blocks; a traced run
  // alternates traced and untraced passes of block 0.
  const long long deadline = prof::NowNanos() + static_cast<long long>(seconds) * 1000000000LL;
  long long attempted = 0;
  long long failed = 0;
  const auto run_pass = [&](int block, TraceData* trace) {
    ResetPeakRss();
    PassOutcome pass = bench->Pass(block, trace);
    pass.peak_rss_mb = PeakRssMb();
    attempted += pass.jobs_attempted;
    failed += pass.jobs_failed;
    set_up();
    return pass;
  };
  run_pass(0, nullptr);
  const bool traced_run = trace_mode == 1;
  const int blocks = bench->blocks();
  std::vector<std::vector<double>> block_walls(static_cast<std::size_t>(blocks));
  std::vector<PassOutcome> block_work(static_cast<std::size_t>(blocks));
  std::vector<double> untraced_walls;
  std::vector<double> untraced_rss_mb;
  std::vector<double> traced_walls;
  std::vector<TraceData> traces;
  for (int n = 0;; ++n) {
    const bool enough =
        traced_run ? static_cast<int>(traces.size()) >= kMinTracedPasses && !untraced_walls.empty()
                   : n >= std::max(blocks, kMinTimedPasses);
    if (enough && prof::NowNanos() >= deadline) {
      break;
    }
    if (traced_run && traces.size() <= untraced_walls.size()) {
      traces.emplace_back();
      traced_walls.push_back(run_pass(0, &traces.back()).wall_s);
    } else {
      const int block = traced_run ? 0 : n % blocks;
      const PassOutcome pass = run_pass(block, nullptr);
      untraced_walls.push_back(pass.wall_s);
      untraced_rss_mb.push_back(pass.peak_rss_mb);
      block_walls[static_cast<std::size_t>(block)].push_back(pass.wall_s);
      block_work[static_cast<std::size_t>(block)] = pass;
    }
  }
  std::string report;
  failed += bench->Verify(&report);

  std::printf("simbench %s seed %llu: %zu untraced + %zu traced passes after 1 warm-up; "
              "reference digests %s\n",
              workload->name, static_cast<unsigned long long>(seed), untraced_walls.size(),
              traces.size(),
              bench->has_reference() ? "stored for this seed"
                                     : "not stored for this seed (passes must match the first)");
  std::printf("%s", report.c_str());
  std::printf("jobs attempted %lld, failed %lld (failed_ratio %.6g)\n", attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);

  std::vector<Metric> metrics;
  if (!traced_run) {
    // Each block counts once, at its median pass wall.
    double wall_s = 0.0;
    double cells = 0.0;
    double jobs = 0.0;
    std::printf("  pass walls s by block:");
    for (int b = 0; b < blocks; ++b) {
      const std::vector<double>& walls = block_walls[static_cast<std::size_t>(b)];
      wall_s += Median(walls);
      cells += static_cast<double>(block_work[static_cast<std::size_t>(b)].cells);
      jobs += static_cast<double>(block_work[static_cast<std::size_t>(b)].jobs_completed);
      std::printf(" [");
      for (const double wall : walls) {
        std::printf(" %.3f", wall);
      }
      std::printf(" ]");
    }
    std::printf("\n  setup_s quartiles %.6g %.6g %.6g over %zu set-ups\n",
                Percentile(setup_s, 25.0), Percentile(setup_s, 50.0), Percentile(setup_s, 75.0),
                setup_s.size());
    metrics = {
        {"cells_per_s", "1/s", cells / wall_s},
        {"jobs_per_s", "1/s", jobs / wall_s},
        {"setup_s", "s", *std::min_element(setup_s.begin(), setup_s.end())},
        {"peak_rss_mb", "MB", Median(untraced_rss_mb)},
    };
  } else {
    // The ledger comes from the traced pass with the median wall time.
    std::vector<std::size_t> order(traces.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return traced_walls[a] < traced_walls[b]; });
    const std::size_t pick = order[(order.size() - 1) / 2];
    const TraceData& ledger_pass = traces[pick];
    const double overhead = Median(traced_walls) / Median(untraced_walls);
    std::printf("per-layer ledger (block 0, traced pass %zu of %zu, wall %.1f ms):\n%s", pick + 1,
                traces.size(), traced_walls[pick] * 1e3,
                LedgerTable(ledger_pass, bench->shards() > 1).c_str());
    std::printf("obs.prof_overhead_ratio %.4f (median traced wall / median untraced wall, "
                "%zu vs %zu passes)\n",
                overhead, traced_walls.size(), untraced_walls.size());
    const std::string fingerprint = traces.front().Fingerprint(bench->shards() == 1);
    std::size_t differing = 0;
    for (const TraceData& t : traces) {
      differing += t.Fingerprint(bench->shards() == 1) == fingerprint ? 0 : 1;
    }
    std::printf("hit counts and counters: %s across %zu traced passes\n",
                differing == 0 ? "identical" : "DIFFER (nondeterminism flagged)", traces.size());
    metrics = Ledger(ledger_pass, overhead, Median(build_jobs_ms));
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(), m.unit);
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
