// Tests for the sharded cluster engine: placement, admission-driven
// queueing, node-boundary fragmentation, cutoff semantics — and the core
// contract that a sharded parallel run is byte-identical to the serial
// single-loop reference across every captured artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/core/pdpa_policy.h"
#include "src/obs/event_log.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"

namespace pdpa {
namespace {

ResourceManager::Params FastParams() {
  ResourceManager::Params params;
  params.analyzer.noise_sigma = 0.0;
  params.app_costs.reconfig_freeze = 0;
  params.app_costs.warmup = 0;
  return params;
}

std::vector<JobSpec> MakeJobs(int count, int request, SimDuration spacing = kSecond) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(i % kNumAppClasses);
    spec.submit = i * spacing;
    spec.request = request;
    jobs.push_back(spec);
  }
  return jobs;
}

ClusterOptions BaseOptions(int num_nodes, int cpus_per_node, int ml = 4) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.cpus_per_node = cpus_per_node;
  options.make_policy = [ml] { return std::make_unique<Equipartition>(ml); };
  options.rm_params = FastParams();
  options.capture_events = true;
  options.capture_timeseries = true;
  return options;
}

// Reports the first line where two large artifacts diverge instead of
// dumping both wholesale.
void ExpectSameBytes(const std::string& expected, const std::string& actual, const char* what) {
  if (expected == actual) {
    return;
  }
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t limit = std::min(expected.size(), actual.size());
  std::size_t line_start = 0;
  while (i < limit && expected[i] == actual[i]) {
    if (expected[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
    ++i;
  }
  const auto line_of = [line_start](const std::string& s) {
    const std::size_t end = s.find('\n', line_start);
    return s.substr(line_start, end == std::string::npos ? std::string::npos : end - line_start);
  };
  ADD_FAILURE() << what << " diverges at line " << line << ":\n  serial:  " << line_of(expected)
                << "\n  sharded: " << line_of(actual);
}

void ExpectIdenticalResults(const ClusterResult& serial, const ClusterResult& sharded) {
  ASSERT_EQ(serial.outcomes.size(), sharded.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].id, sharded.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(serial.outcomes[i].start, sharded.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(serial.outcomes[i].finish, sharded.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(serial.outcome_nodes, sharded.outcome_nodes);
  EXPECT_EQ(serial.completed, sharded.completed);
  EXPECT_EQ(serial.end_time, sharded.end_time);
  EXPECT_EQ(serial.max_node_running, sharded.max_node_running);
  EXPECT_EQ(serial.total_reallocations, sharded.total_reallocations);
  EXPECT_EQ(serial.alloc_integral_us, sharded.alloc_integral_us);
  ExpectSameBytes(serial.events_jsonl, sharded.events_jsonl, "events_jsonl");
  ExpectSameBytes(serial.timeseries_csv, sharded.timeseries_csv, "timeseries_csv");
  ExpectSameBytes(serial.counters.ToString(), sharded.counters.ToString(), "counters");
}

// The tentpole contract: shard count must not change a single output byte.
TEST(ClusterShardingTest, ShardedRunIsByteIdenticalToSerial) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 700 * kMillisecond);
  const PlacementPolicy placements[] = {PlacementPolicy::kRoundRobin,
                                        PlacementPolicy::kMostFreeCpus,
                                        PlacementPolicy::kLeastLoaded};
  for (const PlacementPolicy placement : placements) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      ClusterOptions options = BaseOptions(6, 8);
      options.placement = placement;
      options.seed = seed;
      options.shards = 1;
      const ClusterResult serial = RunCluster(jobs, options);
      ASSERT_TRUE(serial.completed);
      ASSERT_EQ(serial.outcomes.size(), jobs.size());
      for (const int shards : {2, 3, 4}) {
        options.shards = shards;
        const ClusterResult sharded = RunCluster(jobs, options);
        SCOPED_TRACE(std::string(PlacementPolicyName(placement)) + " seed " +
                     std::to_string(seed) + " shards " + std::to_string(shards));
        EXPECT_EQ(sharded.shards_used, shards);
        ExpectIdenticalResults(serial, sharded);
      }
    }
  }
}

// Admission flips (PDPA ML holds) are the other visible-event kind; make
// sure a hold-heavy run stays byte-identical too.
TEST(ClusterShardingTest, PdpaAdmissionFlipsStayDeterministic) {
  const std::vector<JobSpec> jobs = MakeJobs(12, 8, 400 * kMillisecond);
  ClusterOptions options = BaseOptions(3, 8);
  options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  options.placement = PlacementPolicy::kLeastLoaded;
  options.shards = 1;
  const ClusterResult serial = RunCluster(jobs, options);
  ASSERT_TRUE(serial.completed);
  for (const int shards : {2, 3}) {
    options.shards = shards;
    const ClusterResult sharded = RunCluster(jobs, options);
    SCOPED_TRACE("shards " + std::to_string(shards));
    ExpectIdenticalResults(serial, sharded);
  }
}

TEST(ClusterShardingTest, ShardCountIsClampedToNodes) {
  ClusterOptions options = BaseOptions(2, 4);
  options.shards = 16;
  const ClusterResult result = RunCluster(MakeJobs(4, 2), options);
  EXPECT_EQ(result.shards_used, 2);
  EXPECT_TRUE(result.completed);
}

TEST(ClusterTest, RoundRobinSpreadsJobsAcrossNodes) {
  ClusterOptions options = BaseOptions(4, 8);
  const ClusterResult result = RunCluster(MakeJobs(4, 2), options);
  ASSERT_TRUE(result.completed);
  const std::set<int> nodes(result.outcome_nodes.begin(), result.outcome_nodes.end());
  EXPECT_EQ(nodes.size(), 4u);
}

// All three placement policies must break ties toward the lowest node
// index — the determinism of the whole run rests on it.
TEST(ClusterTest, PlacementTieBreaksToLowestNodeIndex) {
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    ClusterOptions options = BaseOptions(3, 8);
    options.placement = placement;
    const ClusterResult result = RunCluster(MakeJobs(1, 4), options);
    ASSERT_EQ(result.outcome_nodes.size(), 1u) << PlacementPolicyName(placement);
    EXPECT_EQ(result.outcome_nodes[0], 0) << PlacementPolicyName(placement);
  }
}

TEST(ClusterTest, QueueHoldsJobsWhenNoNodeAdmits) {
  // Single node, ML 1: the second job must wait for the first to finish.
  ClusterOptions options = BaseOptions(1, 8, /*ml=*/1);
  const ClusterResult result = RunCluster(MakeJobs(2, 2), options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_GE(result.outcomes[1].start, result.outcomes[0].finish);
}

// A request wider than a node cannot span nodes; it runs capped at the
// node's size instead of deadlocking the queue (node-boundary
// fragmentation, the cluster's new failure mode).
TEST(ClusterTest, RequestWiderThanNodeRunsCappedAndCompletes) {
  ClusterOptions options = BaseOptions(2, 8);
  options.placement = PlacementPolicy::kMostFreeCpus;
  std::vector<JobSpec> jobs = MakeJobs(2, 30, 0);
  const ClusterResult result = RunCluster(jobs, options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.outcomes.size(), 2u);
  // Both wide jobs started immediately (one per node) — 2x8 free CPUs do
  // not merge into 16, but neither do they block a 30-CPU request.
  EXPECT_EQ(result.outcomes[0].start, 0);
  EXPECT_EQ(result.outcomes[1].start, 0);
  EXPECT_NE(result.outcome_nodes[0], result.outcome_nodes[1]);
  // Capped at the node width: no job ever integrated more than
  // cpus_per_node worth of allocation per microsecond of runtime.
  for (const JobOutcome& outcome : result.outcomes) {
    const double avg_alloc = result.alloc_integral_us.at(outcome.id) /
                             static_cast<double>(outcome.finish - outcome.start);
    EXPECT_LE(avg_alloc, 8.0 + 1e-9) << "job " << outcome.id;
  }
}

TEST(ClusterTest, CutoffReportsIncompleteRun) {
  ClusterOptions options = BaseOptions(2, 4);
  options.max_sim_time = 2 * kSecond;
  const ClusterResult result = RunCluster(MakeJobs(8, 4), options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.end_time, 2 * kSecond);
  EXPECT_LT(result.outcomes.size(), 8u);
}

TEST(ClusterTest, PerNodePdpaStillTrimsUnscalableJobs) {
  ClusterOptions options = BaseOptions(2, 16);
  options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  options.placement = PlacementPolicy::kLeastLoaded;
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = AppClass::kApsi;  // barely scalable
    spec.submit = i * kSecond;
    spec.request = 16;
    jobs.push_back(spec);
  }
  const ClusterResult result = RunCluster(jobs, options);
  ASSERT_TRUE(result.completed);
  // PDPA on each node walks the unscalable apsi jobs down toward the floor:
  // the time-averaged allocation ends far below the 16-CPU request.
  for (const JobOutcome& outcome : result.outcomes) {
    const double avg_alloc = result.alloc_integral_us.at(outcome.id) /
                             static_cast<double>(outcome.finish - outcome.start);
    EXPECT_LE(avg_alloc, 6.0) << "job " << outcome.id;
  }
}

// The merged event log is time-ordered, node-tagged, and carries the
// controller's placement records.
TEST(ClusterTest, MergedEventLogIsOrderedAndTagged) {
  ClusterOptions options = BaseOptions(3, 8);
  const ClusterResult result = RunCluster(MakeJobs(6, 4), options);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.events_jsonl.empty());
  long long last_t = 0;
  int places = 0;
  int node_tagged = 0;
  std::size_t pos = 0;
  while (pos < result.events_jsonl.size()) {
    std::size_t end = result.events_jsonl.find('\n', pos);
    if (end == std::string::npos) {
      end = result.events_jsonl.size();
    }
    const std::string line = result.events_jsonl.substr(pos, end - pos);
    pos = end + 1;
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(ParseFlatJson(line, &fields)) << line;
    const auto t_it = fields.find("t_us");
    const long long t = t_it == fields.end() ? 0 : std::stoll(t_it->second);
    EXPECT_GE(t, last_t) << line;
    last_t = t;
    if (fields["type"] == "place") {
      ++places;
    }
    if (fields.count("node") != 0 && fields["type"] != "place") {
      ++node_tagged;
    }
  }
  EXPECT_EQ(places, 6);
  EXPECT_GT(node_tagged, 0);
}

// --- epoch batching (arrival_batch) --------------------------------------

long long CounterValue(const RegistrySnapshot& snapshot, std::string_view name) {
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

// Counter dump without the two batch-protocol counters — the only fields
// allowed to differ between a batched and a reference-protocol run.
std::string CountersMinusBatchProtocol(const RegistrySnapshot& snapshot) {
  RegistrySnapshot filtered = snapshot;
  std::erase_if(filtered.counters, [](const CounterSnapshot& c) {
    return c.name == "cluster.arrival_batches" || c.name == "cluster.batched_arrivals";
  });
  return filtered.ToString();
}

// Cross-protocol identity: everything ExpectIdenticalResults checks, with
// the counter comparison filtered down to the non-protocol instruments.
void ExpectIdenticalModuloBatchCounters(const ClusterResult& reference,
                                        const ClusterResult& batched) {
  ASSERT_EQ(reference.outcomes.size(), batched.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(reference.outcomes[i].id, batched.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(reference.outcomes[i].start, batched.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(reference.outcomes[i].finish, batched.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(reference.outcome_nodes, batched.outcome_nodes);
  EXPECT_EQ(reference.completed, batched.completed);
  EXPECT_EQ(reference.end_time, batched.end_time);
  EXPECT_EQ(reference.max_node_running, batched.max_node_running);
  EXPECT_EQ(reference.total_reallocations, batched.total_reallocations);
  EXPECT_EQ(reference.alloc_integral_us, batched.alloc_integral_us);
  ExpectSameBytes(reference.events_jsonl, batched.events_jsonl, "events_jsonl");
  ExpectSameBytes(reference.timeseries_csv, batched.timeseries_csv, "timeseries_csv");
  ExpectSameBytes(CountersMinusBatchProtocol(reference.counters),
                  CountersMinusBatchProtocol(batched.counters), "filtered counters");
}

// The tentpole contract of the epoch-batched control plane: batched runs —
// serial and sharded — reproduce the one-arrival-per-barrier protocol byte
// for byte (modulo the two batch-protocol counters) for every placement
// policy.
TEST(ClusterBatchingTest, BatchedProtocolMatchesReferenceAcrossShardsAndPlacements) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 700 * kMillisecond);
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    ClusterOptions options = BaseOptions(6, 8);
    options.placement = placement;
    options.arrival_batch = false;
    options.shards = 1;
    const ClusterResult reference = RunCluster(jobs, options);
    ASSERT_TRUE(reference.completed);
    EXPECT_EQ(CounterValue(reference.counters, "cluster.batched_arrivals"), 0);
    options.arrival_batch = true;
    for (const int shards : {1, 2, 5}) {
      options.shards = shards;
      const ClusterResult batched = RunCluster(jobs, options);
      SCOPED_TRACE(std::string(PlacementPolicyName(placement)) + " shards " +
                   std::to_string(shards));
      ExpectIdenticalModuloBatchCounters(reference, batched);
    }
  }
}

// Batch counters are themselves deterministic across shard counts (drains
// and arrival cycles happen in the same global time order either way), and
// a same-time arrival burst is one cycle in both protocols.
TEST(ClusterBatchingTest, BatchCountersAreShardCountInvariant) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 300 * kMillisecond);
  ClusterOptions options = BaseOptions(6, 8);
  options.shards = 1;
  const ClusterResult serial = RunCluster(jobs, options);
  const long long cycles = CounterValue(serial.counters, "cluster.arrival_batches");
  const long long piggybacked = CounterValue(serial.counters, "cluster.batched_arrivals");
  EXPECT_GT(cycles, 0);
  EXPECT_LE(cycles, 24);
  for (const int shards : {2, 5}) {
    options.shards = shards;
    const ClusterResult sharded = RunCluster(jobs, options);
    SCOPED_TRACE("shards " + std::to_string(shards));
    EXPECT_EQ(CounterValue(sharded.counters, "cluster.arrival_batches"), cycles);
    EXPECT_EQ(CounterValue(sharded.counters, "cluster.batched_arrivals"), piggybacked);
  }
}

// An arrival landing exactly on a completion time must drain the completion
// batch first (finish-before-submit tie order) in both protocols — the
// regime-B feeder enqueues strictly-earlier arrivals only.
TEST(ClusterBatchingTest, ArrivalExactlyAtCompletionBatchBoundary) {
  // Pin the boundary: run one job to learn its finish time, then submit the
  // second job at exactly that instant. ML 1 keeps the node non-admitting
  // while busy, so the arrival rides the regime-B path.
  ClusterOptions options = BaseOptions(2, 8, /*ml=*/1);
  const ClusterResult probe = RunCluster(MakeJobs(1, 4), options);
  ASSERT_TRUE(probe.completed);
  const SimTime boundary = probe.outcomes[0].finish;
  ASSERT_GT(boundary, 0);

  std::vector<JobSpec> jobs = MakeJobs(2, 4, 0);
  jobs[1].submit = boundary;
  options.arrival_batch = false;
  const ClusterResult reference = RunCluster(jobs, options);
  ASSERT_TRUE(reference.completed);
  options.arrival_batch = true;
  for (const int shards : {1, 2}) {
    options.shards = shards;
    const ClusterResult batched = RunCluster(jobs, options);
    SCOPED_TRACE("shards " + std::to_string(shards));
    ExpectIdenticalModuloBatchCounters(reference, batched);
  }
}

// More shards than nodes (clamped) with batching on still matches the
// reference protocol.
TEST(ClusterBatchingTest, MoreShardsThanNodesMatchesReference) {
  const std::vector<JobSpec> jobs = MakeJobs(8, 4, 500 * kMillisecond);
  ClusterOptions options = BaseOptions(2, 8);
  options.arrival_batch = false;
  const ClusterResult reference = RunCluster(jobs, options);
  options.arrival_batch = true;
  options.shards = 5;
  const ClusterResult batched = RunCluster(jobs, options);
  EXPECT_EQ(batched.shards_used, 2);
  ExpectIdenticalModuloBatchCounters(reference, batched);
}

// A zero-arrival workload terminates immediately in both protocols, with
// and without a cutoff.
TEST(ClusterBatchingTest, ZeroArrivalWorkloadTerminates) {
  for (const bool batch : {true, false}) {
    for (const SimTime cutoff : {SimTime{0}, 5 * kSecond}) {
      ClusterOptions options = BaseOptions(3, 8);
      options.arrival_batch = batch;
      options.max_sim_time = cutoff;
      const ClusterResult result = RunCluster({}, options);
      SCOPED_TRACE((batch ? "batched" : "reference") + std::string(" cutoff ") +
                   std::to_string(cutoff));
      EXPECT_TRUE(result.completed);
      EXPECT_TRUE(result.outcomes.empty());
      EXPECT_EQ(result.end_time, 0);
      EXPECT_EQ(CounterValue(result.counters, "cluster.arrival_batches"), 0);
    }
  }
}

// Cutoff semantics are protocol-invariant: the batched run times out at the
// same instant with the same completed prefix.
TEST(ClusterBatchingTest, CutoffMatchesReferenceProtocol) {
  const std::vector<JobSpec> jobs = MakeJobs(8, 4);
  ClusterOptions options = BaseOptions(2, 4);
  options.max_sim_time = 2 * kSecond;
  options.arrival_batch = false;
  const ClusterResult reference = RunCluster(jobs, options);
  EXPECT_FALSE(reference.completed);
  options.arrival_batch = true;
  for (const int shards : {1, 2}) {
    options.shards = shards;
    const ClusterResult batched = RunCluster(jobs, options);
    SCOPED_TRACE("shards " + std::to_string(shards));
    ExpectIdenticalModuloBatchCounters(reference, batched);
  }
}

// --- RM boundary batching (rm_params.boundary_batch) ---------------------

// With a report-passive policy and no capture sinks, the boundary-batched
// RM skips immaterial progress ticks; completions, placements and
// allocation integrals must not move by a microsecond.
TEST(ClusterBoundaryBatchTest, FastPathReproducesExactOutcomes) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 400 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(4, 8);
  exact_options.capture_events = false;
  exact_options.capture_timeseries = false;
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ASSERT_TRUE(exact.completed);

  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ASSERT_TRUE(fast.completed);

  ASSERT_EQ(exact.outcomes.size(), fast.outcomes.size());
  for (std::size_t i = 0; i < exact.outcomes.size(); ++i) {
    EXPECT_EQ(exact.outcomes[i].id, fast.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(exact.outcomes[i].start, fast.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(exact.outcomes[i].finish, fast.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(exact.outcome_nodes, fast.outcome_nodes);
  EXPECT_EQ(exact.end_time, fast.end_time);
  EXPECT_EQ(exact.total_reallocations, fast.total_reallocations);
  EXPECT_EQ(exact.alloc_integral_us, fast.alloc_integral_us);
  // The whole point: far fewer ticks fired.
  EXPECT_LT(CounterValue(fast.counters, "rm.ticks"),
            CounterValue(exact.counters, "rm.ticks") / 2);
}

// Capture sinks disengage the fast path: a boundary-batched run with
// event/time-series capture is byte-identical to the exact one, ticks
// included.
TEST(ClusterBoundaryBatchTest, CaptureSinksDisengageFastPath) {
  const std::vector<JobSpec> jobs = MakeJobs(12, 6, 500 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(3, 8);
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ExpectIdenticalResults(exact, fast);
}

// A report-reactive policy (PDPA) must ignore boundary_batch entirely: its
// OnReport decisions need every boundary tick.
TEST(ClusterBoundaryBatchTest, ReactivePolicyIgnoresBoundaryBatch) {
  const std::vector<JobSpec> jobs = MakeJobs(8, 8, 600 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(2, 8);
  exact_options.capture_events = false;
  exact_options.capture_timeseries = false;
  exact_options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ExpectSameBytes(exact.counters.ToString(), fast.counters.ToString(), "counters");
}

// Both fast paths together on a contended drain (2000 jobs over 24 nodes):
// the epoch-batched controller over boundary-batched RMs reproduces the
// one-arrival-per-barrier, every-tick reference. Outcomes match exactly;
// counters and gauges match except the batch-protocol and tick-schedule
// instruments, which the fast paths exist to change.
TEST(ClusterBoundaryBatchTest, BothFastPathsMatchReferenceOnAContendedDrain) {
  const std::vector<JobSpec> jobs = MakeJobs(2000, 6, kSecond / 4);
  ClusterOptions fast_options = BaseOptions(24, 8);
  fast_options.capture_events = false;
  fast_options.capture_timeseries = false;
  fast_options.rm_params.boundary_batch = true;
  ClusterOptions reference_options = fast_options;
  reference_options.arrival_batch = false;
  reference_options.rm_params.boundary_batch = false;
  const ClusterResult reference = RunCluster(jobs, reference_options);
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ASSERT_TRUE(reference.completed);

  ASSERT_EQ(reference.outcomes.size(), fast.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(reference.outcomes[i].id, fast.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(reference.outcomes[i].start, fast.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(reference.outcomes[i].finish, fast.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(reference.outcome_nodes, fast.outcome_nodes);
  EXPECT_EQ(reference.end_time, fast.end_time);
  EXPECT_EQ(reference.max_node_running, fast.max_node_running);
  EXPECT_EQ(reference.total_reallocations, fast.total_reallocations);

  const auto cross_mode = [](const RegistrySnapshot& snapshot) {
    const auto excluded = [](const std::string& name) {
      return name == "cluster.arrival_batches" || name == "cluster.batched_arrivals" ||
             name == "rm.ticks" || name == "rm.ticks_elided" ||
             name == "sim.events_dispatched" || name == "sim.periodic_fires" ||
             name == "machine.free_cpus";
    };
    RegistrySnapshot filtered = snapshot;
    std::erase_if(filtered.counters, [&](const CounterSnapshot& c) { return excluded(c.name); });
    std::erase_if(filtered.gauges, [&](const GaugeSnapshot& g) { return excluded(g.name); });
    return filtered.ToString();
  };
  ExpectSameBytes(cross_mode(reference.counters), cross_mode(fast.counters),
                  "cross-mode counters");
  // Non-vacuity: both fast paths engaged.
  EXPECT_GT(CounterValue(fast.counters, "cluster.batched_arrivals"), 0);
  EXPECT_LT(CounterValue(fast.counters, "rm.ticks"),
            CounterValue(reference.counters, "rm.ticks"));
}

// --- randomized serial == sharded differential ---------------------------

// One drawn cluster shape. Printed on failure so a broken draw can be
// replayed by hand.
struct DrawnShape {
  std::uint64_t seed = 0;
  int nodes = 1;
  int cpus = 1;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  int policy = 0;  // 0 Equipartition, 1 PDPA, 2 Equal_eff
  bool capture = false;
  bool boundary_batch = true;
  bool arrival_batch = true;
  std::vector<int> shard_counts;

  std::string ToString() const {
    static const char* const kPolicies[] = {"equip", "pdpa", "equal_eff"};
    std::ostringstream out;
    out << "seed " << seed << ": " << nodes << " nodes x " << cpus << " cpus, "
        << PlacementPolicyShortName(placement) << ", " << kPolicies[policy]
        << (capture ? ", capture" : "") << (boundary_batch ? ", boundary_batch" : "")
        << (arrival_batch ? ", arrival_batch" : ", reference protocol") << ", shards";
    for (const int shards : shard_counts) {
      out << ' ' << shards;
    }
    return out.str();
  }
};

// Short random profiles, one per application class, so a drawn workload
// drains in milliseconds of host time even on the fine tick grid.
std::vector<AppProfile> DrawProfiles(Rng& rng, int cpus) {
  std::vector<AppProfile> profiles;
  for (int k = 0; k < kNumAppClasses; ++k) {
    std::vector<std::pair<double, double>> points{{1, 1.0}};
    double speedup = 1.0;
    for (int p = 2; p <= cpus; ++p) {
      speedup = std::max(0.5, speedup + rng.Uniform(-0.3, 1.0));
      points.emplace_back(p, speedup);
    }
    AppProfile profile;
    profile.name = "drawn";
    profile.app_class = static_cast<AppClass>(k);
    profile.speedup = std::make_shared<TableSpeedup>(points);
    profile.sequential_work_s = rng.Uniform(0.3, 6.0);
    profile.iterations = rng.UniformInt(1, 16);
    profile.default_request = cpus;
    profile.baseline_procs = rng.UniformInt(1, cpus);
    profiles.push_back(profile);
  }
  return profiles;
}

// Bursts that saturate the cluster, separated by gaps long enough for it to
// drain and go idle.
std::vector<JobSpec> DrawWorkload(Rng& rng, const DrawnShape& shape) {
  std::vector<JobSpec> jobs;
  SimTime t = 0;
  const int bursts = rng.UniformInt(1, 3);
  for (int b = 0; b < bursts; ++b) {
    const int size = rng.UniformInt(1, 2 * shape.nodes + 8);
    for (int i = 0; i < size; ++i) {
      JobSpec spec;
      spec.id = static_cast<JobId>(jobs.size());
      spec.app_class = static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1));
      spec.request = rng.UniformInt(1, shape.cpus + 2);
      spec.rigid = rng.UniformInt(0, 7) == 0;
      // Same-instant groups and arrivals on the 20 ms tick grid happen.
      if (rng.UniformInt(0, 2) != 0) {
        t += rng.UniformInt(0, 3) * 20 * kMillisecond;
      } else {
        t += SecondsToTime(rng.Uniform(0.0, 0.5));
      }
      spec.submit = t;
      jobs.push_back(spec);
    }
    t += SecondsToTime(rng.Uniform(0.0, 40.0));
  }
  return jobs;
}

ClusterOptions ShapeOptions(const DrawnShape& shape, const std::vector<AppProfile>& profiles) {
  ClusterOptions options;
  options.num_nodes = shape.nodes;
  options.cpus_per_node = shape.cpus;
  options.placement = shape.placement;
  options.seed = shape.seed;
  const int ml = std::min(4, shape.cpus);
  switch (shape.policy) {
    case 0:
      options.make_policy = [ml] { return std::make_unique<Equipartition>(ml); };
      break;
    case 1:
      options.make_policy = [] {
        return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
      };
      break;
    default:
      options.make_policy = [ml] {
        EqualEfficiency::Params params;
        params.fixed_ml = ml;
        return std::make_unique<EqualEfficiency>(params);
      };
      break;
  }
  options.rm_params.analyzer.noise_sigma = 0.0;
  options.rm_params.boundary_batch = shape.boundary_batch;
  options.arrival_batch = shape.arrival_batch;
  options.capture_events = shape.capture;
  options.capture_timeseries = shape.capture;
  options.profile_source = [&profiles](AppClass app_class) -> const AppProfile& {
    return profiles[static_cast<std::size_t>(app_class)];
  };
  return options;
}

// The lookahead protocol's whole contract: over random shapes — from one
// node to forty, more shards than nodes, every placement rule, passive and
// reactive policies, with and without capture sinks — a run is byte for
// byte the same at every shard count. Arrivals are re-submitted exactly on
// completion instants of a first run, in saturated and idle phases, and
// some runs stop at a cutoff (sometimes exactly on a completion).
TEST(ClusterDifferentialTest, RandomShapesAreShardCountInvariant) {
  Rng root(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    DrawnShape shape;
    shape.seed = root.NextU64();
    Rng rng(shape.seed);
    shape.nodes = rng.UniformInt(1, 40);
    shape.cpus = rng.UniformInt(1, 16);
    shape.placement = static_cast<PlacementPolicy>(rng.UniformInt(0, 2));
    shape.policy = rng.UniformInt(0, 2);
    shape.capture = rng.UniformInt(0, 3) == 0;
    shape.boundary_batch = rng.UniformInt(0, 3) != 0;
    shape.arrival_batch = rng.UniformInt(0, 5) != 0;
    shape.shard_counts = {rng.UniformInt(2, 8), rng.UniformInt(2, 8)};
    SCOPED_TRACE(shape.ToString());
    const std::vector<AppProfile> profiles = DrawProfiles(rng, shape.cpus);
    ClusterOptions options = ShapeOptions(shape, profiles);

    // First run: learn completion instants, then tie new arrivals to them.
    std::vector<JobSpec> jobs = DrawWorkload(rng, shape);
    const ClusterResult probe = RunCluster(jobs, options);
    ASSERT_TRUE(probe.completed);
    ASSERT_FALSE(probe.outcomes.empty());
    const int ties = rng.UniformInt(1, 4);
    for (int i = 0; i < ties; ++i) {
      const JobOutcome& anchor =
          probe.outcomes[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(probe.outcomes.size()) - 1))];
      JobSpec spec;
      spec.id = static_cast<JobId>(jobs.size());
      spec.app_class = static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1));
      spec.request = rng.UniformInt(1, shape.cpus);
      spec.submit = anchor.finish;
      jobs.push_back(spec);
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobSpec& a, const JobSpec& b) { return a.submit < b.submit; });
    if (rng.UniformInt(0, 2) == 0) {
      const JobOutcome& anchor =
          probe.outcomes[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(probe.outcomes.size()) - 1))];
      options.max_sim_time = rng.UniformInt(0, 1) == 0 ? anchor.finish
                                                       : std::max<SimTime>(1, anchor.finish / 2);
    }

    options.shards = 1;
    const ClusterResult serial = RunCluster(jobs, options);
    EXPECT_EQ(serial.outcomes.size(), serial.outcome_nodes.size());
    for (const int shards : shape.shard_counts) {
      options.shards = shards;
      const ClusterResult sharded = RunCluster(jobs, options);
      SCOPED_TRACE("shards " + std::to_string(shards));
      EXPECT_EQ(sharded.shards_used, std::min(shards, shape.nodes));
      ExpectIdenticalResults(serial, sharded);
      ASSERT_EQ(serial.outcomes.size(), sharded.outcomes.size());
      for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].app_class, sharded.outcomes[i].app_class) << "outcome " << i;
        EXPECT_EQ(serial.outcomes[i].request, sharded.outcomes[i].request) << "outcome " << i;
        EXPECT_EQ(serial.outcomes[i].submit, sharded.outcomes[i].submit) << "outcome " << i;
      }
    }
    if (shape.arrival_batch) {
      // Batched control plane vs the one-arrival-per-barrier reference.
      options.shards = 1;
      options.arrival_batch = false;
      ExpectIdenticalModuloBatchCounters(RunCluster(jobs, options), serial);
    }
  }
}

// Tiny jobs on many nodes per shard: a burst placed at one instant finishes
// at one tick, so far more than a shard's pacing lead (kMaxLead in
// cluster.cc) block at once, mostly in the shards' pending lists rather
// than the controller's blocked heap. Waves refill the cluster, and extra
// arrivals land exactly on completion instants of a first run.
TEST(ClusterDifferentialTest, MassBlockingShapesAreShardCountInvariant) {
  Rng root(20261018);
  for (int trial = 0; trial < 16; ++trial) {
    DrawnShape shape;
    shape.seed = root.NextU64();
    Rng rng(shape.seed);
    shape.nodes = rng.UniformInt(64, 160);
    shape.cpus = rng.UniformInt(1, 8);
    shape.placement = static_cast<PlacementPolicy>(rng.UniformInt(0, 2));
    shape.policy = rng.UniformInt(0, 3) == 0 ? rng.UniformInt(1, 2) : 0;
    shape.capture = rng.UniformInt(0, 3) == 0;
    shape.boundary_batch = rng.UniformInt(0, 3) != 0;
    shape.shard_counts = {rng.UniformInt(2, 4), rng.UniformInt(5, 8)};
    SCOPED_TRACE(shape.ToString());
    std::vector<AppProfile> profiles = DrawProfiles(rng, shape.cpus);
    for (AppProfile& profile : profiles) {
      profile.sequential_work_s = rng.Uniform(0.005, 0.25);
      profile.iterations = rng.UniformInt(1, 3);
    }
    ClusterOptions options = ShapeOptions(shape, profiles);

    std::vector<JobSpec> jobs;
    SimTime t = 0;
    for (int wave = rng.UniformInt(2, 5); wave > 0; --wave) {
      const int size = rng.UniformInt(shape.nodes, 3 * shape.nodes);
      const AppClass app_class = static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1));
      const int request = rng.UniformInt(1, shape.cpus);
      for (int i = 0; i < size; ++i) {
        JobSpec spec;
        spec.id = static_cast<JobId>(jobs.size());
        // Mostly one class and request per wave, so completions tie.
        const bool odd = rng.UniformInt(0, 4) == 0;
        spec.app_class =
            odd ? static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1)) : app_class;
        spec.request = odd ? rng.UniformInt(1, shape.cpus) : request;
        spec.submit = t;
        jobs.push_back(spec);
      }
      t += rng.UniformInt(0, 40) * 20 * kMillisecond;
    }
    const ClusterResult probe = RunCluster(jobs, options);
    ASSERT_TRUE(probe.completed);
    for (int i = rng.UniformInt(4, 24); i > 0; --i) {
      const JobOutcome& anchor = probe.outcomes[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(probe.outcomes.size()) - 1))];
      JobSpec spec;
      spec.id = static_cast<JobId>(jobs.size());
      spec.app_class = static_cast<AppClass>(rng.UniformInt(0, kNumAppClasses - 1));
      spec.request = rng.UniformInt(1, shape.cpus);
      spec.submit = anchor.finish;
      jobs.push_back(spec);
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobSpec& a, const JobSpec& b) { return a.submit < b.submit; });

    options.shards = 1;
    const ClusterResult serial = RunCluster(jobs, options);
    ASSERT_TRUE(serial.completed);
    for (const int shards : shape.shard_counts) {
      options.shards = shards;
      SCOPED_TRACE("shards " + std::to_string(shards));
      ExpectIdenticalResults(serial, RunCluster(jobs, options));
    }
  }
}

TEST(ClusterTest, PlacementPolicyNamesRoundTrip) {
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    PlacementPolicy parsed;
    ASSERT_TRUE(ParsePlacementPolicy(PlacementPolicyName(placement), &parsed));
    EXPECT_EQ(parsed, placement);
    ASSERT_TRUE(ParsePlacementPolicy(PlacementPolicyShortName(placement), &parsed));
    EXPECT_EQ(parsed, placement);
  }
  PlacementPolicy parsed = PlacementPolicy::kRoundRobin;
  EXPECT_FALSE(ParsePlacementPolicy("bogus", &parsed));
}

}  // namespace
}  // namespace pdpa
