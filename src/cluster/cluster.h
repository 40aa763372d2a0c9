// Cluster of SMPs (the paper's second future-work direction, Sec. 6): a
// set of shared-memory nodes, each managed by its own NANOS RM running its
// own scheduling policy, plus a cluster-level controller that queues each
// arriving job and places it on one node ("cooperation between the
// scheduling policies running on the different machines").
//
// Jobs are node-local: a malleable OpenMP application cannot span nodes, so
// the interesting new decision is *placement*, and the new failure mode is
// node-boundary fragmentation (a 30-CPU request cannot use 2x15 free CPUs
// on two different machines).
//
// Sharded execution (DESIGN.md §13): every node owns a private Simulation
// and advances independently, so the cluster is a conservative parallel
// discrete-event simulation. Nodes are partitioned over `shards` event
// loops (node k lives on shard k % shards), run by `shards` threads; there
// is no dedicated controller thread. The only cross-node facts are job
// completions and admission flips ("visible" activity). Every node
// publishes a lower bound on its next visible instant
// (ResourceManager::NextVisibleBound: for passive-policy nodes the earliest
// completion tick in closed form, exact for settled jobs and a strict lower
// bound for jobs still in their baseline, freeze or warm-up; else its next
// event time). A shard steps its nodes up to the next arrival not yet
// queued and blocks only a node with visible activity. The blocked node
// joins the shard's own pending list without the engine mutex; the shard's
// promise is the minimum over its unblocked nodes' bounds and its pending
// instants. A shard takes the mutex, and registers its pending nodes with
// the controller, only when the controller may be waiting on it: the
// instant the controller waits on has reached a pending node, the promise
// just crossed that instant, or the controller left it a drain of its own
// node. The controller drains the batch at C as soon as every promise lies
// past C — it never waits for a shard to reach C — on the thread owning
// the batch's first node. Every controller
// decision is made in canonical (time, node-index) order regardless of the
// shard count, so a run with `shards == 1` (the same loop, inline on the
// calling thread) and a run with N threads produce byte-identical event
// logs, time-series CSVs and counters. tests/cluster_test.cc asserts
// exactly that.
//
// Epoch batching (default on, `arrival_batch`): instead of synchronizing
// every shard at every arrival, the controller batches arrivals inside
// provably safe windows — while no node admits, arrivals are pure queue
// pushes made as soon as every promise lies past them; while nodes admit,
// successive arrival groups are placed in one cycle as long as each group
// precedes the earliest possible node event. Placements are applied in the
// same canonical (time, node-index) order either way, so batched runs are
// byte-identical to the one-arrival-per-barrier protocol (`arrival_batch =
// false`) except for the two batch-protocol counters
// (cluster.arrival_batches, cluster.batched_arrivals).
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/app_profile.h"
#include "src/obs/counters.h"
#include "src/obs/prof.h"
#include "src/qs/job.h"
#include "src/rm/resource_manager.h"

namespace pdpa {

// How the cluster controller picks the node for the next queued job. All
// three break ties toward the lowest node index, which keeps placement —
// and therefore the whole run — deterministic.
enum class PlacementPolicy : int {
  // Rotate over nodes that can admit the job.
  kRoundRobin = 0,
  // Node with the most free processors (best chance of a large initial
  // allocation).
  kMostFreeCpus = 1,
  // Node with the fewest running jobs (spreads the ML pressure).
  kLeastLoaded = 2,
};

const char* PlacementPolicyName(PlacementPolicy policy);
// Compact suffix for sweep-cell names: "rr", "mf", "ll".
const char* PlacementPolicyShortName(PlacementPolicy policy);
// Accepts both the long and the short names. Returns false on anything
// else, leaving *out untouched.
bool ParsePlacementPolicy(std::string_view text, PlacementPolicy* out);

struct ClusterOptions {
  int num_nodes = 1;
  int cpus_per_node = 60;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  // Fresh policy instance per node; required.
  std::function<std::unique_ptr<SchedulingPolicy>()> make_policy;
  // Per-node RM parameters; num_cpus is overridden with cpus_per_node.
  ResourceManager::Params rm_params;
  // Root seed; node k's RM gets the k-th fork, independent of sharding.
  std::uint64_t seed = 1;
  // Event loops, one thread each (the calling thread runs the first). 1
  // (the default) runs the whole cluster inline on the calling thread — the
  // serial reference. Clamped to [1, num_nodes].
  int shards = 1;
  // Simulation-time cutoff; 0 means run until the workload drains.
  SimTime max_sim_time = 0;
  // Epoch-batched arrival handling (see the header comment). Off restores
  // the historical one-arrival-per-barrier protocol, the reference the
  // cluster tests compare against; outputs differ only in the
  // batch-protocol counters.
  bool arrival_batch = true;
  // Borrowed host-time profiler for the controller (null disables).
  // Controller spans: cluster.barrier_wait, cluster.drain, cluster.place,
  // written under the engine mutex by whichever thread runs the controller.
  // With shards == 1 the node-level sim/rm/obs spans are recorded too (one
  // thread does everything); with more shards they stay dark — Profiler is
  // single-writer.
  Profiler* profiler = nullptr;
  // Flight-recorder capture. Events and time-series are merged across the
  // controller and all nodes into single deterministic artifacts; the
  // "queued" column of machine samples is always 0 in cluster mode (the
  // backlog lives in the controller, not in any node's RM).
  bool capture_events = false;
  bool capture_timeseries = false;
  // App profile lookup; null means CachedProfile().
  std::function<const AppProfile&(AppClass)> profile_source;
};

struct ClusterResult {
  // Completion order: by finish time, then node index, then per-node
  // completion order. outcome_nodes[i] is the node outcomes[i] ran on.
  std::vector<JobOutcome> outcomes;
  std::vector<int> outcome_nodes;
  bool completed = true;
  // Last completion time, or the cutoff when the run timed out.
  SimTime end_time = 0;
  int shards_used = 1;
  // High-water mark of per-node multiprogramming level.
  int max_node_running = 0;
  long long total_reallocations = 0;
  // Keyed by global job id (per-node integrals remapped).
  std::map<JobId, double> alloc_integral_us;
  // Merged JSONL, ordered by (t_us, stream, line): stream 0 is the
  // controller (job_submit / place / job_finish / run_end), stream k+1 is
  // node k (records carry a trailing "node":k field). Empty unless
  // capture_events.
  std::string events_jsonl;
  // Merged per-node CSV with a leading "node" column (see
  // WriteClusterTimeSeriesCsv). Empty unless capture_timeseries.
  std::string timeseries_csv;
  // Controller + per-node registries merged (counters summed); includes
  // cluster.* controller counters, e.g. cluster.placements.
  RegistrySnapshot counters;
};

// Simulates `workload` (submit-sorted, unique job ids) on the cluster
// described by `options` and returns the merged result. The output contract
// is that every field of ClusterResult is a pure function of (workload,
// options minus shards): the shard count only changes wall-clock time.
ClusterResult RunCluster(const std::vector<JobSpec>& workload, const ClusterOptions& options);

}  // namespace pdpa

#endif  // SRC_CLUSTER_CLUSTER_H_
