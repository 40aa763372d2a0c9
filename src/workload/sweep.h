// Parallel sweep engine: runs a grid of experiments (workloads x loads x
// policies x seeds) across a pool of worker threads.
//
// Each grid cell executes one RunExperiment with a *private* observability
// context — its Simulation's own Registry, EventLog sink and
// TimeSeriesSampler — so N simulations can run concurrently without sharing
// any mutable state. Cells
// are handed to workers through a mutex-guarded cursor (one claim per whole
// simulation, so contention is noise; the lock keeps the queue visible to
// clang's thread-safety analysis) and every result is stored at the cell's
// grid index, so output order is the deterministic grid order regardless of
// completion order: a parallel sweep produces byte-identical CSV and
// per-cell recordings to a serial one.
//
// The seeds axis is the replication dimension: the same (workload, load,
// policy) cell re-run under different arrival-trace seeds. SweepCsv emits
// one row per (replica, class) plus per-class mean/p50/p95 aggregate rows
// across the replicas whenever more than one seed is swept.
#ifndef SRC_WORKLOAD_SWEEP_H_
#define SRC_WORKLOAD_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/prof.h"
#include "src/obs/slowdown.h"
#include "src/workload/experiment.h"

namespace pdpa {

// The sweep axes plus the template config shared by every cell. The
// template's workload/load/policy/seed are overwritten per cell; its
// event_log/timeseries pointers must be null (RunSweep installs per-cell
// sinks itself).
struct SweepGrid {
  ExperimentConfig base;
  std::vector<WorkloadId> workloads = {WorkloadId::kW1};
  std::vector<double> loads = {1.0};
  std::vector<PolicyKind> policies = {PolicyKind::kPdpa};
  std::vector<std::uint64_t> seeds = {42};
  // Cluster dimensions (src/workload/cluster_cell.h). nodes == 1 is the
  // classic single-SMP sweep and ignores placements; nodes > 1 runs every
  // cell on a cluster of `nodes` x `cpus_per_node` (overriding
  // base.num_cpus with their product) and sweeps the placements axis.
  int nodes = 1;
  int cpus_per_node = 60;
  std::vector<PlacementPolicy> placements = {PlacementPolicy::kRoundRobin};
  // Per-cell shard count for the cluster engine (wall-clock only; outputs
  // are shard-count-invariant).
  int shards = 1;
};

// One fully resolved grid cell.
struct SweepCell {
  std::size_t index = 0;
  WorkloadId workload = WorkloadId::kW1;
  double load = 1.0;
  PolicyKind policy = PolicyKind::kPdpa;
  std::uint64_t seed = 42;
  // "w1_0.60_PDPA", with a "_<placement>" suffix (e.g. "_rr") when the
  // grid is a cluster sweep and an "_s<seed>" suffix when the grid sweeps
  // more than one seed. Used for per-cell recording filenames.
  std::string name;
  ExperimentConfig config;
  // Copied from the grid; nodes == 1 means a single-SMP cell.
  int nodes = 1;
  int cpus_per_node = 60;
  int shards = 1;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
};

// Expands the grid in nested order: workload (outer) x load x policy x
// placement x seed (inner); a single-SMP grid has exactly one placement, so
// the classic workload x load x policy x seed order is unchanged. Cell
// indices are positions in this order.
std::vector<SweepCell> ExpandGrid(const SweepGrid& grid);

// Completion progress of a running sweep, delivered to
// SweepOptions::on_progress as cells finish (completion order, which under
// a parallel sweep is not grid order).
struct SweepProgress {
  // Cells fully executed so far, including the one just finished.
  std::size_t done = 0;
  std::size_t total = 0;
  // Grid index of the cell that just finished.
  std::size_t cell_index = 0;
};

// What the shared-prefix fork machinery actually did during one RunSweep,
// for reporting and non-vacuity tests. A fork saves work whenever
// forked_cells exceeds prefixes_built: those cells skipped the pre-arrival
// simulation entirely.
struct ForkStats {
  // (workload, load, seed) groups in the grid.
  std::size_t groups = 0;
  // Groups whose shared prefix was actually run and snapshotted. A group
  // of one cell (a one-policy single-node grid) and a cluster group never
  // build one: a prefix run plus one fork costs more than one cold run.
  std::size_t prefixes_built = 0;
  // Cells started from a group snapshot vs. run cold from t=0.
  std::size_t forked_cells = 0;
  std::size_t cold_cells = 0;
};

struct SweepOptions {
  // Worker threads. <= 0 means std::thread::hardware_concurrency(); the
  // value is clamped to [1, number of cells]. jobs == 1 runs inline on the
  // calling thread (no pool).
  int jobs = 0;
  // Capture a Registry snapshot / JSONL event log / time-series CSV per
  // cell. Off by default: capturing events in particular costs string
  // building on the simulation hot path.
  bool capture_counters = false;
  bool capture_events = false;
  bool capture_timeseries = false;
  // Capture a host-time profile per cell (span hit counts + nanosecond
  // totals) plus the cell's host begin/end stamps and worker index. Hit
  // counts are deterministic (serial == parallel, run to run); only the
  // nanosecond totals vary with the host.
  bool capture_prof = false;
  // Invoked once per completed cell, from whichever thread finished it. The
  // engine holds its progress mutex across the call, so invocations are
  // serialized and need no locking of their own — but must stay quick and
  // must not call back into RunSweep.
  std::function<void(const SweepProgress&)> on_progress;
  // When set, receives what the fork machinery did (written after the sweep
  // completes, from the calling thread).
  ForkStats* fork_stats = nullptr;
};

namespace internal {

// Shared worker-pool state of one RunSweep: the work-queue cursor plus the
// completion counter. Exposed in the header only so the lock-discipline
// probe (tests/tsa_probe/) can reference it; not part of the sweep API.
struct SweepWorkState {
  // Outermost rank in the lock hierarchy (DESIGN.md §8): held across the
  // serialized on_progress callback, which may reach ranked locks below.
  Mutex mutex{PDPA_LOCK_RANK(10)};
  // The work queue: cells are claimed in grid order, one per worker
  // round-trip. Equal to the number of cells handed out so far.
  std::size_t next_cell PDPA_GUARDED_BY(mutex) = 0;
  // Cells fully executed (result slot written).
  std::size_t done PDPA_GUARDED_BY(mutex) = 0;
};

}  // namespace internal

struct SweepCellResult {
  SweepCell cell;
  ExperimentResult result;
  // Filled per SweepOptions; empty otherwise.
  RegistrySnapshot counters;
  std::string events_jsonl;
  std::string timeseries_csv;
  // Filled when SweepOptions::capture_prof: the cell's host-time profile,
  // the worker thread that ran it (0 for an inline sweep), and the cell's
  // host-clock begin/end stamps (prof::NowNanos), for trace export.
  Profiler profile;
  int worker = 0;
  long long host_begin_ns = 0;
  long long host_end_ns = 0;
};

// Runs every cell of the grid; returns results in grid (ExpandGrid) order.
std::vector<SweepCellResult> RunSweep(const SweepGrid& grid, const SweepOptions& options = {});

// Merges the per-cell profiles in grid order (deterministic: integer hit
// counts add exactly; nanosecond totals add but stay host-dependent).
Profiler MergeProfiles(const std::vector<SweepCellResult>& results);

// Element-wise mean / median / 95th percentile of one metric across seed
// replicas.
struct AggStat {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

// Per-class statistics across the seed replicas of one (workload, load,
// policy) group. `replicas` counts the seeds in which the class appeared.
struct ClassAggregate {
  int replicas = 0;
  AggStat count;
  AggStat avg_response_s;
  AggStat p50_response_s;
  AggStat p95_response_s;
  AggStat avg_exec_s;
  AggStat avg_wait_s;
  AggStat avg_alloc;
  // Exact bucket-count merge of the replicas' slowdown histograms; the
  // aggregate percentiles come from here (independent of merge grouping).
  LogHistogram slowdown;
};

struct CellAggregate {
  std::map<AppClass, ClassAggregate> per_class;
  AggStat makespan_s;
  AggStat max_ml;
  AggStat reallocations;
  bool all_completed = true;
  int replicas = 0;
};

// Aggregates results[begin, begin + count) — the seed replicas of one grid
// group — across seeds.
CellAggregate AggregateSeeds(const std::vector<SweepCellResult>& results, std::size_t begin,
                             std::size_t count);

// Writes the sweep CSV: header, one row per (replica, class) in grid order,
// and, when seeds_per_group > 1, three aggregate rows per class (seed column
// "mean" / "p50" / "p95") after each group's replica rows. `seeds_per_group`
// must divide results.size(). `slowdown_columns` appends slowdown_p50/p95/
// p99 columns (per-replica and merged-across-replicas percentiles); off by
// default so existing pinned outputs stay byte-identical.
void SweepCsv(const std::vector<SweepCellResult>& results, std::size_t seeds_per_group,
              std::ostream& out, bool slowdown_columns = false);

}  // namespace pdpa

#endif  // SRC_WORKLOAD_SWEEP_H_
