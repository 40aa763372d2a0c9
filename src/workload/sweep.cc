#include "src/workload/sweep.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/app/app_profile.h"
#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/workload/cluster_cell.h"

namespace pdpa {

std::vector<SweepCell> ExpandGrid(const SweepGrid& grid) {
  PDPA_CHECK(!grid.workloads.empty());
  PDPA_CHECK(!grid.loads.empty());
  PDPA_CHECK(!grid.policies.empty());
  PDPA_CHECK(!grid.seeds.empty());
  PDPA_CHECK_GE(grid.nodes, 1);
  PDPA_CHECK_GE(grid.cpus_per_node, 1);
  PDPA_CHECK(grid.base.event_log == nullptr) << "RunSweep installs per-cell event logs";
  PDPA_CHECK(grid.base.timeseries == nullptr) << "RunSweep installs per-cell samplers";
  const bool cluster = grid.nodes > 1;
  // Single-SMP grids always have exactly one (ignored) placement cell axis,
  // so the classic grid shape and group arithmetic are unchanged.
  std::vector<PlacementPolicy> placements = {PlacementPolicy::kRoundRobin};
  if (cluster) {
    PDPA_CHECK(!grid.placements.empty());
    PDPA_CHECK(!grid.base.record_trace) << "CPU traces are single-node only";
    placements = grid.placements;
  }
  std::vector<SweepCell> cells;
  cells.reserve(grid.workloads.size() * grid.loads.size() * grid.policies.size() *
                placements.size() * grid.seeds.size());
  for (WorkloadId workload : grid.workloads) {
    for (double load : grid.loads) {
      for (PolicyKind policy : grid.policies) {
        for (PlacementPolicy placement : placements) {
          for (std::uint64_t seed : grid.seeds) {
            SweepCell cell;
            cell.index = cells.size();
            cell.workload = workload;
            cell.load = load;
            cell.policy = policy;
            cell.seed = seed;
            cell.name = StrFormat("%s_%.2f_%s", WorkloadShortName(workload), load,
                                  PolicyKindName(policy));
            if (cluster) {
              cell.name += StrFormat("_%s", PlacementPolicyShortName(placement));
            }
            if (grid.seeds.size() > 1) {
              cell.name += StrFormat("_s%llu", static_cast<unsigned long long>(seed));
            }
            cell.config = grid.base;
            cell.config.workload = workload;
            cell.config.load = load;
            cell.config.policy = policy;
            cell.config.seed = seed;
            cell.nodes = grid.nodes;
            cell.cpus_per_node = grid.cpus_per_node;
            cell.shards = grid.shards;
            cell.placement = placement;
            if (cluster) {
              // Arrival rates must scale with the whole cluster's capacity.
              cell.config.num_cpus = grid.nodes * grid.cpus_per_node;
            }
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

namespace {

// The shared-prefix state of one (workload, load, seed) group (DESIGN.md
// §12). The first of the group's cells to reach RunCell resolves the job
// trace and — when the sweep builds prefixes and the group is forkable —
// runs and snapshots the prefix, all under the group mutex; the fields are
// immutable afterwards, and every later reader's own acquisition of the
// mutex publishes them.
struct ForkGroup {
  // Ranked between the sweep cursor (held around neither BuildJobs nor the
  // prefix run) and the Registry lock, which prefix building reaches when
  // it registers and snapshots instruments (DESIGN.md §8).
  Mutex group_mutex{PDPA_LOCK_RANK(20)};
  bool built PDPA_GUARDED_BY(group_mutex) = false;
  // Written once before `built` flips; read-only afterwards (so reads after
  // the mutex round-trip are race-free without holding the lock).
  std::shared_ptr<const std::vector<JobSpec>> jobs;
  PrefixSnapshot snapshot;
  bool forkable = false;
};

// Per-worker scratch reused across that worker's cells: the event sink
// string, the event log (keeping its interned vocabulary and 64 KiB write
// buffer across Reset) and the time-series sampler (keeping its vectors'
// capacity across Clear). Recordings are content-deterministic, so reuse
// cannot change output bytes. There is no Registry here: each cell's
// Simulation owns a fresh one, since a recycled registry would carry
// instruments registered by earlier cells as ghost zero-valued entries in
// the next cell's counter snapshot.
struct CellScratch {
  std::ostringstream events;
  EventLog event_log{nullptr};
  TimeSeriesSampler timeseries;
  // The worker's CSV buffer: WriteCsv grows it ahead of its cursor, and
  // each cell copies out exactly its own bytes.
  std::string timeseries_csv;
};

// Runs one cell with its private observability context. `build_prefix`
// says whether the cell's group may run a shared prefix at all; `forked` is
// the cell's slot in the sweep-wide fork flags (distinct per cell, so writes
// need no lock).
void RunCell(const SweepCell& cell, const SweepOptions& options, bool build_prefix, int worker,
             ForkGroup* group, CellScratch* scratch, char* forked, SweepCellResult* out) {
  ExperimentConfig config = cell.config;
  scratch->events.str(std::string());
  scratch->event_log.Reset(options.capture_events ? &scratch->events : nullptr);
  if (options.capture_events) {
    config.event_log = &scratch->event_log;
  }
  scratch->timeseries.Clear();
  if (options.capture_timeseries) {
    config.timeseries = &scratch->timeseries;
  }
  out->cell = cell;
  out->worker = worker;
  if (options.capture_prof) {
    config.profiler = &out->profile;
    out->host_begin_ns = prof::NowNanos();
  }
  {
    ProfScope cell_scope(options.capture_prof ? &out->profile : nullptr, SpanId::kSweepCell);
    bool fork_this_cell = false;
    {
      const MutexLock lock(&group->group_mutex);
      if (!group->built) {
        group->jobs = BuildJobs(config);
        if (build_prefix && PrefixForkable(config, *group->jobs)) {
          group->snapshot = BuildPrefixSnapshot(config, group->jobs);
          group->forkable = true;
        }
        group->built = true;
      }
      fork_this_cell = group->forkable && ForkEligible(config, *group->jobs);
    }
    if (cell.nodes > 1) {
      // Cluster cell: RunCluster owns its observability sinks, so the scratch
      // wiring above is unused; recordings come back by value.
      config.event_log = nullptr;
      config.timeseries = nullptr;
      ClusterCellConfig cluster;
      cluster.nodes = cell.nodes;
      cluster.cpus_per_node = cell.cpus_per_node;
      cluster.placement = cell.placement;
      cluster.shards = cell.shards;
      cluster.capture_counters = options.capture_counters;
      cluster.capture_events = options.capture_events;
      cluster.capture_timeseries = options.capture_timeseries;
      ClusterCellOutput cluster_out = RunClusterCell(config, cluster, group->jobs);
      out->result = std::move(cluster_out.result);
      out->counters = std::move(cluster_out.counters);
      out->events_jsonl = std::move(cluster_out.events_jsonl);
      out->timeseries_csv = std::move(cluster_out.timeseries_csv);
    } else if (fork_this_cell) {
      out->result = RunExperimentFrom(config, group->snapshot);
      *forked = 1;
    } else {
      out->result = RunExperiment(config, group->jobs);
    }
  }
  if (cell.nodes == 1 &&
      (options.capture_counters || options.capture_events || options.capture_timeseries)) {
    // Snapshot and serialize the recordings inside the cell's host window,
    // under their own span, so the profile accounts for the write. (Cluster
    // cells came back serialized from RunClusterCell.)
    ProfScope serialize_scope(options.capture_prof ? &out->profile : nullptr,
                              SpanId::kObsSerialize);
    if (options.capture_counters) {
      out->counters = std::move(out->result.counters);
    }
    if (options.capture_events) {
      scratch->event_log.Flush();  // The log buffers; push bytes out before reading.
      out->events_jsonl = scratch->events.str();
    }
    if (options.capture_timeseries) {
      scratch->timeseries_csv.clear();
      scratch->timeseries.WriteCsv(&scratch->timeseries_csv);
      out->timeseries_csv = std::string(scratch->timeseries_csv);
    }
  }
  if (options.capture_prof) {
    out->host_end_ns = prof::NowNanos();
  }
}

// Marks `cell_index` complete and delivers the progress callback while the
// state mutex is held (callbacks are serialized by contract).
void FinishCell(internal::SweepWorkState* state, const SweepOptions& options, std::size_t total,
                std::size_t cell_index) {
  const MutexLock lock(&state->mutex);
  ++state->done;
  if (options.on_progress) {
    SweepProgress progress;
    progress.done = state->done;
    progress.total = total;
    progress.cell_index = cell_index;
    options.on_progress(progress);
  }
}

}  // namespace

std::vector<SweepCellResult> RunSweep(const SweepGrid& grid, const SweepOptions& options) {
  const std::vector<SweepCell> cells = ExpandGrid(grid);
  std::vector<SweepCellResult> results(cells.size());
  if (options.fork_stats != nullptr) {
    *options.fork_stats = ForkStats{};
  }
  if (cells.empty()) {
    return results;
  }
  // One ForkGroup per (workload, load, seed) combination. The grid's nested
  // order (workload x load x policy x placement x seed) maps a cell to its
  // group by stripping the policy and placement axes out of the index. A
  // single-SMP grid expands with exactly one placement (see ExpandGrid), so
  // num_placements must mirror that rule, not grid.placements.size().
  const std::size_t num_seeds = grid.seeds.size();
  const std::size_t num_placements = grid.nodes > 1 ? grid.placements.size() : 1;
  const std::size_t num_policies = grid.policies.size() * num_placements;
  const std::size_t num_loads = grid.loads.size();
  std::vector<ForkGroup> groups(grid.workloads.size() * num_loads * num_seeds);
  // A group holds num_policies cells. A one-cell group runs cold: a prefix
  // run plus one fork costs more than one cold run. Cluster cells never
  // fork (every node owns a private pre-arrival timeline).
  const bool build_prefix = grid.nodes == 1 && num_policies > 1;
  const auto group_of = [num_seeds, num_policies, num_loads](std::size_t index) {
    const std::size_t seed = index % num_seeds;
    const std::size_t load = (index / (num_seeds * num_policies)) % num_loads;
    const std::size_t workload = index / (num_seeds * num_policies * num_loads);
    return (workload * num_loads + load) * num_seeds + seed;
  };
  std::vector<char> forked(cells.size(), 0);
  internal::SweepWorkState state;
  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs = std::clamp(jobs, 1, static_cast<int>(cells.size()));
  if (jobs == 1) {
    CellScratch scratch;
    for (const SweepCell& cell : cells) {
      RunCell(cell, options, build_prefix, 0, &groups[group_of(cell.index)], &scratch,
              &forked[cell.index], &results[cell.index]);
      FinishCell(&state, options, cells.size(), cell.index);
    }
  } else {
    // The mutex-guarded cursor feeds all workers (one claim per whole
    // simulation, so the lock is noise); each claimed cell writes its result
    // at its own grid index, so result order never depends on scheduling.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      workers.emplace_back([&cells, &results, &options, &state, &groups, &forked, group_of,
                            build_prefix, i] {
        CellScratch scratch;
        for (;;) {
          std::size_t index = 0;
          {
            const MutexLock lock(&state.mutex);
            if (state.next_cell >= cells.size()) {
              return;
            }
            index = state.next_cell++;
          }
          RunCell(cells[index], options, build_prefix, i, &groups[group_of(index)], &scratch,
                  &forked[index], &results[index]);
          FinishCell(&state, options, cells.size(), index);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  if (options.fork_stats != nullptr) {
    // Workers have joined (or the loop ran inline): the groups and flags are
    // quiescent and safe to read from the calling thread.
    ForkStats stats;
    stats.groups = groups.size();
    for (const ForkGroup& group : groups) {
      stats.prefixes_built += group.forkable ? 1 : 0;
    }
    for (const char cell_forked : forked) {
      (cell_forked != 0 ? stats.forked_cells : stats.cold_cells) += 1;
    }
    *options.fork_stats = stats;
  }
  return results;
}

Profiler MergeProfiles(const std::vector<SweepCellResult>& results) {
  Profiler merged;
  for (const SweepCellResult& r : results) {
    merged.Merge(r.profile);
  }
  return merged;
}

namespace {

AggStat Stat(std::vector<double> samples) {
  AggStat stat;
  stat.mean = Mean(samples);
  stat.p50 = Percentile(samples, 50.0);
  stat.p95 = Percentile(std::move(samples), 95.0);
  return stat;
}

}  // namespace

CellAggregate AggregateSeeds(const std::vector<SweepCellResult>& results, std::size_t begin,
                             std::size_t count) {
  PDPA_CHECK_LE(begin + count, results.size());
  CellAggregate aggregate;
  aggregate.replicas = static_cast<int>(count);
  std::vector<double> makespans, max_mls, reallocs;
  std::map<AppClass, std::vector<ClassMetrics>> by_class;
  for (std::size_t i = begin; i < begin + count; ++i) {
    const SweepCellResult& r = results[i];
    makespans.push_back(r.result.metrics.makespan_s);
    max_mls.push_back(r.result.max_ml);
    reallocs.push_back(static_cast<double>(r.result.reallocations));
    aggregate.all_completed = aggregate.all_completed && r.result.completed;
    for (const auto& [app_class, metrics] : r.result.metrics.per_class) {
      by_class[app_class].push_back(metrics);
    }
    for (const auto& [app_class, histogram] : r.result.slowdown) {
      aggregate.per_class[app_class].slowdown.Merge(histogram);
    }
  }
  aggregate.makespan_s = Stat(std::move(makespans));
  aggregate.max_ml = Stat(std::move(max_mls));
  aggregate.reallocations = Stat(std::move(reallocs));
  for (const auto& [app_class, samples] : by_class) {
    ClassAggregate& agg = aggregate.per_class[app_class];
    agg.replicas = static_cast<int>(samples.size());
    const auto column = [&samples](double (*get)(const ClassMetrics&)) {
      std::vector<double> values;
      values.reserve(samples.size());
      for (const ClassMetrics& m : samples) {
        values.push_back(get(m));
      }
      return Stat(std::move(values));
    };
    agg.count = column([](const ClassMetrics& m) { return static_cast<double>(m.count); });
    agg.avg_response_s = column([](const ClassMetrics& m) { return m.avg_response_s; });
    agg.p50_response_s = column([](const ClassMetrics& m) { return m.p50_response_s; });
    agg.p95_response_s = column([](const ClassMetrics& m) { return m.p95_response_s; });
    agg.avg_exec_s = column([](const ClassMetrics& m) { return m.avg_exec_s; });
    agg.avg_wait_s = column([](const ClassMetrics& m) { return m.avg_wait_s; });
    agg.avg_alloc = column([](const ClassMetrics& m) { return m.avg_alloc; });
  }
  return aggregate;
}

namespace {

constexpr char kSweepCsvHeader[] =
    "workload,load,policy,seed,class,jobs,avg_response_s,p50_response_s,p95_response_s,"
    "avg_exec_s,avg_wait_s,avg_cpus,makespan_s,max_ml,reallocations,completed\n";

struct Pick {
  const char* label;
  double (*get)(const AggStat&);
};

constexpr Pick kPicks[] = {
    {"mean", [](const AggStat& s) { return s.mean; }},
    {"p50", [](const AggStat& s) { return s.p50; }},
    {"p95", [](const AggStat& s) { return s.p95; }},
};

void AppendFixed2Cell(std::string* row, double value) {
  AppendFixed(row, value, 2);
  row->push_back(',');
}

// The optional slowdown_p50/p95/p99 cells. Bucket upper bounds carry ~9%
// resolution, so three decimals preserve them without noise digits.
void AppendSlowdownCells(std::string* row, const LogHistogram& histogram) {
  for (const double p : {50.0, 95.0, 99.0}) {
    row->push_back(',');
    AppendFixed(row, histogram.Percentile(p), 3);
  }
}

// `slowdown` null keeps the row byte-identical to the pre-slowdown format.
void AppendReplicaRow(std::string* row, const SweepCellResult& r, AppClass app_class,
                      const ClassMetrics& m, const LogHistogram* slowdown) {
  row->append(WorkloadName(r.cell.workload));
  row->push_back(',');
  AppendFixed2Cell(row, r.cell.load);
  row->append(r.result.policy_name);
  row->push_back(',');
  AppendUint(row, static_cast<unsigned long long>(r.cell.seed));
  row->push_back(',');
  row->append(AppClassName(app_class));
  row->push_back(',');
  AppendInt(row, m.count);
  row->push_back(',');
  AppendFixed2Cell(row, m.avg_response_s);
  AppendFixed2Cell(row, m.p50_response_s);
  AppendFixed2Cell(row, m.p95_response_s);
  AppendFixed2Cell(row, m.avg_exec_s);
  AppendFixed2Cell(row, m.avg_wait_s);
  AppendFixed2Cell(row, m.avg_alloc);
  AppendFixed2Cell(row, r.result.metrics.makespan_s);
  AppendInt(row, r.result.max_ml);
  row->push_back(',');
  AppendInt(row, r.result.reallocations);
  row->push_back(',');
  AppendInt(row, r.result.completed ? 1 : 0);
  if (slowdown != nullptr) {
    AppendSlowdownCells(row, *slowdown);
  }
  row->push_back('\n');
}

void AppendAggregateRow(std::string* row, const SweepCellResult& head,
                        const CellAggregate& aggregate, AppClass app_class,
                        const ClassAggregate& agg, const Pick& pick, bool slowdown_columns) {
  row->append(WorkloadName(head.cell.workload));
  row->push_back(',');
  AppendFixed2Cell(row, head.cell.load);
  row->append(head.result.policy_name);
  row->push_back(',');
  row->append(pick.label);
  row->push_back(',');
  row->append(AppClassName(app_class));
  row->push_back(',');
  AppendFixed2Cell(row, pick.get(agg.count));
  AppendFixed2Cell(row, pick.get(agg.avg_response_s));
  AppendFixed2Cell(row, pick.get(agg.p50_response_s));
  AppendFixed2Cell(row, pick.get(agg.p95_response_s));
  AppendFixed2Cell(row, pick.get(agg.avg_exec_s));
  AppendFixed2Cell(row, pick.get(agg.avg_wait_s));
  AppendFixed2Cell(row, pick.get(agg.avg_alloc));
  AppendFixed2Cell(row, pick.get(aggregate.makespan_s));
  AppendFixed2Cell(row, pick.get(aggregate.max_ml));
  AppendFixed2Cell(row, pick.get(aggregate.reallocations));
  AppendInt(row, aggregate.all_completed ? 1 : 0);
  if (slowdown_columns) {
    // The merged histogram's percentiles are exact regardless of merge
    // grouping, so all three pick rows carry the same distribution values.
    AppendSlowdownCells(row, agg.slowdown);
  }
  row->push_back('\n');
}

}  // namespace

void SweepCsv(const std::vector<SweepCellResult>& results, std::size_t seeds_per_group,
              std::ostream& out, bool slowdown_columns) {
  PDPA_CHECK_GE(seeds_per_group, 1u);
  PDPA_CHECK_EQ(results.size() % seeds_per_group, 0u);
  BufWriter writer(&out);
  if (slowdown_columns) {
    const std::string_view header(kSweepCsvHeader);
    writer.Append(header.substr(0, header.size() - 1));  // drop the newline
    writer.Append(",slowdown_p50,slowdown_p95,slowdown_p99\n");
  } else {
    writer.Append(kSweepCsvHeader);
  }
  std::string row;
  row.reserve(200);
  // Empty stand-in for a class missing from a replica's slowdown map (all
  // its jobs had zero exec time); percentiles read as 0.
  static const LogHistogram kEmptyHistogram;
  for (std::size_t group = 0; group < results.size(); group += seeds_per_group) {
    for (std::size_t i = group; i < group + seeds_per_group; ++i) {
      const SweepCellResult& r = results[i];
      for (const auto& [app_class, m] : r.result.metrics.per_class) {
        row.clear();
        const LogHistogram* slowdown = nullptr;
        if (slowdown_columns) {
          const auto it = r.result.slowdown.find(app_class);
          slowdown = it != r.result.slowdown.end() ? &it->second : &kEmptyHistogram;
        }
        AppendReplicaRow(&row, r, app_class, m, slowdown);
        writer.Append(row);
      }
    }
    if (seeds_per_group <= 1) {
      continue;
    }
    const SweepCellResult& head = results[group];
    const CellAggregate aggregate = AggregateSeeds(results, group, seeds_per_group);
    for (const auto& [app_class, agg] : aggregate.per_class) {
      for (const Pick& pick : kPicks) {
        row.clear();
        AppendAggregateRow(&row, head, aggregate, app_class, agg, pick, slowdown_columns);
        writer.Append(row);
      }
    }
  }
  writer.Flush();
}

}  // namespace pdpa
