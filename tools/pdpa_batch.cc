// pdpa_batch — run the full evaluation grid (workloads x loads x policies x
// seeds) and emit one CSV row per (cell, application class), ready for
// plotting. Cells run concurrently on a worker pool (--jobs); output is in
// deterministic grid order, byte-identical to a serial run.
//
// Usage:
//   pdpa_batch                          # the paper's full grid to stdout
//   pdpa_batch --workloads w1,w3 --loads 0.6,1.0 --policies equip,pdpa
//   pdpa_batch --seed 7 --untuned
//   pdpa_batch --seeds 8 --jobs 8       # 8 replicas per cell, 8 workers
//   pdpa_batch --events_out ev_ --timeseries_out ts_   # per-cell recordings
//   pdpa_batch --counters               # per-cell counter dumps to stderr
//   pdpa_batch --counters_out c_        # ... or to c_<cell>.txt files
//   pdpa_batch --jobs 8 --progress      # completion ticker on stderr
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/strings.h"
#include "src/workload/sweep.h"
#include "tools/sweep_cli.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: pdpa_batch [flags]

grid axes:
  --workloads LIST         comma list of w1..w4 (default w1,w2,w3,w4)
  --loads LIST             comma list of load fractions > 0
                           (default 0.6,0.8,1.0)
  --policies LIST          comma list of irix,equip,equal_eff,pdpa,dynamic
                           (default irix,equip,equal_eff,pdpa)
  --seed N                 first RNG seed (default 42)
  --seeds N                replicas per cell under consecutive seeds
                           (default 1); adds per-class mean/p50/p95 rows
  --untuned                override every request to 30 CPUs

cluster (nodes > 1 runs every cell on a cluster of SMPs):
  --nodes N                cluster nodes (default 1 = single 60-CPU SMP)
  --cpus_per_node N        processors per node (default 60); the machine
                           is nodes x cpus_per_node
  --placement LIST         comma list of rr,mf,ll placement policies,
                           swept as a grid axis (default rr); the CSV
                           policy column reads "<policy>@<placement>"
  --shards N               worker event loops per cluster cell (default 1;
                           outputs are shard-count invariant)

execution:
  --jobs N                 worker threads (default: hardware concurrency)
  --progress               completion ticker on stderr

output (CSV on stdout):
  --slowdown               append slowdown_p50/p95/p99 columns (per-replica
                           and merged-across-replica percentiles)

flight recorder (per-cell files, <prefix><cell>.<ext>):
  --events_out P           event logs (JSONL)
  --timeseries_out P       time-series (CSV)
  --counters_out P         counter snapshots (TXT)
  --counters               per-cell counter dumps to stderr

profiling & tracing:
  --trace_out FILE         write one Chrome/Perfetto trace of the whole
                           sweep: per-cell sim-time tracks, plus host-time
                           worker spans when --prof or --prof_out is set
  --prof                   print the merged host-time profiler breakdown on
                           stderr (hit counts deterministic; ns are not)
  --prof_out FILE          write the merged profiler spans as JSONL
  --log_level LEVEL        debug|info|warning|error|none (default warning)
  --help                   this text
)";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  SweepCli cli;
  cli.outputs.cell_prefixes = true;
  if (!ParseSharedFlags(&flags, &cli)) {
    return 2;
  }
  SweepGrid& grid = cli.grid;

  grid.workloads.clear();
  for (const std::string& token :
       SplitTokens(flags.GetString("workloads", "w1,w2,w3,w4"), ',')) {
    WorkloadId workload = WorkloadId::kW1;
    if (!ParseWorkloadId(token, &workload)) {
      std::fprintf(stderr, "unknown --workloads entry %s\n", token.c_str());
      return 2;
    }
    grid.workloads.push_back(workload);
  }
  grid.loads.clear();
  for (const std::string& token : SplitTokens(flags.GetString("loads", "0.6,0.8,1.0"), ',')) {
    double load = 0;
    if (!ParseDouble(token, &load)) {
      std::fprintf(stderr, "bad --loads entry %s\n", token.c_str());
      return 2;
    }
    if (!RequirePositive("loads", load)) {
      return 2;
    }
    grid.loads.push_back(load);
  }
  grid.policies.clear();
  for (const std::string& token :
       SplitTokens(flags.GetString("policies", "irix,equip,equal_eff,pdpa"), ',')) {
    PolicyKind policy = PolicyKind::kPdpa;
    if (!ParsePolicyKind(token, &policy)) {
      std::fprintf(stderr, "unknown --policies entry %s\n", token.c_str());
      return 2;
    }
    grid.policies.push_back(policy);
  }
  // Replication: run every (workload, load, policy) cell under `--seeds`
  // consecutive seeds starting at --seed, and append per-class
  // mean/p50/p95 aggregate rows.
  const int num_seeds = flags.GetInt("seeds", 1);
  if (!RequireAtLeast("seeds", num_seeds, 1)) {
    return 2;
  }
  const std::uint64_t seed = grid.seeds.front();
  grid.seeds.clear();
  for (int i = 0; i < num_seeds; ++i) {
    grid.seeds.push_back(seed + static_cast<std::uint64_t>(i));
  }

  // Worker threads; 0 (the default) auto-detects hardware concurrency.
  cli.options.jobs = flags.GetInt("jobs", 0);
  const bool want_slowdown = flags.GetBool("slowdown", false);
  // Completion ticker for long grids. The engine serializes on_progress
  // under its progress mutex, so stderr lines never interleave.
  std::vector<SweepCell> cell_names;
  if (flags.GetBool("progress", false)) {
    cell_names = ExpandGrid(grid);
    cli.options.on_progress = [&cell_names](const SweepProgress& progress) {
      std::fprintf(stderr, "[%zu/%zu] %s\n", progress.done, progress.total,
                   cell_names[progress.cell_index].name.c_str());
    };
  }
  if (!CheckFlags(flags) || !PreflightOutputs(cli.outputs)) {
    return 2;
  }

  const std::vector<SweepCellResult> results = RunCliSweep(cli);
  SweepCsv(results, grid.seeds.size(), std::cout, want_slowdown);
  std::cout.flush();
  return WriteSweepOutputs(cli.outputs, "pdpa_batch", results, stderr) ? 0 : 2;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
