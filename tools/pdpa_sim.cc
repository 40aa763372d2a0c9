// pdpa_sim — command-line driver for the NANOS/PDPA simulator.
//
// Run any workload under any policy and inspect the paper's metrics, or
// replay/archive SWF traces and dump Paraver/ASCII execution views. A run
// is a one-cell sweep: the flags shared with pdpa_batch and every output
// file go through tools/sweep_cli.h.
//
// Examples:
//   pdpa_sim --workload w3 --load 1.0 --policy pdpa
//   pdpa_sim --workload w4 --policy equip --untuned --ml 4
//   pdpa_sim --swf_in trace.swf --policy pdpa --view --prv_out run.prv
//   pdpa_sim --workload w2 --load 0.8 --swf_out w2.swf --dry_run
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/qs/swf.h"
#include "src/trace/paraver_writer.h"
#include "src/workload/sweep.h"
#include "tools/sweep_cli.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: pdpa_sim [flags]

workload selection (one of):
  --workload w1|w2|w3|w4   generated workload (default w1)
  --swf_in FILE            replay an SWF trace instead

generator flags:
  --load F                 target machine load fraction, > 0 (default 1.0)
  --seed N                 RNG seed (default 42)
  --untuned                override every request to 30 CPUs
  --swf_out FILE           archive the generated workload as SWF
  --dry_run                generate/archive only, do not simulate

scheduler flags:
  --policy irix|equip|equal_eff|pdpa|dynamic   (default pdpa)
  --queue_order fcfs|sjf   job selection within the queue (default fcfs)
  --ml N                   fixed ML (baselines) / default ML (PDPA), >= 1,
                           default 4
  --cpus N                 usable processors (default 60)
  --nodes N                cluster of N SMP nodes instead of one machine
                           (default 1; the machine is then nodes x
                           cpus_per_node and --cpus is ignored)
  --cpus_per_node N        processors per cluster node (default 60)
  --placement rr|mf|ll     cluster placement policy: round-robin, most-free,
                           least-loaded (default rr)
  --shards N               worker event loops for the cluster engine
                           (default 1, at most --nodes; outputs are
                           shard-count invariant)
  --target_eff F           PDPA target efficiency, in (0, high_eff]
                           (default 0.7)
  --high_eff F             PDPA high efficiency, <= 1.5 (default 0.9)
  --step N                 PDPA allocation step, >= 1 (default 4)
  --no_relative_speedup    disable PDPA's RelativeSpeedup test (ablation)
  --no_coordination        disable PDPA's coordinated ML rule (ablation)
  --dynamic_target         load-adaptive target efficiency

output flags:
  --view                   print the ASCII execution view (Fig. 5 style)
  --prv_out FILE           write a Paraver trace of the execution
  --pcf_out FILE           write the companion Paraver config (names/colors)
  --ml_timeline            print the multiprogramming level over time
  --help                   this text

flight recorder (observability):
  --events_out FILE        write the structured event log (JSONL; feed to
                           pdpa_report for per-app timelines)
  --timeseries_out FILE    write the per-quantum allocation time-series (CSV)
  --trace_out FILE         write a Chrome/Perfetto trace (trace-event JSON):
                           job lifecycle tracks + allocation counters,
                           reconstructed from the event log (load the file
                           in ui.perfetto.dev or chrome://tracing)
  --prof                   print the host-time self-profiler breakdown
                           (span hit counts are deterministic; ns are not)
  --prof_out FILE          write the profiler spans as JSONL
  --counters               print the counters-registry snapshot after the run
  --counters_out FILE      write the counters-registry snapshot to FILE
  --log_level LEVEL        debug|info|warning|error|none (default warning);
                           log lines are stamped with simulation time
)";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  SweepCli cli;
  cli.options.jobs = 1;
  if (!ParseSharedFlags(&flags, &cli)) {
    return 2;
  }
  SweepGrid& grid = cli.grid;
  ExperimentConfig& config = grid.base;

  const std::string workload = flags.GetString("workload", "w1");
  if (!ParseWorkloadId(workload, &grid.workloads.front())) {
    std::fprintf(stderr, "unknown --workload %s\n", workload.c_str());
    return 2;
  }
  grid.loads = {flags.GetDouble("load", 1.0)};
  const std::string policy = flags.GetString("policy", "pdpa");
  if (!ParsePolicyKind(policy, &grid.policies.front())) {
    std::fprintf(stderr, "unknown --policy %s\n", policy.c_str());
    return 2;
  }
  const std::string queue_order = flags.GetString("queue_order", "fcfs");
  if (queue_order == "sjf") {
    config.queue_order = QueueOrder::kShortestDemandFirst;
  } else if (queue_order != "fcfs") {
    std::fprintf(stderr, "unknown --queue_order %s\n", queue_order.c_str());
    return 2;
  }
  config.multiprogramming_level = flags.GetInt("ml", 4);
  config.num_cpus = flags.GetInt("cpus", 60);
  config.pdpa.target_eff = flags.GetDouble("target_eff", 0.7);
  config.pdpa.high_eff = flags.GetDouble("high_eff", 0.9);
  config.pdpa.step = flags.GetInt("step", 4);
  config.pdpa.use_relative_speedup = !flags.GetBool("no_relative_speedup", false);
  config.pdpa.dynamic_target = flags.GetBool("dynamic_target", false);
  config.pdpa_coordinated_ml = !flags.GetBool("no_coordination", false);
  if (!RequirePositive("load", grid.loads.front()) ||
      !RequireAtLeast("ml", config.multiprogramming_level, 1) ||
      !RequireAtLeast("cpus", config.num_cpus, 1) || !RequireAtLeast("step", config.pdpa.step, 1)) {
    return 2;
  }
  if (!(config.pdpa.high_eff <= 1.5)) {
    std::fprintf(stderr, "--high_eff must be <= 1.5 (got %g)\n", config.pdpa.high_eff);
    return 2;
  }
  if (!(config.pdpa.target_eff > 0.0 && config.pdpa.target_eff <= config.pdpa.high_eff)) {
    std::fprintf(stderr, "--target_eff must be > 0 and <= --high_eff %g (got %g)\n",
                 config.pdpa.high_eff, config.pdpa.target_eff);
    return 2;
  }
  if (grid.placements.size() != 1) {
    std::fprintf(stderr, "--placement takes one policy in pdpa_sim (see pdpa_batch)\n");
    return 2;
  }

  const std::string swf_in = flags.GetString("swf_in", "");
  if (!swf_in.empty()) {
    std::ifstream in(swf_in);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", swf_in.c_str());
      return 2;
    }
    std::string error;
    if (!ReadSwf(in, &config.jobs_override, &error)) {
      std::fprintf(stderr, "SWF parse error in %s: %s\n", swf_in.c_str(), error.c_str());
      return 2;
    }
  }

  const bool want_view = flags.GetBool("view", false);
  const std::string prv_out = flags.GetString("prv_out", "");
  const std::string pcf_out = flags.GetString("pcf_out", "");
  const bool want_ml_timeline = flags.GetBool("ml_timeline", false);
  config.record_trace = want_view || !prv_out.empty();
  const std::string swf_out = flags.GetString("swf_out", "");
  const bool dry_run = flags.GetBool("dry_run", false);
  if (!CheckFlags(flags)) {
    return 2;
  }
  // Trace recording and queue order are wired through a single machine's
  // RM; a cluster cell runs one RM per node.
  if (grid.nodes > 1 && (config.record_trace || !pcf_out.empty() || want_ml_timeline ||
                         config.queue_order != QueueOrder::kFcfs)) {
    std::fprintf(stderr,
                 "--view/--prv_out/--pcf_out/--ml_timeline/--queue_order sjf are single-node "
                 "only (incompatible with --nodes)\n");
    return 2;
  }

  if (!swf_out.empty() || dry_run) {
    const std::shared_ptr<const std::vector<JobSpec>> jobs =
        BuildJobs(ExpandGrid(grid).front().config);
    if (!swf_out.empty()) {
      std::ofstream out(swf_out);
      WriteSwf(*jobs, out, WorkloadName(grid.workloads.front()));
      std::printf("wrote %zu jobs to %s\n", jobs->size(), swf_out.c_str());
    }
    if (dry_run) {
      return 0;
    }
  }

  if (!PreflightOutputs(cli.outputs)) {
    return 2;
  }
  const std::vector<SweepCellResult> results = RunCliSweep(cli);
  const ExperimentResult& result = results.front().result;
  std::printf("policy %s, %d jobs, makespan %.1f s, peak %sML %d%s\n", result.policy_name.c_str(),
              result.metrics.jobs, result.metrics.makespan_s, grid.nodes > 1 ? "node " : "",
              result.max_ml, result.completed ? "" : "  [CUTOFF HIT]");
  if (grid.nodes > 1) {
    // RunCluster runs at most one shard per node.
    std::printf("cluster: %d nodes x %d cpus, %d shard(s)\n", grid.nodes, grid.cpus_per_node,
                std::min(grid.shards, grid.nodes));
  }
  if (config.record_trace) {
    std::printf("migrations %lld, avg burst %.0f ms, utilization %.0f%%\n",
                result.trace_stats.migrations, result.trace_stats.avg_burst_ms,
                result.utilization * 100.0);
  }
  std::printf("%-10s %6s %12s %12s %10s %10s\n", "class", "jobs", "response(s)", "exec(s)",
              "wait(s)", "avg cpus");
  for (const auto& [app_class, metrics] : result.metrics.per_class) {
    std::printf("%-10s %6d %12.1f %12.1f %10.1f %10.1f\n", AppClassName(app_class),
                metrics.count, metrics.avg_response_s, metrics.avg_exec_s, metrics.avg_wait_s,
                metrics.avg_alloc);
  }
  if (want_view) {
    std::printf("\n%s", result.ascii_view.c_str());
  }
  if (want_ml_timeline) {
    std::printf("\nmultiprogramming level timeline (s, jobs):\n");
    for (const auto& [when, ml] : result.ml_timeline_s) {
      std::printf("  %8.1f %d\n", when, ml);
    }
  }
  if (!prv_out.empty()) {
    std::ofstream out(prv_out);
    out << result.paraver_trace;
    std::printf("\nParaver trace written to %s\n", prv_out.c_str());
  }
  if (!pcf_out.empty()) {
    std::ofstream out(pcf_out);
    WriteParaverConfig(result.metrics.jobs, out);
    std::printf("Paraver config written to %s\n", pcf_out.c_str());
  }
  return WriteSweepOutputs(cli.outputs, "pdpa_sim", results, stdout) ? 0 : 2;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
