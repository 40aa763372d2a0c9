#include "src/workload/cluster_cell.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/time_types.h"
#include "src/metrics/metrics.h"

namespace pdpa {

ClusterCellOutput RunClusterCell(const ExperimentConfig& config, const ClusterCellConfig& cluster,
                                 std::shared_ptr<const std::vector<JobSpec>> jobs) {
  PDPA_CHECK(jobs != nullptr);
  PDPA_CHECK_GE(cluster.nodes, 1);
  PDPA_CHECK_GE(cluster.cpus_per_node, 1);
  PDPA_CHECK_EQ(config.num_cpus, cluster.nodes * cluster.cpus_per_node)
      << "cluster cell num_cpus must equal nodes * cpus_per_node";
  PDPA_CHECK(!config.record_trace) << "CPU-ownership traces are per-node; not supported "
                                      "in cluster cells";
  PDPA_CHECK(config.event_log == nullptr && config.timeseries == nullptr)
      << "cluster cells own their sinks; use ClusterCellConfig capture flags";

  ClusterOptions options;
  options.num_nodes = cluster.nodes;
  options.cpus_per_node = cluster.cpus_per_node;
  options.placement = cluster.placement;
  options.make_policy = [&config] { return MakePolicy(config); };
  options.rm_params = config.rm;
  options.seed = config.seed;
  options.shards = cluster.shards;
  options.max_sim_time = config.max_sim_time;
  options.profiler = config.profiler;
  options.capture_events = cluster.capture_events;
  options.capture_timeseries = cluster.capture_timeseries;

  ClusterResult run = RunCluster(*jobs, options);

  ClusterCellOutput out;
  out.result.policy_name =
      MakePolicy(config)->name() + "@" + PlacementPolicyShortName(cluster.placement);
  out.result.completed = run.completed;
  out.result.sim_end_s = TimeToSeconds(run.end_time);
  out.result.metrics = ComputeMetrics(run.outcomes, run.alloc_integral_us);
  out.result.max_ml = run.max_node_running;
  out.result.reallocations = run.total_reallocations;
  // Same observation rule as QueuingSystem::OnJobFinish; bucket counts are
  // insertion-order independent, so the merged completion order is fine.
  for (const JobOutcome& outcome : run.outcomes) {
    const double exec_s = outcome.ExecSeconds();
    if (exec_s > 0.0) {
      out.result.slowdown[outcome.app_class].Observe(outcome.ResponseSeconds() / exec_s);
    }
  }
  out.result.outcomes = std::move(run.outcomes);
  if (cluster.capture_counters) {
    out.counters = std::move(run.counters);
  }
  out.events_jsonl = std::move(run.events_jsonl);
  out.timeseries_csv = std::move(run.timeseries_csv);
  return out;
}

}  // namespace pdpa
