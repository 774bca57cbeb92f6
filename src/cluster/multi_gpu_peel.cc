// RunMultiGpuPeel (core/multi_gpu_peel.h) as a preset of the cluster
// driver: one device per node, the same ceil(n/M) contiguous ranges, and a
// free link.
#include "core/multi_gpu_peel.h"

#include "cluster/cluster_peel.h"
#include "common/timer.h"
#include "graph/renumber.h"

namespace kcore {

StatusOr<DecomposeResult> RunMultiGpuPeel(const CsrGraph& graph,
                                          const MultiGpuOptions& options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.renumber) {
    // Degree-ordered renumbering wrap (see GpuPeelOptions::renumber): the
    // fleet peels the relabeled CSR, whose contiguous shards are
    // degree-homogeneous, and the core numbers are permuted back at the
    // end. Remap cost lands in wall_ms only.
    WallTimer total;
    const Renumbering rn = DegreeOrderRenumber(graph);
    MultiGpuOptions inner_options = options;
    inner_options.renumber = false;
    KCORE_ASSIGN_OR_RETURN(DecomposeResult result,
                           RunMultiGpuPeel(rn.graph, inner_options));
    result.core = rn.ToOriginal(result.core);
    result.metrics.wall_ms = total.ElapsedMillis();
    return result;
  }
  ClusterOptions cluster;
  cluster.num_nodes = options.num_workers;
  cluster.devices_per_node = 1;
  cluster.partition = PartitionStrategy::kContiguous;
  cluster.network.link_latency_us = 0.0;
  cluster.network.link_bandwidth_gbps = 0.0;
  cluster.node_device = options.worker_device;
  cluster.node_fault_specs = options.worker_fault_specs;
  cluster.resilience = options.resilience;
  cluster.cancel = options.cancel;
  cluster.trace = options.trace;
  cluster.pool = options.worker_device.pool;
  return RunClusterPeel(graph, cluster);
}

}  // namespace kcore
