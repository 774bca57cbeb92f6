#ifndef KCORE_CLUSTER_CLUSTER_PEEL_H_
#define KCORE_CLUSTER_CLUSTER_PEEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "cluster/network.h"
#include "cluster/partition.h"
#include "core/gpu_peel_options.h"
#include "cusim/device.h"
#include "graph/csr_graph.h"
#include "perf/decompose_result.h"
#include "perf/trace.h"

namespace kcore {

/// Options for the simulated multi-node engine (DESIGN.md §14): N nodes ×
/// M devices peel a partitioned graph; degree decrements that cross a node
/// border are aggregated per vertex, priced per link, and exchanged through
/// the modeled network between sub-rounds. Round k iterates sub-rounds
/// until no node removes a vertex and no border delta lands. This is the
/// repository's only sub-round fixpoint: RunMultiGpuPeel is its N×1 preset
/// with contiguous ranges and a free link.
struct ClusterOptions {
  /// Cluster shape. Vertices are partitioned among nodes; each node splits
  /// its share contiguously among its devices.
  uint32_t num_nodes = 2;
  uint32_t devices_per_node = 1;

  /// How the vertex set is divided among nodes (cluster/partition.h).
  PartitionStrategy partition = PartitionStrategy::kDegreeBalanced;

  /// Interconnect cost model (cluster/network.h). Only moves the modeled
  /// clock; coreness is bit-identical under any setting.
  NetworkOptions network;

  /// Comm/compute overlap: the exchange of sub-round s is charged against
  /// the compute of sub-round s+1 (max instead of sum) — modeling nodes
  /// that peel their interior while border deltas are in flight, since an
  /// incoming delta only touches border masters, which the next sub-round's
  /// scan is the first to re-read. Host execution order is unchanged, so
  /// results are bit-identical with overlap on or off; only modeled_ms and
  /// the comm spans move.
  bool overlap = true;

  /// Per-device configuration, applied to every device of every node.
  sim::DeviceOptions node_device;
  /// Per-node fault plans (cusim/fault_injection.h grammar): entry i
  /// overrides node_device.fault_spec for every device of node i. Shorter
  /// vectors leave later nodes on node_device's spec.
  std::vector<std::string> node_fault_specs;
  /// Recovery policy (inert without a fault plan). A node whose device is
  /// lost has its whole share repartitioned onto the lightest survivor and
  /// the interrupted round re-executed from the checkpoint; with no
  /// survivors the remaining rounds run on CPU PKC (Metrics.degraded).
  ResilienceOptions resilience;

  /// Request lifecycle: polled at round boundaries (the cluster barrier).
  const CancelContext* cancel = nullptr;

  /// simprof output: master pid 0 (rounds, one border_exchange span per
  /// sub-round that moved entries, recovery markers); device d of node n
  /// gets pid 1 + n*M + d ("node<n>.dev<d>") with per-sub-round compute
  /// spans plus the device's own alloc/copy events.
  Trace* trace = nullptr;

  /// Thread pool running the node lanes; nullptr = DefaultThreadPool().
  /// A 1-thread pool makes the whole run single-threaded (determinism
  /// tests). Not owned.
  ThreadPool* pool = nullptr;
};

/// Multi-node peeling. Returns the usual DecomposeResult where
///  - metrics.rounds        = peeling rounds (k_max + 1),
///  - metrics.iterations    = total sub-rounds (border exchanges),
///  - metrics.comm_ms/comm_bytes/comm_messages = network totals,
///  - metrics.peak_device_bytes = max over all devices of the cluster.
[[nodiscard]] StatusOr<DecomposeResult> RunClusterPeel(
    const CsrGraph& graph, const ClusterOptions& options = {});

}  // namespace kcore

#endif  // KCORE_CLUSTER_CLUSTER_PEEL_H_
