#ifndef KCORE_CORE_MULTI_GPU_PEEL_H_
#define KCORE_CORE_MULTI_GPU_PEEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/gpu_peel_options.h"
#include "cusim/device.h"
#include "graph/csr_graph.h"
#include "perf/decompose_result.h"
#include "perf/trace.h"

namespace kcore {

/// Options for the multi-GPU extension sketched in the paper's §VII: the
/// graph is partitioned among worker GPUs, each peeling its own vertices;
/// degree decrements that cross a partition border are aggregated by a
/// master between sub-rounds, and because aggregated updates can push new
/// border vertices into the k-shell, each round k iterates sub-rounds to a
/// fixpoint. The fleet is a preset of the cluster driver
/// (cluster/cluster_peel.h; defined in kcore_cluster): num_workers nodes of
/// one device each, contiguous ranges, and a free link.
struct MultiGpuOptions {
  /// Number of worker GPUs (vertex ranges are split evenly among them).
  uint32_t num_workers = 4;
  /// Per-worker device configuration (global memory budget applies to each
  /// worker individually — the point of going multi-GPU). Its `pool` also
  /// runs the worker lanes (nullptr = DefaultThreadPool()).
  sim::DeviceOptions worker_device;

  /// Degree-ordered vertex renumbering (src/graph/renumber.h) before
  /// sharding: with the contiguous even split, sorting by degree makes
  /// each worker's range degree-homogeneous, so the fleet's
  /// per-sub-round load spread shrinks on skewed graphs. Same wrap as the
  /// single-GPU engine — remap, peel, permute the core numbers back — so it
  /// composes with compaction, faults, repartitioning, and tracing; cost
  /// lands in wall_ms only.
  bool renumber = false;

  /// Per-worker fault plans (cusim/fault_injection.h grammar): entry i
  /// overrides worker_device.fault_spec for worker i, letting tests kill or
  /// degrade one GPU of the fleet. Shorter vectors leave later workers on
  /// worker_device's spec (and KCORE_FAULTS applies to every worker).
  std::vector<std::string> worker_fault_specs;
  /// Recovery policy under fault injection (inert without a fault plan).
  /// A worker whose device is permanently lost follows the cluster's
  /// node-loss ladder: its range moves to the lightest surviving worker and
  /// the interrupted round re-executes from the last checkpoint; when no
  /// worker survives, the remaining rounds run on CPU PKC (Metrics.degraded).
  ResilienceOptions resilience;

  /// Request lifecycle (common/cancellation.h): non-null makes the master
  /// poll the token/deadline at every round boundary (between k-levels, the
  /// fleet's natural barrier) and return Cancelled / DeadlineExceeded,
  /// releasing every worker's partition within one round. Not owned.
  const CancelContext* cancel = nullptr;

  /// simprof output (see cusim/simprof.h): non-null enables profiling and
  /// receives the fleet's merged timeline on return — the master as pid 0
  /// (round ranges, border exchanges, checkpoint/repartition markers) and
  /// worker w as pid w+1, named "node<w>.dev0" (per-sub-round spans on the
  /// master's modeled clock, plus the worker device's own alloc/copy
  /// events).
  Trace* trace = nullptr;
};

/// Multi-GPU peeling. Returns the usual DecomposeResult where
///  - metrics.rounds     = peeling rounds (k_max + 1),
///  - metrics.iterations = total sub-rounds (border-synchronization steps),
///  - metrics.comm_bytes/comm_messages = border traffic (comm_ms is 0: the
///    link is free),
///  - metrics.peak_device_bytes = max over workers (per-GPU footprint).
[[nodiscard]] StatusOr<DecomposeResult> RunMultiGpuPeel(const CsrGraph& graph,
                                          const MultiGpuOptions& options = {});

}  // namespace kcore

#endif  // KCORE_CORE_MULTI_GPU_PEEL_H_
