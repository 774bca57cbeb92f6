#ifndef KCORE_PERF_METRICS_H_
#define KCORE_PERF_METRICS_H_

#include <cstdint>

#include "perf/perf_counters.h"

namespace kcore {

/// Execution report common to every decomposition engine in this repo.
struct Metrics {
  /// Modeled computation time from the engine's cost model (the number the
  /// benchmark tables report, mirroring the paper's milliseconds columns).
  double modeled_ms = 0.0;
  /// Host wall-clock time actually spent (simulation overhead included).
  double wall_ms = 0.0;
  /// High-watermark of device-memory allocation (Table V).
  uint64_t peak_device_bytes = 0;
  /// Modeled data-loading time, reported separately from computation (the
  /// paper's "LD > 1hr" rows for VETGA are about loading, not compute).
  double load_ms = 0.0;
  /// Modeled-time split of the GPU peel pipeline (all zero for engines that
  /// do not distinguish phases). scan_ms + loop_ms + compact_ms ==
  /// modeled_ms for the single-device GPU peeler.
  double scan_ms = 0.0;     ///< ScanKernel launches (Algorithm 2).
  double loop_ms = 0.0;     ///< LoopKernel launches (Algorithm 3).
  double compact_ms = 0.0;  ///< CompactKernel launches (active-vertex lists).
  /// Loop-phase load imbalance: the time-weighted ratio of slowest-block to
  /// mean-active-block modeled time over all loop launches (sum of
  /// per-launch max block ns divided by sum of per-launch means over the
  /// blocks whose frontier buffer held work at launch). 1.0 = perfectly
  /// balanced; large values mean a few blocks gate every loop launch.
  /// 0.0 when the engine does not measure it.
  double loop_imbalance = 0.0;
  /// Peeling rounds / BSP supersteps executed.
  uint32_t rounds = 0;
  /// Inner iterations (sub-levels, h-index sweeps, frontier steps).
  uint32_t iterations = 0;
  /// Aggregated operation counts.
  PerfCounters counters;

  // Fault-recovery telemetry (resilient drivers only; all zero/false when no
  // fault plan is attached — see cusim/fault_injection.h).
  /// True when part of the decomposition ran on the CPU fallback path after
  /// the device died or exhausted its retry budget. The result is still
  /// exact; this flag reports that the modeled GPU time is partial.
  bool degraded = false;
  /// Transient launch/copy failures absorbed by op-level retry.
  uint32_t retries = 0;
  /// Round-boundary checkpoints of core[]/frontier state taken.
  uint32_t checkpoints_taken = 0;
  /// Rounds rolled back and re-executed after failing invariant validation
  /// (bitflip corruption caught by the post-round check).
  uint32_t levels_reexecuted = 0;
  /// Rounds completed by the CPU PKC warm start instead of the device.
  uint32_t cpu_fallback_levels = 0;
  /// Devices permanently lost mid-decomposition (multi-GPU and cluster: the
  /// lost node's share moves to a survivor; single-GPU: CPU fallback).
  uint32_t devices_lost = 0;
  /// Wall-clock time spent inside recovery machinery: checkpointing,
  /// validation, rollback re-execution, and the CPU fallback.
  double recovery_ms = 0.0;

  // Scale-out telemetry (the cluster engine and its multi-GPU preset, whose
  // free link leaves comm_ms at 0; all zero elsewhere — see
  // cluster/network.h).
  /// Modeled time spent in border-delta exchanges. With comm/compute
  /// overlap enabled only the un-hidden portion also appears in modeled_ms.
  double comm_ms = 0.0;
  /// Serialized bytes the modeled interconnect carried.
  uint64_t comm_bytes = 0;
  /// Aggregated link messages flushed (one per busy link per exchange).
  uint64_t comm_messages = 0;
};

}  // namespace kcore

#endif  // KCORE_PERF_METRICS_H_
