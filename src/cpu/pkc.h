#ifndef KCORE_CPU_PKC_H_
#define KCORE_CPU_PKC_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/csr_graph.h"
#include "perf/decompose_result.h"

namespace kcore {

/// Which PKC variant to run (Kabir & Madduri; paper §II-A).
enum class PkcVariant {
  /// PKC-o: thread-local buffers remove ParK's sub-level barriers, but every
  /// round still scans the full degree array.
  kOriginal,
  /// PKC: additionally compacts the set of still-alive vertices once most
  /// of the graph has been peeled, so late rounds scan only survivors —
  /// the difference that makes PKC several times faster on high-k_max
  /// graphs (Table IV: indochina-2004, Serial PKC-o 64s vs Serial PKC 3s).
  kCompacted,
};

struct PkcOptions {
  PkcVariant variant = PkcVariant::kCompacted;
  /// Logical worker threads (48 on the paper's server; 1 = serial).
  uint32_t num_threads = 48;
  /// Alive-fraction threshold that triggers compaction (kCompacted only).
  double compact_threshold = 0.02;
};

/// PKC peeling: per round k each thread scans its partition of the degree
/// array into a private local buffer, then drains that buffer as a stack
/// (removing vertices and appending newly-degree-k neighbors) with no
/// intra-round synchronization. One barrier per round.
DecomposeResult RunPkc(const CsrGraph& graph, const PkcOptions& options = {});

/// Serial convenience wrappers (Table IV columns).
DecomposeResult RunPkcSerial(const CsrGraph& graph,
                             PkcVariant variant = PkcVariant::kCompacted);

/// Warm start: finishes a decomposition someone else began. `deg` is a
/// round-boundary snapshot taken after all rounds < `start_k` completed —
/// every vertex with deg[v] < start_k is final (deg[v] is its core number)
/// and survivors carry their current induced degrees. This is the CPU
/// fallback path of the resilient GPU peel drivers: they hand over their
/// last verified checkpoint when the device dies mid-decomposition, and the
/// returned core array equals what an uninterrupted run would produce.
/// Runs the default PkcOptions on `pool`, the caller's host threads: a
/// driver given its own pool must not fall back onto DefaultThreadPool(),
/// which runs one batch at a time and may be busy with another caller's.
DecomposeResult ResumePkc(const CsrGraph& graph, std::vector<uint32_t> deg,
                          uint32_t start_k, ThreadPool& pool);

}  // namespace kcore

#endif  // KCORE_CPU_PKC_H_
