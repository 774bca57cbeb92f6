#include "cpu/pkc.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "perf/cost_model.h"
#include "perf/modeled_clock.h"

namespace kcore {

namespace {

DecomposeResult RunPkcImpl(const CsrGraph& graph, const PkcOptions& options,
                           std::vector<uint32_t> deg0, uint32_t start_k,
                           ThreadPool& pool) {
  WallTimer timer;
  const VertexId n = graph.NumVertices();
  const uint32_t num_threads = options.num_threads;
  DecomposeResult result;
  ModeledClock clock(CpuCostModel());

  std::vector<uint32_t> deg = std::move(deg0);
  KCORE_CHECK_EQ(deg.size(), static_cast<size_t>(n));
  std::atomic<uint64_t> removed{0};
  // Enqueue-once claim flags. PKC overlaps one lane's loop phase with
  // another lane's scan phase (its point is having no intra-round barrier),
  // so a vertex decremented to k by a loop can also be seen as degree-k by a
  // later scan; the flag guarantees a single collector. The paper's GPU
  // variant gets this for free from the barrier between its two kernels.
  //
  // Warm start (start_k > 0): `deg` is a round-boundary snapshot, so every
  // vertex with deg < start_k was peeled in an earlier round and its deg is
  // already its final core number — mark it claimed/removed up front.
  std::vector<uint8_t> claimed(n, 0);
  uint64_t already_removed = 0;
  if (start_k > 0) {
    for (VertexId v = 0; v < n; ++v) {
      if (deg[v] < start_k) {
        claimed[v] = 1;
        ++already_removed;
      }
    }
    removed.store(already_removed, std::memory_order_relaxed);
  }

  // The scan universe: initially all unpeeled vertices; after compaction,
  // only the survivors (kCompacted). Stored as an explicit list so scans
  // touch just `universe_size` entries.
  std::vector<VertexId> universe(n);
  uint64_t universe_size = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (claimed[v] == 0) universe[universe_size++] = v;
  }

  std::vector<PerfCounters> lanes(num_threads);
  std::vector<std::vector<VertexId>> local_buffers(num_threads);
  uint64_t peak_local_buffer_items = 0;

  uint32_t k = start_k;
  while (removed.load(std::memory_order_relaxed) < n) {
    for (auto& lane : lanes) lane = PerfCounters();

    auto round_fn = [&](uint32_t lane) {
      PerfCounters& c = lanes[lane];
      std::vector<VertexId>& local = local_buffers[lane];
      local.clear();

      // Scan phase: this lane's slice of the universe.
      const uint64_t chunk = (universe_size + num_threads - 1) / num_threads;
      const uint64_t begin = static_cast<uint64_t>(lane) * chunk;
      const uint64_t end = std::min<uint64_t>(begin + chunk, universe_size);
      for (uint64_t i = begin; i < end; ++i) {
        const VertexId v = universe[i];
        ++c.vertices_scanned;
        ++c.global_reads;
        ++c.lane_ops;
        if (std::atomic_ref<uint32_t>(deg[v]).load(
                std::memory_order_relaxed) == k) {
          ++c.global_atomics;
          if (std::atomic_ref<uint8_t>(claimed[v]).exchange(
                  1, std::memory_order_relaxed) == 0) {
            local.push_back(v);
            ++c.buffer_appends;
            ++c.global_writes;
          }
        }
      }

      // Loop phase: drain the private buffer with no synchronization.
      uint64_t processed = 0;
      size_t cursor = 0;
      while (cursor < local.size()) {
        const VertexId v = local[cursor++];
        ++processed;
        ++c.global_reads;
        for (VertexId u : graph.Neighbors(v)) {
          ++c.edges_traversed;
          ++c.global_reads;
          ++c.lane_ops;
          const uint32_t du = std::atomic_ref<uint32_t>(deg[u]).load(
              std::memory_order_relaxed);
          if (du > k) {
            const uint32_t old = std::atomic_ref<uint32_t>(deg[u]).fetch_sub(
                1, std::memory_order_relaxed);
            ++c.global_atomics;
            if (old == k + 1) {
              ++c.global_atomics;
              if (std::atomic_ref<uint8_t>(claimed[u]).exchange(
                      1, std::memory_order_relaxed) == 0) {
                local.push_back(u);
                ++c.buffer_appends;
                ++c.global_writes;
              }
            } else if (old <= k) {
              std::atomic_ref<uint32_t>(deg[u]).fetch_add(
                  1, std::memory_order_relaxed);
              ++c.global_atomics;
            }
          }
        }
      }
      removed.fetch_add(processed, std::memory_order_relaxed);
    };

    if (num_threads == 1) {
      round_fn(0);
      clock.AddParallelPhase({lanes.data(), 1}, /*ends_with_barrier=*/false);
    } else {
      pool.RunLanes(num_threads, round_fn);
      clock.AddParallelPhase({lanes.data(), lanes.size()});
    }
    for (const auto& lane : lanes) result.metrics.counters += lane;
    for (const auto& local : local_buffers) {
      peak_local_buffer_items =
          std::max<uint64_t>(peak_local_buffer_items, local.capacity());
    }

    // Compaction (PKC vs PKC-o): once the alive fraction is small, shrink
    // the scan universe to the survivors; recompact when it halves again.
    if (options.variant == PkcVariant::kCompacted) {
      const uint64_t alive = n - removed.load(std::memory_order_relaxed);
      const bool first_trigger =
          universe_size == n &&
          alive < static_cast<uint64_t>(options.compact_threshold * n);
      const bool re_trigger = universe_size < n && alive < universe_size / 2;
      if ((first_trigger || re_trigger) && alive < universe_size) {
        PerfCounters compact_cost;
        uint64_t write = 0;
        for (uint64_t i = 0; i < universe_size; ++i) {
          ++compact_cost.vertices_scanned;
          ++compact_cost.global_reads;
          if (deg[universe[i]] > k) {
            universe[write++] = universe[i];
            ++compact_cost.global_writes;
          }
        }
        universe_size = write;
        clock.AddSerial(compact_cost);
        result.metrics.counters += compact_cost;
      }
    }

    ++result.metrics.rounds;
    ++k;
  }

  result.core = std::move(deg);
  result.metrics.wall_ms = timer.ElapsedMillis();
  result.metrics.modeled_ms = clock.ms();
  result.metrics.peak_device_bytes =
      graph.MemoryBytes() + n * sizeof(uint32_t) +
      (options.variant == PkcVariant::kCompacted ? n * sizeof(VertexId) : 0) +
      peak_local_buffer_items * sizeof(VertexId);
  return result;
}

}  // namespace

DecomposeResult RunPkc(const CsrGraph& graph, const PkcOptions& options) {
  KCORE_CHECK_GE(options.num_threads, 1u);
  return RunPkcImpl(graph, options, graph.DegreeArray(), /*start_k=*/0,
                    DefaultThreadPool());
}

DecomposeResult RunPkcSerial(const CsrGraph& graph, PkcVariant variant) {
  PkcOptions options;
  options.variant = variant;
  options.num_threads = 1;
  return RunPkcImpl(graph, options, graph.DegreeArray(), /*start_k=*/0,
                    DefaultThreadPool());
}

DecomposeResult ResumePkc(const CsrGraph& graph, std::vector<uint32_t> deg,
                          uint32_t start_k, ThreadPool& pool) {
  return RunPkcImpl(graph, PkcOptions(), std::move(deg), start_k, pool);
}

}  // namespace kcore
