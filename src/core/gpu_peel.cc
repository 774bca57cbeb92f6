#include "core/gpu_peel.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "core/resilience.h"
#include "cpu/pkc.h"
#include "cpu/xiang.h"
#include "cusim/annotations.h"
#include "cusim/atomics.h"
#include "cusim/warp_scan.h"
#include "graph/renumber.h"

namespace kcore {

namespace {

using sim::AtomicAdd;
using sim::AtomicSub;
using sim::GlobalLoad;
using sim::GlobalStore;
using sim::kWarpSize;
using sim::MemSpace;
using sim::WarpCtx;

/// Device pointers and launch-invariant configuration shared by the kernels
/// of one decomposition run.
struct KernelCtx {
  const EdgeIndex* offsets = nullptr;
  const VertexId* neighbors = nullptr;
  uint32_t* deg = nullptr;
  VertexId* buf = nullptr;       ///< num_blocks * capacity slots.
  uint64_t* buf_e = nullptr;     ///< Per-block buf[i].e handoff (scan->loop).
  uint64_t* gpu_count = nullptr;
  uint32_t* overflow = nullptr;  ///< Sticky overflow flag.
  uint64_t capacity = 0;         ///< Per-block buffer capacity (IDs).
  VertexId num_vertices = 0;
  /// Active-vertex compaction state (mutated by the host between rounds):
  /// when `use_active`, the scan sweeps active[0, active_size) instead of
  /// [0, num_vertices). `active_out`/`active_count` are CompactKernel's
  /// output array and its global append cursor.
  const VertexId* active = nullptr;
  VertexId* active_out = nullptr;
  uint64_t* active_count = nullptr;
  uint64_t active_size = 0;
  bool use_active = false;
  /// Single-k direct mining (GpuSingleKCore): the scan collects deg < k
  /// (every vertex Xiang's algorithm seeds its deletion stack with) instead
  /// of deg == k, and the loop then runs with threshold k-1 — the same
  /// skip/append/rollback boundary shifted by one.
  bool scan_below = false;
  bool ring = false;
  bool sm = false;               ///< Shared-memory buffering enabled.
  uint32_t shared_capacity = 0;  ///< n_B (only when sm).
  AppendStrategy append = AppendStrategy::kAtomic;
  /// Loop-phase expansion granularity (kWarp = the unchanged Alg. 3 path).
  ExpandStrategy expand = ExpandStrategy::kWarp;
  /// kAuto: adjacency length at which a vertex moves to the block bin.
  uint32_t block_threshold = 4096;
};

/// Per-block view of buf[i] implementing the position translation of the
/// paper's Fig. 7 (shared-memory buffer B spliced between the initial scan
/// segment and the rest of the global buffer) plus ring-buffer wrapping.
///
/// The kernels run as both checked and unchecked instantiations, so every
/// counters parameter here (and in the kernels below) is `auto&`: the
/// concrete type — PerfCounters or CheckedPerfCounters — selects the
/// matching accessor overloads in atomics.h.
class KCORE_KERNEL BlockBuffer {
 public:
  BlockBuffer(const KernelCtx& ctx, auto& block, VertexId* shared_b,
              uint64_t e_init)
      : ctx_(ctx),
        base_(static_cast<uint64_t>(block.block_id()) * ctx.capacity),
        shared_b_(shared_b),
        e_init_(e_init) {}

  VertexId Fetch(uint64_t logical, auto& c) const {
    if (ctx_.sm && logical >= e_init_) {
      const uint64_t rel = logical - e_init_;
      if (rel < ctx_.shared_capacity) {
        ++c.shared_ops;
        return shared_b_[rel];
      }
      logical -= ctx_.shared_capacity;
    }
    return GlobalLoad(&ctx_.buf[base_ + Physical(logical)], c);
  }

  /// Appends `v` at logical position `loc`. `observed_s` is the current
  /// consumption point, used for the ring-backlog overflow check.
  void Store(uint64_t loc, VertexId v, uint64_t observed_s, auto& c) const {
    if (ctx_.sm && loc >= e_init_) {
      const uint64_t rel = loc - e_init_;
      if (rel < ctx_.shared_capacity) {
        ++c.shared_ops;
        shared_b_[rel] = v;
        return;
      }
      loc -= ctx_.shared_capacity;
    }
    const uint64_t extra = ctx_.sm ? ctx_.shared_capacity : 0;
    if (ctx_.ring) {
      if (loc + 1 > observed_s + ctx_.capacity + extra) {
        sim::AtomicMax(ctx_.overflow, 1u, c);
        return;
      }
    } else if (loc >= ctx_.capacity) {
      sim::AtomicMax(ctx_.overflow, 1u, c);
      return;
    }
    GlobalStore(&ctx_.buf[base_ + Physical(loc)], v, c);
  }

 private:
  uint64_t Physical(uint64_t pos) const {
    return ctx_.ring ? pos % ctx_.capacity : std::min(pos, ctx_.capacity - 1);
  }

  const KernelCtx& ctx_;
  uint64_t base_;
  VertexId* shared_b_;
  uint64_t e_init_;
};

// ---------------------------------------------------------------------------
// Scan kernel (Algorithm 2): collect degree-k vertices into buf[block].
// ---------------------------------------------------------------------------

KCORE_KERNEL void ScanKernel(const KernelCtx& ctx, uint32_t k, auto& block) {
  auto& c = block.counters();
  // Line 1: thread 0 zeroes e. (`template` keyword: block's type is a
  // template parameter, so the member template call needs the disambiguator.)
  auto* e = block.template SharedAlloc<uint64_t>(1);
  block.Sync();                              // Line 2.

  // With an active list the sweep domain shrinks from [0, n) to the dense
  // survivor array; idx -> vertex goes through one extra global read.
  const uint64_t sweep_len =
      ctx.use_active ? ctx.active_size : ctx.num_vertices;
  auto vertex_at = [&](uint64_t idx) -> VertexId {
    return ctx.use_active ? GlobalLoad(&ctx.active[idx], c)
                          : static_cast<VertexId>(idx);
  };
  // Full peel collects the round's k-shell; single-k mining (scan_below)
  // collects everything already below the survival threshold.
  auto collects = [&](uint32_t dv) {
    return ctx.scan_below ? dv < k : dv == k;
  };
  if (ctx.use_active && block.block_id() == 0) {
    c.scan_vertices_skipped += ctx.num_vertices - ctx.active_size;
  }

  const uint64_t base = static_cast<uint64_t>(block.block_id()) * ctx.capacity;
  const uint64_t grid_threads = block.grid_threads();
  const uint64_t block_first =
      static_cast<uint64_t>(block.block_id()) * block.block_dim();

  auto raw_store = [&](uint64_t pos, VertexId v) {
    // Scan starts at logical 0 each round, so the ring cannot recycle yet:
    // more than `capacity` collected vertices is an overflow either way.
    if (pos >= ctx.capacity) {
      sim::AtomicMax(ctx.overflow, 1u, c);
      return;
    }
    GlobalStore(&ctx.buf[base + pos], v, c);
  };

  // Grid-stride sweeps (Lines 3-5): in sweep `s`, this block's threads
  // examine sweep-domain indices [s + block_first, s + block_first +
  // block_dim).
  for (uint64_t s = 0; s < sweep_len; s += grid_threads) {
    const uint64_t sweep_base = s + block_first;
    if (sweep_base >= sweep_len) continue;

    switch (ctx.append) {
      case AppendStrategy::kAtomic: {
        block.ForEachThread([&](uint32_t t) {
          const uint64_t idx = sweep_base + t;
          if (idx >= sweep_len) return;  // Line 5.
          const VertexId v = vertex_at(idx);
          ++c.vertices_scanned;
          const uint32_t dv = GlobalLoad(&ctx.deg[v], c);
          if (collects(dv)) {  // Line 6.
            const uint64_t pos =
                AtomicAdd(e, uint64_t{1}, c, MemSpace::kShared);  // Line 7.
            raw_store(pos, v);                                    // Line 9.
            ++c.buffer_appends;
          }
        });
        break;
      }
      case AppendStrategy::kBallotCompact: {
        // Warp-level compaction (Fig. 8): one shared atomicAdd per warp.
        block.ForEachWarp([&](WarpCtx& warp) {
          uint32_t flags[kWarpSize] = {0};
          VertexId cand[kWarpSize] = {0};
          warp.ForEachLane([&](uint32_t lane) {
            const uint64_t idx =
                sweep_base + warp.warp_id() * kWarpSize + lane;
            if (idx >= sweep_len) return;
            const VertexId v = vertex_at(idx);
            ++c.vertices_scanned;
            if (collects(GlobalLoad(&ctx.deg[v], c))) {
              flags[lane] = 1;
              cand[lane] = v;
            }
          });
          uint32_t exclusive[kWarpSize];
          const uint32_t total = BallotExclusiveScan(warp, flags, exclusive);
          if (total == 0) return;
          const uint64_t e_old =
              AtomicAdd(e, uint64_t{total}, c, MemSpace::kShared);
          ++c.shared_ops;  // __shfl_sync broadcast of e_old (Fig. 8 line 5).
          warp.ForEachLane([&](uint32_t lane) {
            if (flags[lane] != 0) {
              raw_store(e_old + exclusive[lane], cand[lane]);
              ++c.buffer_appends;
            }
          });
        });
        break;
      }
      case AppendStrategy::kEfficientCompact: {
        // Block-level two-stage compaction (Fig. 9): one shared atomicAdd
        // per block per sweep.
        const uint32_t dim = block.block_dim();
        std::vector<uint32_t> flags(dim, 0);
        std::vector<VertexId> cand(dim, 0);
        block.ForEachThread([&](uint32_t t) {
          const uint64_t idx = sweep_base + t;
          if (idx >= sweep_len) return;
          const VertexId v = vertex_at(idx);
          ++c.vertices_scanned;
          if (collects(GlobalLoad(&ctx.deg[v], c))) {
            flags[t] = 1;
            cand[t] = v;
          }
        });
        c.shared_ops += dim;  // vid/p staging arrays live in shared memory.
        std::vector<uint32_t> exclusive(dim);
        const uint32_t total =
            BlockExclusiveScan(block, flags.data(), exclusive.data());
        if (total == 0) break;
        const uint64_t e_old =
            AtomicAdd(e, uint64_t{total}, c, MemSpace::kShared);
        block.ForEachThread([&](uint32_t t) {
          if (flags[t] != 0) {
            raw_store(e_old + exclusive[t], cand[t]);
            ++c.buffer_appends;
          }
        });
        break;
      }
    }
  }

  block.Sync();
  // Thread 0 backs e up to global memory for the loop kernel (§IV-B).
  GlobalStore(&ctx.buf_e[block.block_id()], *e, c);
}

// ---------------------------------------------------------------------------
// Compact kernel: rebuild the dense active-vertex array for round k.
// ---------------------------------------------------------------------------

/// Stream-compacts the surviving vertices (deg >= k) of the current sweep
/// domain into ctx.active_out via warp-ballot compaction: each warp ballots
/// its survivors, claims a contiguous range of the output with one global
/// atomicAdd on ctx.active_count, and scatters. Correctness: a vertex
/// peeled in some round j keeps deg == core == j < k forever, while every
/// unpeeled vertex has deg >= k at the start of round k — so the filter
/// keeps exactly the unpeeled vertices and the new array stays a superset
/// of every later round's survivors until the next rebuild.
KCORE_KERNEL void CompactKernel(const KernelCtx& ctx, uint32_t k, auto& block) {
  auto& c = block.counters();
  if (block.block_id() == 0) ++c.compactions;

  const uint64_t src_len = ctx.use_active ? ctx.active_size : ctx.num_vertices;
  const uint64_t grid_threads = block.grid_threads();
  const uint64_t block_first =
      static_cast<uint64_t>(block.block_id()) * block.block_dim();

  for (uint64_t s = 0; s < src_len; s += grid_threads) {
    const uint64_t sweep_base = s + block_first;
    if (sweep_base >= src_len) continue;
    block.ForEachWarp([&](WarpCtx& warp) {
      uint32_t flags[kWarpSize] = {0};
      VertexId cand[kWarpSize] = {0};
      warp.ForEachLane([&](uint32_t lane) {
        const uint64_t idx = sweep_base + warp.warp_id() * kWarpSize + lane;
        if (idx >= src_len) return;
        const VertexId v = ctx.use_active
                               ? GlobalLoad(&ctx.active[idx], c)
                               : static_cast<VertexId>(idx);
        if (GlobalLoad(&ctx.deg[v], c) >= k) {
          flags[lane] = 1;
          cand[lane] = v;
        }
      });
      uint32_t exclusive[kWarpSize];
      const uint32_t total = BallotExclusiveScan(warp, flags, exclusive);
      if (total == 0) return;
      const uint64_t out_base =
          AtomicAdd(ctx.active_count, uint64_t{total}, c);
      ++c.shared_ops;  // __shfl_sync broadcast of out_base.
      warp.ForEachLane([&](uint32_t lane) {
        if (flags[lane] != 0) {
          // out_base + exclusive < total survivors <= src_len <= n, so the
          // ping-pong output array (n slots) cannot overflow.
          GlobalStore(&ctx.active_out[out_base + exclusive[lane]],
                      cand[lane], c);
        }
      });
    });
  }
}

// ---------------------------------------------------------------------------
// Fused scan+compact kernel: one launch per round replaces the scan and the
// round-boundary CompactKernel (GpuPeelOptions::fuse_scan_compact).
// ---------------------------------------------------------------------------

/// One warp-ballot sweep over the active domain reads each survivor's degree
/// exactly once and routes it to both consumers: deg == k vertices enter
/// this block's frontier buffer (the scan's output, one shared atomicAdd per
/// warp — the BC append discipline, since the sweep is warp-structured
/// either way), and deg > k vertices enter the next active array (the
/// compaction's output, one global atomicAdd per warp). deg < k vertices —
/// peeled in earlier rounds — simply drop out. The strict `> k` survivor
/// filter is safe: at the end of round k's cascade every unpeeled vertex
/// has degree > k (§IV-B), so the next round's sweep domain is still a
/// superset of its survivors, and one round tighter than what the unfused
/// threshold rebuild keeps.
KCORE_KERNEL void FusedScanCompactKernel(const KernelCtx& ctx, uint32_t k,
                                         auto& block) {
  auto& c = block.counters();
  auto* e = block.template SharedAlloc<uint64_t>(1);
  block.Sync();
  if (block.block_id() == 0) ++c.compactions;

  const uint64_t src_len = ctx.use_active ? ctx.active_size : ctx.num_vertices;
  if (ctx.use_active && block.block_id() == 0) {
    c.scan_vertices_skipped += ctx.num_vertices - ctx.active_size;
  }
  const uint64_t base = static_cast<uint64_t>(block.block_id()) * ctx.capacity;
  const uint64_t grid_threads = block.grid_threads();
  const uint64_t block_first =
      static_cast<uint64_t>(block.block_id()) * block.block_dim();

  auto raw_store = [&](uint64_t pos, VertexId v) {
    // Same ring-exempt overflow rule as ScanKernel: the buffer starts the
    // round empty, so `capacity` collected vertices is the hard limit.
    if (pos >= ctx.capacity) {
      sim::AtomicMax(ctx.overflow, 1u, c);
      return;
    }
    GlobalStore(&ctx.buf[base + pos], v, c);
  };

  for (uint64_t s = 0; s < src_len; s += grid_threads) {
    const uint64_t sweep_base = s + block_first;
    if (sweep_base >= src_len) continue;
    block.ForEachWarp([&](WarpCtx& warp) {
      uint32_t live_flags[kWarpSize] = {0};
      uint32_t shell_flags[kWarpSize] = {0};
      VertexId cand[kWarpSize] = {0};
      warp.ForEachLane([&](uint32_t lane) {
        const uint64_t idx = sweep_base + warp.warp_id() * kWarpSize + lane;
        if (idx >= src_len) return;
        const VertexId v = ctx.use_active
                               ? GlobalLoad(&ctx.active[idx], c)
                               : static_cast<VertexId>(idx);
        ++c.vertices_scanned;
        const uint32_t dv = GlobalLoad(&ctx.deg[v], c);
        if (dv < k) return;
        cand[lane] = v;
        if (dv == k) {
          shell_flags[lane] = 1;
        } else {
          live_flags[lane] = 1;
        }
      });

      uint32_t exclusive[kWarpSize];
      const uint32_t live_n = BallotExclusiveScan(warp, live_flags, exclusive);
      if (live_n != 0) {
        const uint64_t out_base =
            AtomicAdd(ctx.active_count, uint64_t{live_n}, c);
        ++c.shared_ops;  // __shfl_sync broadcast of out_base.
        warp.ForEachLane([&](uint32_t lane) {
          if (live_flags[lane] != 0) {
            // Bounded exactly like CompactKernel: survivors <= src_len <= n.
            GlobalStore(&ctx.active_out[out_base + exclusive[lane]],
                        cand[lane], c);
          }
        });
      }

      const uint32_t shell_n =
          BallotExclusiveScan(warp, shell_flags, exclusive);
      if (shell_n != 0) {
        const uint64_t e_old =
            AtomicAdd(e, uint64_t{shell_n}, c, MemSpace::kShared);
        ++c.shared_ops;  // __shfl_sync broadcast of e_old.
        warp.ForEachLane([&](uint32_t lane) {
          if (shell_flags[lane] != 0) {
            raw_store(e_old + exclusive[lane], cand[lane]);
            ++c.buffer_appends;
          }
        });
      }
    });
  }

  block.Sync();
  GlobalStore(&ctx.buf_e[block.block_id()], *e, c);
}

// ---------------------------------------------------------------------------
// Loop kernel (Algorithm 3): BFS k-shell propagation from the scanned seeds.
// ---------------------------------------------------------------------------

/// Lines 13-24: one warp processes vertex v's adjacency list in 32-neighbor
/// chunks, decrementing degrees and appending new k-shell vertices.
KCORE_KERNEL void ProcessVertex(const KernelCtx& ctx, uint32_t k,
                                const BlockBuffer& buf, uint64_t* e,
                                const uint64_t* s, WarpCtx& warp,
                   VertexId v, auto& c) {
  uint64_t pos_s = GlobalLoad(&ctx.offsets[v], c);  // Line 13.
  const uint64_t pos_e = GlobalLoad(&ctx.offsets[v + 1], c);

  while (pos_s < pos_e) {  // Lines 14-16.
    warp.SyncWarp();       // Line 15.

    // Per-lane neighbor examination; with compaction enabled the appends of
    // this chunk are batched through a ballot scan instead of per-element
    // shared atomics.
    uint32_t flags[kWarpSize] = {0};
    VertexId appended[kWarpSize] = {0};
    const bool compact = ctx.append != AppendStrategy::kAtomic;

    warp.ForEachLane([&](uint32_t lane) {
      const uint64_t pos = pos_s + lane;  // Line 17.
      if (pos >= pos_e) return;           // Line 18.
      const VertexId u = GlobalLoad(&ctx.neighbors[pos], c);  // Line 19.
      ++c.edges_traversed;
      const uint32_t du = GlobalLoad(&ctx.deg[u], c);
      if (du <= k) return;  // Line 20.
      const uint32_t old = AtomicSub(&ctx.deg[u], 1u, c);  // Line 21.
      if (old == k + 1) {  // Line 22: u just entered the k-shell.
        if (compact) {
          flags[lane] = 1;
          appended[lane] = u;
        } else {
          const uint64_t loc =
              AtomicAdd(e, uint64_t{1}, c, MemSpace::kShared);  // Line 23.
          ++c.shared_ops;  // read of s for the ring-backlog check
          buf.Store(loc, u, *s, c);
          ++c.buffer_appends;
        }
      } else if (old <= k) {
        // Line 24: concurrent decrements overshot; restore so deg[u]
        // converges to core(u) (§IV-B Case 1).
        AtomicAdd(&ctx.deg[u], 1u, c);
      }
    });

    if (compact) {
      uint32_t exclusive[kWarpSize];
      const uint32_t total = BallotExclusiveScan(warp, flags, exclusive);
      if (total != 0) {
        const uint64_t e_old =
            AtomicAdd(e, uint64_t{total}, c, MemSpace::kShared);
        ++c.shared_ops;  // broadcast of e_old.
        ++c.shared_ops;  // read of s for the ring-backlog check
        const uint64_t observed_s = *s;
        warp.ForEachLane([&](uint32_t lane) {
          if (flags[lane] != 0) {
            buf.Store(e_old + exclusive[lane], appended[lane], observed_s, c);
            ++c.buffer_appends;
          }
        });
      }
    }
    pos_s += kWarpSize;  // Line 17 (pos_s advance).
  }
}

// ---------------------------------------------------------------------------
// Degree-binned expansion engine (thread / warp / block granularities; see
// DESIGN.md §8). The warp granularity is ProcessVertex above, untouched.
// ---------------------------------------------------------------------------

/// Thread-granularity expansion: one lane owns one small vertex
/// (deg < 32) and peels its whole adjacency, so a warp retires 32 frontier
/// vertices per pass instead of serializing them chunk by chunk. The 32
/// private adjacencies advance in lockstep, which keeps Case-2 appends
/// batchable through the warp ballot scan each step — the same append
/// discipline as ProcessVertex, just transposed.
KCORE_KERNEL void ProcessThreadBin(const KernelCtx& ctx, uint32_t k,
                                   const BlockBuffer& buf, uint64_t* e,
                                   const uint64_t* s, WarpCtx& warp,
                      const VertexId verts[kWarpSize], uint32_t count,
                      auto& c) {
  uint64_t pos[kWarpSize];
  uint64_t end[kWarpSize];
  uint64_t max_len = 0;
  warp.ForEachLane([&](uint32_t lane) {
    if (lane >= count || verts[lane] >= ctx.num_vertices) {
      pos[lane] = end[lane] = 0;  // idle lane / suppressed-overflow garbage
      return;
    }
    pos[lane] = GlobalLoad(&ctx.offsets[verts[lane]], c);
    end[lane] = GlobalLoad(&ctx.offsets[verts[lane] + 1], c);
    max_len = std::max(max_len, end[lane] - pos[lane]);
  });

  const bool compact = ctx.append != AppendStrategy::kAtomic;
  for (uint64_t step = 0; step < max_len; ++step) {
    warp.SyncWarp();  // step boundary (Alg. 3 Line 15 analogue)
    uint32_t flags[kWarpSize] = {0};
    VertexId appended[kWarpSize] = {0};
    warp.ForEachLane([&](uint32_t lane) {
      const uint64_t pos_cur = pos[lane] + step;
      if (pos_cur >= end[lane]) return;  // this lane's adjacency is done
      const VertexId u = GlobalLoad(&ctx.neighbors[pos_cur], c);
      ++c.edges_traversed;
      const uint32_t du = GlobalLoad(&ctx.deg[u], c);
      if (du <= k) return;
      const uint32_t old = AtomicSub(&ctx.deg[u], 1u, c);
      if (old == k + 1) {
        if (compact) {
          flags[lane] = 1;
          appended[lane] = u;
        } else {
          const uint64_t loc =
              AtomicAdd(e, uint64_t{1}, c, MemSpace::kShared);
          ++c.shared_ops;  // read of s for the ring-backlog check
          buf.Store(loc, u, *s, c);
          ++c.buffer_appends;
        }
      } else if (old <= k) {
        AtomicAdd(&ctx.deg[u], 1u, c);  // §IV-B Case 1 rollback
      }
    });
    if (compact) {
      uint32_t exclusive[kWarpSize];
      const uint32_t total = BallotExclusiveScan(warp, flags, exclusive);
      if (total != 0) {
        const uint64_t e_old =
            AtomicAdd(e, uint64_t{total}, c, MemSpace::kShared);
        ++c.shared_ops;  // broadcast of e_old.
        ++c.shared_ops;  // read of s for the ring-backlog check
        const uint64_t observed_s = *s;
        warp.ForEachLane([&](uint32_t lane) {
          if (flags[lane] != 0) {
            buf.Store(e_old + exclusive[lane], appended[lane], observed_s, c);
            ++c.buffer_appends;
          }
        });
      }
    }
  }
}

/// Kernel-local staging for block-cooperative batches, sized block_dim once
/// per launch and reused across batches (mirrors the EC scan path's
/// flags/cand arrays, which live in registers/local memory, not shared).
struct BlockExpandScratch {
  std::vector<uint32_t> flags;
  std::vector<uint32_t> exclusive;
  std::vector<VertexId> appended;
};

/// Block-granularity expansion for hubs: every warp of the block
/// cooperatively sweeps v's adjacency in grid-stride block_dim-neighbor
/// batches, and each batch's Case-2 appends are compacted through the
/// block-wide ballot scan (one shared atomicAdd per batch) regardless of
/// the append strategy — per-element shared atomics would re-serialize the
/// very adjacency this bin exists to spread. Barriers are paid lazily: one
/// on entry (all warps arrive; earlier scratch readers are done), then only
/// batches that actually appended run the scan and its trailing barrier —
/// append-free batches ride the entry barrier's ordering for free.
KCORE_KERNEL void ProcessBlockBin(const KernelCtx& ctx, uint32_t k,
                                  const BlockBuffer& buf, uint64_t* e,
                                  const uint64_t* s, auto& block, VertexId v,
                     BlockExpandScratch& scratch, auto& c) {
  const uint64_t pos_s = GlobalLoad(&ctx.offsets[v], c);
  const uint64_t pos_e = GlobalLoad(&ctx.offsets[v + 1], c);
  const uint32_t dim = block.block_dim();
  uint32_t* flags = scratch.flags.data();
  uint32_t* exclusive = scratch.exclusive.data();
  VertexId* appended = scratch.appended.data();

  block.Sync();  // all warps enter the sweep together
  for (uint64_t base = pos_s; base < pos_e; base += dim) {
    std::fill(flags, flags + dim, 0);
    bool any = false;
    block.ForEachWarp([&](WarpCtx& warp) {
      warp.ForEachLane([&](uint32_t lane) {
        const uint32_t slot = warp.warp_id() * kWarpSize + lane;
        const uint64_t pos_cur = base + slot;
        if (pos_cur >= pos_e) return;
        const VertexId u = GlobalLoad(&ctx.neighbors[pos_cur], c);
        ++c.edges_traversed;
        const uint32_t du = GlobalLoad(&ctx.deg[u], c);
        if (du <= k) return;
        const uint32_t old = AtomicSub(&ctx.deg[u], 1u, c);
        if (old == k + 1) {
          flags[slot] = 1;
          appended[slot] = u;
          any = true;
        } else if (old <= k) {
          AtomicAdd(&ctx.deg[u], 1u, c);  // §IV-B Case 1 rollback
        }
      });
    });
    // __syncthreads_or-style early out: batches that appended nothing skip
    // the block scan (the entry barrier's ordering still holds).
    if (!any) continue;
    const uint32_t total = BlockBallotExclusiveScan(block, flags, exclusive);
    const uint64_t e_old = AtomicAdd(e, uint64_t{total}, c, MemSpace::kShared);
    ++c.shared_ops;  // broadcast of e_old.
    ++c.shared_ops;  // read of s for the ring-backlog check
    const uint64_t observed_s = *s;
    block.ForEachThread([&](uint32_t t) {
      if (flags[t] != 0) {
        buf.Store(e_old + exclusive[t], appended[t], observed_s, c);
        ++c.buffer_appends;
      }
    });
    block.Sync();  // stores consumed before the next batch rewrites scratch
  }
}

/// Shared-memory staging for kAuto: only hub vertices cross warps, so only
/// they need a shared list. Thread- and warp-bin vertices are classified
/// and drained inside the warp that fetched them, barrier-free.
struct ExpandShared {
  VertexId* block_list = nullptr;  ///< deg >= block_expand_threshold (hubs)
  uint32_t* block_n = nullptr;     ///< [1] shared append cursor
};

/// Expands one fetched frontier window — `item(i)` yields the window's i-th
/// vertex (a buffer fetch, or a pref[] read under VP) — at the granularity
/// selected by ctx.expand. Pure thread/block strategies send every vertex
/// to their single bin with no classification pass. kAuto classifies each
/// warp's 32-vertex chunk by adjacency length and drains the thread and
/// warp bins in place (no cross-warp traffic, so no barriers); hubs are
/// ballot-compacted into the shared block list and swept cooperatively
/// after one barrier — windows without hubs pay no classification barrier
/// at all.
KCORE_KERNEL void ExpandWindow(const KernelCtx& ctx, uint32_t k,
                               const BlockBuffer& buf, uint64_t* e,
                               const uint64_t* s, auto& block,
                  const ExpandShared& sh, BlockExpandScratch& scratch,
                  auto&& item, uint64_t count, auto& c) {
  if (count == 0) return;
  const uint32_t num_warps = block.num_warps();
  const uint64_t warp_stride = static_cast<uint64_t>(num_warps) * kWarpSize;

  // Drains `n_items` vertices (vert_at(i)) 32-per-warp at thread granularity.
  const auto run_thread_bin = [&](auto&& vert_at, uint64_t n_items) {
    for (uint64_t base = 0; base < n_items; base += warp_stride) {
      block.ForEachWarp([&](WarpCtx& warp) {
        const uint64_t wbase =
            base + static_cast<uint64_t>(warp.warp_id()) * kWarpSize;
        if (wbase >= n_items) return;
        const auto cnt = static_cast<uint32_t>(
            std::min<uint64_t>(kWarpSize, n_items - wbase));
        VertexId verts[kWarpSize] = {0};
        warp.ForEachLane([&](uint32_t lane) {
          if (lane < cnt) verts[lane] = vert_at(wbase + lane);
        });
        ProcessThreadBin(ctx, k, buf, e, s, warp, verts, cnt, c);
      });
    }
  };
  switch (ctx.expand) {
    case ExpandStrategy::kThread:
      c.loop_bin_thread += count;
      run_thread_bin(item, count);
      return;
    case ExpandStrategy::kBlock:
      c.loop_bin_block += count;
      for (uint64_t i = 0; i < count; ++i) {
        const VertexId v = item(i);  // lane 0 fetches, implicit broadcast
        if (v >= ctx.num_vertices) continue;
        ProcessBlockBin(ctx, k, buf, e, s, block, v, scratch, c);
      }
      return;
    case ExpandStrategy::kWarp:  // LoopKernel's unchanged path, not here
    case ExpandStrategy::kAuto:
      break;
  }

  // kAuto: each warp classifies its own 32-vertex chunk by adjacency length
  // and drains the small bins in place. The shared block_n cursor starts
  // zeroed (SharedAlloc zero-fills; after a hub window the drain resets it
  // below, and the outer window barrier orders the reset against the next
  // window's appends).
  for (uint64_t base = 0; base < count; base += warp_stride) {
    block.ForEachWarp([&](WarpCtx& warp) {
      const uint64_t wbase =
          base + static_cast<uint64_t>(warp.warp_id()) * kWarpSize;
      if (wbase >= count) return;
      uint32_t thread_flags[kWarpSize] = {0};
      uint32_t warp_flags[kWarpSize] = {0};
      uint32_t block_flags[kWarpSize] = {0};
      VertexId cand[kWarpSize] = {0};
      warp.ForEachLane([&](uint32_t lane) {
        const uint64_t idx = wbase + lane;
        if (idx >= count) return;
        const VertexId v = item(idx);
        if (v >= ctx.num_vertices) return;  // see LoopKernel's OOB comment
        cand[lane] = v;
        const uint64_t adj_s = GlobalLoad(&ctx.offsets[v], c);
        const uint64_t adj_e = GlobalLoad(&ctx.offsets[v + 1], c);
        const uint64_t len = adj_e - adj_s;
        if (len < kWarpSize) {
          thread_flags[lane] = 1;
        } else if (len < ctx.block_threshold) {
          warp_flags[lane] = 1;
        } else {
          block_flags[lane] = 1;
        }
      });

      // Thread bin: ballot-compact the small vertices into a dense local
      // batch and peel all of them in one lockstep pass.
      uint32_t exclusive[kWarpSize];
      const uint32_t thread_n =
          BallotExclusiveScan(warp, thread_flags, exclusive);
      if (thread_n != 0) {
        VertexId verts[kWarpSize] = {0};
        warp.ForEachLane([&](uint32_t lane) {
          if (thread_flags[lane] != 0) verts[exclusive[lane]] = cand[lane];
        });
        c.loop_bin_thread += thread_n;
        ProcessThreadBin(ctx, k, buf, e, s, warp, verts, thread_n, c);
      }

      // Hubs: ballot-compact into the shared block list for the cooperative
      // sweep after the window barrier.
      const uint32_t hub_n = BallotExclusiveScan(warp, block_flags, exclusive);
      if (hub_n != 0) {
        const uint32_t off =
            AtomicAdd(sh.block_n, hub_n, c, MemSpace::kShared);
        ++c.shared_ops;  // broadcast of off.
        warp.ForEachLane([&](uint32_t lane) {
          if (block_flags[lane] != 0) {
            sh.block_list[off + exclusive[lane]] = cand[lane];
            ++c.shared_ops;
          }
        });
      }

      // Warp bin: everything mid-sized runs the paper's Alg. 3 path as-is.
      for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
        if (warp_flags[lane] == 0) continue;
        ++c.loop_bin_warp;
        ProcessVertex(ctx, k, buf, e, s, warp, cand[lane], c);
      }
    });
  }

  block.Sync();  // hub list complete before the cooperative sweep
  const uint32_t block_n = *sh.block_n;
  ++c.shared_ops;
  if (block_n == 0) return;
  c.loop_bin_block += block_n;
  for (uint32_t i = 0; i < block_n; ++i) {
    ++c.shared_ops;
    const VertexId v = sh.block_list[i];
    ProcessBlockBin(ctx, k, buf, e, s, block, v, scratch, c);
  }
  // Reset the cursor for the next window; ProcessBlockBin's entry barrier
  // already separated this write from the block_n reads above, and the next
  // window's opening barrier orders it against new appends.
  *sh.block_n = 0;
  ++c.shared_ops;
}

/// Degree-binned loop kernel (thread / block / auto strategies; the warp
/// strategy keeps LoopKernel below, instruction for instruction). Window
/// structure mirrors LoopKernel, but one iteration consumes up to
/// block_dim() frontier vertices instead of one per warp, so on
/// small-degree frontiers the barrier-dominated iteration count drops by
/// ~num_warps while the expansion engine spreads whatever the window holds
/// across lane, warp, and block granularity.
KCORE_KERNEL void LoopKernelBinned(const KernelCtx& ctx, uint32_t k,
                                   bool vertex_prefetching, auto& block) {
  auto& c = block.counters();
  const uint32_t num_warps = block.num_warps();
  const uint32_t dim = block.block_dim();

  auto* s = block.template SharedAlloc<uint64_t>(1);
  auto* e = block.template SharedAlloc<uint64_t>(1);
  VertexId* shared_b =
      ctx.sm ? block.template SharedAlloc<VertexId>(ctx.shared_capacity)
             : nullptr;
  VertexId* pref = vertex_prefetching
                       ? block.template SharedAlloc<VertexId>(num_warps)
                       : nullptr;
  VertexId* pref_next = vertex_prefetching
                            ? block.template SharedAlloc<VertexId>(num_warps)
                            : nullptr;
  ExpandShared sh;
  if (ctx.expand == ExpandStrategy::kAuto) {
    sh.block_list = block.template SharedAlloc<VertexId>(dim);
    sh.block_n = block.template SharedAlloc<uint32_t>(1);
  }
  BlockExpandScratch scratch;
  if (ctx.expand != ExpandStrategy::kThread) {
    scratch.flags.assign(dim, 0);
    scratch.exclusive.assign(dim, 0);
    scratch.appended.assign(dim, 0);
  }

  *s = 0;
  *e = GlobalLoad(&ctx.buf_e[block.block_id()], c);  // Line 2.
  const uint64_t e_init = *e;
  BlockBuffer buf(ctx, block, shared_b, e_init);

  uint64_t pref_count = 0;

  while (true) {
    block.Sync();  // Line 4.
    const uint64_t cur_s = *s;
    const uint64_t cur_e = *e;
    c.shared_ops += 2 * dim;  // every thread reads s and e.

    if (!vertex_prefetching) {
      if (cur_s == cur_e) break;  // Line 5.
      block.Sync();
      const uint64_t window = std::min<uint64_t>(dim, cur_e - cur_s);
      *s = cur_s + window;
      ++c.shared_ops;
      ExpandWindow(
          ctx, k, buf, e, s, block, sh, scratch,
          [&](uint64_t i) { return buf.Fetch(cur_s + i, c); }, window, c);
    } else {
      // VP composition: Warp 0 prefetches the next batch into pref_next
      // (then joins the expansion — every barrier inside the engine is
      // block-wide), while the engine drains the previously fetched batch
      // at binned granularity. The batch no longer maps one-to-one onto
      // processing warps, but the prefetch depth stays at Warp 0's lane
      // count, so the window is at most num_warps - 1 vertices.
      if (pref_count == 0 && cur_s == cur_e) break;
      block.Sync();  // Line 7 analogue.
      const uint64_t nfetch =
          std::min<uint64_t>(num_warps - 1, cur_e - cur_s);
      block.ForEachWarp([&](WarpCtx& warp) {
        if (warp.warp_id() != 0) return;
        warp.SyncWarp();
        warp.ForEachLane([&](uint32_t lane) {
          if (lane >= 1 && lane <= nfetch) {
            pref_next[lane - 1] = buf.Fetch(cur_s + lane - 1, c);
            ++c.shared_ops;
          }
        });
      });
      ExpandWindow(
          ctx, k, buf, e, s, block, sh, scratch,
          [&](uint64_t i) {
            ++c.shared_ops;
            return pref[i];
          },
          pref_count, c);
      *s = cur_s + nfetch;
      ++c.shared_ops;
      std::swap_ranges(pref, pref + num_warps, pref_next);
      pref_count = nfetch;
    }
  }

  block.Sync();  // Line 25.
  AtomicAdd(ctx.gpu_count, *e, c);
}

KCORE_KERNEL void LoopKernel(const KernelCtx& ctx, uint32_t k,
                             bool vertex_prefetching, auto& block) {
  auto& c = block.counters();
  const uint32_t num_warps = block.num_warps();

  // Shared state: buffer head/tail (Lines 1-2) + optional SM buffer B and
  // the VP prefetch array.
  auto* s = block.template SharedAlloc<uint64_t>(1);
  auto* e = block.template SharedAlloc<uint64_t>(1);
  VertexId* shared_b =
      ctx.sm ? block.template SharedAlloc<VertexId>(ctx.shared_capacity)
             : nullptr;
  VertexId* pref = vertex_prefetching
                       ? block.template SharedAlloc<VertexId>(num_warps)
                       : nullptr;
  VertexId* pref_next = vertex_prefetching
                            ? block.template SharedAlloc<VertexId>(num_warps)
                            : nullptr;

  *s = 0;
  *e = GlobalLoad(&ctx.buf_e[block.block_id()], c);  // Line 2.
  const uint64_t e_init = *e;
  BlockBuffer buf(ctx, block, shared_b, e_init);

  uint64_t pref_count = 0;

  while (true) {
    block.Sync();  // Line 4.
    const uint64_t cur_s = *s;
    const uint64_t cur_e = *e;
    c.shared_ops += 2 * block.block_dim();  // every thread reads s and e.

    if (!vertex_prefetching) {
      if (cur_s == cur_e) break;  // Line 5.
      // Line 6 computed per warp below; Line 7 barrier:
      block.Sync();
      // Lines 9-10: thread 0 advances s for the next iteration.
      *s = std::min(cur_s + num_warps, cur_e);
      ++c.shared_ops;
      block.ForEachWarp([&](WarpCtx& warp) {
        const uint64_t sp = cur_s + warp.warp_id();  // Line 6.
        if (sp >= cur_e) return;                     // Line 8: continue.
        const VertexId v = buf.Fetch(sp, c);         // Line 12.
        // Defensive: a suppressed overflow store leaves garbage behind; the
        // host aborts on the flag, but this kernel must not read OOB first.
        if (v >= ctx.num_vertices) return;
        ++c.loop_bin_warp;  // uncharged meter; see PerfCounters
        ProcessVertex(ctx, k, buf, e, s, warp, v, c);
      });
    } else {
      // VP variant: warps 1..31 process the batch prefetched in the
      // previous iteration while Warp 0 fetches the next one (§IV-C).
      if (pref_count == 0 && cur_s == cur_e) break;
      block.Sync();  // Line 7 analogue.
      const uint64_t nfetch =
          std::min<uint64_t>(num_warps - 1, cur_e - cur_s);
      block.ForEachWarp([&](WarpCtx& warp) {
        if (warp.warp_id() == 0) {
          // Lane 0 advances s; __syncwarp; lanes 1.. fetch into pref_next.
          warp.SyncWarp();
          warp.ForEachLane([&](uint32_t lane) {
            if (lane >= 1 && lane <= nfetch) {
              pref_next[lane - 1] = buf.Fetch(cur_s + lane - 1, c);
              ++c.shared_ops;
            }
          });
          return;
        }
        const uint32_t slot = warp.warp_id() - 1;
        if (slot >= pref_count) return;
        const VertexId v = pref[slot];
        ++c.shared_ops;
        if (v >= ctx.num_vertices) return;  // see non-VP path comment
        ++c.loop_bin_warp;  // uncharged meter; see PerfCounters
        ProcessVertex(ctx, k, buf, e, s, warp, v, c);
      });
      *s = cur_s + nfetch;
      ++c.shared_ops;
      std::swap_ranges(pref, pref + num_warps, pref_next);
      pref_count = nfetch;
    }
  }

  block.Sync();  // Line 25.
  // Line 26: thread 0 adds this block's removed-vertex count to gpu_count.
  AtomicAdd(ctx.gpu_count, *e, c);
}

/// Launch-geometry and variant-compatibility validation shared by the full
/// decomposer and the single-k driver (both launch the same kernels, so the
/// same constraints apply).
Status ValidateGpuPeelOptions(const GpuPeelOptions& opt,
                              const sim::Device& device) {
  if (opt.num_blocks == 0 || opt.block_dim == 0 || opt.block_dim % 32 != 0) {
    return Status::InvalidArgument("block_dim must be a positive multiple of 32");
  }
  if (opt.block_dim / 32 > 32 &&
      opt.append == AppendStrategy::kEfficientCompact) {
    return Status::InvalidArgument(
        "EC block scan requires at most 32 warps per block");
  }
  if (opt.vertex_prefetching &&
      (opt.block_dim / 32 < 2 || opt.block_dim / 32 > 32)) {
    return Status::InvalidArgument(
        "vertex prefetching needs 2..32 warps per block (Warp 0's 32 lanes "
        "must cover the other warps)");
  }
  if ((opt.expand_strategy == ExpandStrategy::kBlock ||
       opt.expand_strategy == ExpandStrategy::kAuto) &&
      opt.block_dim / 32 > 32) {
    return Status::InvalidArgument(
        "block-cooperative expansion requires at most 32 warps per block "
        "(the block ballot scan stages one warp total per lane)");
  }
  if (opt.expand_strategy == ExpandStrategy::kAuto &&
      opt.block_expand_threshold < kWarpSize) {
    return Status::InvalidArgument(
        "block_expand_threshold must be >= 32 (the warp bin starts there)");
  }
  // kAuto stages one block_dim-sized hub list (+ cursor) in shared memory,
  // on top of whatever SM buffering claims.
  const uint64_t expand_shared_bytes =
      opt.expand_strategy == ExpandStrategy::kAuto
          ? static_cast<uint64_t>(opt.block_dim) * sizeof(VertexId) +
                sizeof(uint32_t)
          : 0;
  if (opt.shared_memory_buffering &&
      static_cast<uint64_t>(opt.shared_buffer_capacity) * sizeof(VertexId) +
              expand_shared_bytes + 4096 >
          device.options().shared_mem_per_block) {
    return Status::InvalidArgument("shared buffer B exceeds shared memory");
  }
  if (expand_shared_bytes + 4096 > device.options().shared_mem_per_block) {
    return Status::InvalidArgument(
        "auto-expansion bin lists exceed shared memory (reduce block_dim)");
  }
  if (opt.active_compaction && (opt.compaction_threshold < 0.0 ||
                                opt.compaction_threshold > 1.0)) {
    return Status::InvalidArgument(
        "compaction_threshold must be a fraction in [0, 1]");
  }
  if (opt.fuse_scan_compact && !opt.active_compaction) {
    return Status::InvalidArgument(
        "scan->compact fusion requires active compaction (the fused kernel "
        "IS the compaction; there is no unfused scan to fall back to)");
  }
  return Status::OK();
}

}  // namespace

StatusOr<DecomposeResult> GpuPeelDecomposer::Decompose(const CsrGraph& graph) {
  const GpuPeelOptions& opt = options_;
  if (opt.renumber) {
    // Degree-ordered renumbering wrap: remap the graph, run the entire
    // pipeline (validation, resilience, compaction, fusion — everything) on
    // the relabeled CSR with `renumber` cleared, then permute the core
    // numbers back to the original IDs. Core numbers are label-invariant,
    // so the result is bit-identical to an unrenumbered run. The remap is
    // host-side preprocessing, amortizable across queries on a static
    // graph: its cost lands in wall_ms only — the modeled device clock
    // never sees it.
    WallTimer total;
    // Stripe at block_dim: the scan hands each block_dim-wide ID window to
    // one block, so dealing degree ranks round-robin across windows spreads
    // the hubs over all blocks' frontier buffers.
    const Renumbering rn = DegreeOrderRenumber(graph, opt.block_dim);
    GpuPeelOptions inner_options = opt;
    inner_options.renumber = false;
    GpuPeelDecomposer inner(device_, inner_options);
    KCORE_ASSIGN_OR_RETURN(DecomposeResult result, inner.Decompose(rn.graph));
    result.core = rn.ToOriginal(result.core);
    result.metrics.wall_ms = total.ElapsedMillis();
    return result;
  }
  KCORE_RETURN_IF_ERROR(ValidateGpuPeelOptions(opt, *device_));

  WallTimer timer;
  const VertexId n = graph.NumVertices();
  device_->ResetClock();

  // Resilience engages only when the device carries a fault plan; a plain
  // device runs the fast path below with zero recovery overhead.
  const bool resilient =
      opt.resilience.enabled && device_->fault_injection_enabled();

  const uint64_t capacity =
      opt.buffer_capacity != 0
          ? opt.buffer_capacity
          : std::max<uint64_t>(4096, static_cast<uint64_t>(n) / 4);

  DecomposeResult result;

  // Loop-phase imbalance accumulators: per loop launch, the slowest block's
  // modeled ns and the mean over the blocks whose frontier buffer held work
  // at launch (Device::last_launch_stats + the host-visible buf_e snapshot;
  // idle blocks only measure the kernel's fixed floor, not balance). Their
  // ratio — time-weighted over every loop launch — is
  // Metrics.loop_imbalance. Reading the stats charges nothing.
  double loop_max_ns = 0.0;
  double loop_mean_ns = 0.0;
  const auto finish_loop_imbalance = [&]() {
    result.metrics.loop_imbalance =
        loop_mean_ns > 0.0 ? loop_max_ns / loop_mean_ns : 0.0;
  };

  // Bounded retry for transient (Unavailable) device failures. A failed
  // launch/copy is fail-stop — no side effects — so re-issuing the same
  // operation is always safe.
  const auto with_retry = [&](auto&& op) -> Status {
    Status st = op();
    if (!resilient) return st;
    // With profiling on, an absorbed transient draws a flow arrow from the
    // first failure to the attempt that cleared it (nsys shows retried
    // launches the same way).
    sim::SimProfiler* const prof = device_->profiler();
    uint64_t flow_id = 0;
    for (uint32_t attempt = 0;
         st.IsUnavailable() && attempt < opt.resilience.max_op_retries;
         ++attempt) {
      ++result.metrics.retries;
      if (prof != nullptr && flow_id == 0) {
        flow_id = prof->FlowBegin("retry");
      }
      if (opt.resilience.backoff_base_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<uint64_t>(opt.resilience.backoff_base_ms) << attempt));
      }
      st = op();
    }
    if (prof != nullptr && flow_id != 0) {
      prof->FlowEnd(st.ok() ? "retry" : "retry_exhausted", flow_id);
    }
    return st;
  };

  // The round-boundary checkpoint: the verified degree array (which doubles
  // as the initial host->device upload), the cumulative removed count, and
  // implicitly the current k. Also the hand-off state for the CPU fallback.
  std::vector<uint32_t> ckpt_deg = graph.DegreeArray();
  uint64_t ckpt_count = 0;

  // Algorithm 1 Line 1: move the graph (offset/neighbors/deg) to the device.
  // The CSR arrays and the block buffers are fully overwritten before any
  // read (the host copies the graph in; buf slots are stored before being
  // fetched; buf_e is written by every scan before the loop reads it), so
  // they use the uninitialized-alloc path and skip the O(bytes) zeroing
  // memset — only the accumulators (count, overflow) need zeroed memory.
  sim::DeviceArray<EdgeIndex> d_offsets;
  sim::DeviceArray<VertexId> d_neighbors;
  sim::DeviceArray<uint32_t> d_deg;
  sim::DeviceArray<VertexId> d_buf;
  sim::DeviceArray<uint64_t> d_buf_e;
  sim::DeviceArray<uint64_t> d_count;
  sim::DeviceArray<uint32_t> d_overflow;
  // AC ping-pong arrays: compaction reads the previous active list (or the
  // implicit [0, n) identity) and writes the other array.
  sim::DeviceArray<VertexId> d_active_a;
  sim::DeviceArray<VertexId> d_active_b;
  sim::DeviceArray<uint64_t> d_active_count;

  const auto setup = [&]() -> Status {
    KCORE_ASSIGN_OR_RETURN(d_offsets, device_->AllocUninit<EdgeIndex>(
                                          graph.offsets().size(), "offsets"));
    KCORE_ASSIGN_OR_RETURN(
        d_neighbors,
        device_->AllocUninit<VertexId>(
            std::max<size_t>(1, graph.neighbors().size()), "neighbors"));
    KCORE_ASSIGN_OR_RETURN(
        d_deg,
        device_->AllocUninit<uint32_t>(std::max<VertexId>(1, n), "deg"));
    KCORE_ASSIGN_OR_RETURN(
        d_buf,
        device_->AllocUninit<VertexId>(
            static_cast<uint64_t>(opt.num_blocks) * capacity, "buf"));
    KCORE_ASSIGN_OR_RETURN(
        d_buf_e, device_->AllocUninit<uint64_t>(opt.num_blocks, "buf_e"));
    KCORE_ASSIGN_OR_RETURN(d_count, device_->Alloc<uint64_t>(1, "count"));
    KCORE_ASSIGN_OR_RETURN(d_overflow, device_->Alloc<uint32_t>(1, "overflow"));
    if (opt.active_compaction) {
      KCORE_ASSIGN_OR_RETURN(
          d_active_a, device_->AllocUninit<VertexId>(std::max<VertexId>(1, n),
                                                     "active_a"));
      KCORE_ASSIGN_OR_RETURN(
          d_active_b, device_->AllocUninit<VertexId>(std::max<VertexId>(1, n),
                                                     "active_b"));
      KCORE_ASSIGN_OR_RETURN(d_active_count,
                             device_->Alloc<uint64_t>(1, "active_count"));
    }
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_offsets.CopyFromHost(graph.offsets()); }));
    KCORE_RETURN_IF_ERROR(with_retry(
        [&] { return d_neighbors.CopyFromHost(graph.neighbors()); }));
    KCORE_RETURN_IF_ERROR(with_retry([&] {
      return d_deg.CopyFromHost(std::span<const uint32_t>(ckpt_deg));
    }));
    return Status::OK();
  };

  // Finishes the decomposition on CPU PKC from the last verified checkpoint
  // (graceful degradation). The warm start consumes ckpt_deg; the combined
  // core numbers equal what an undisturbed run would produce.
  const auto cpu_finish = [&](const Status& cause,
                              uint32_t start_k) -> DecomposeResult {
    WallTimer recovery;
    if (sim::SimProfiler* const prof = device_->profiler()) {
      prof->Mark(StrFormat("cpu_fallback k=%u", start_k));
    }
    result.metrics.degraded = true;
    if (cause.IsDeviceLost()) ++result.metrics.devices_lost;
    ThreadPool* const pool = device_->options().pool;
    DecomposeResult cpu =
        ResumePkc(graph, std::move(ckpt_deg), start_k,
                  pool != nullptr ? *pool : DefaultThreadPool());
    result.core = std::move(cpu.core);
    result.metrics.cpu_fallback_levels = cpu.metrics.rounds;
    result.metrics.rounds += cpu.metrics.rounds;
    result.metrics.counters = device_->totals();
    result.metrics.counters += cpu.metrics.counters;
    result.metrics.modeled_ms = device_->modeled_ms() + cpu.metrics.modeled_ms;
    result.metrics.peak_device_bytes = device_->peak_bytes();
    result.metrics.recovery_ms += recovery.ElapsedMillis();
    finish_loop_imbalance();
    result.metrics.wall_ms = timer.ElapsedMillis();
    return result;
  };

  if (Status st = setup(); !st.ok()) {
    // Device unusable before any peeling (e.g. injected cudaMalloc OOM):
    // the checkpoint is still the initial degree array, so the fallback is
    // a plain CPU decomposition.
    if (resilient && opt.resilience.cpu_fallback &&
        (st.IsOutOfMemory() || st.IsUnavailable() || st.IsDeviceLost())) {
      return cpu_finish(st, /*start_k=*/0);
    }
    return st;
  }
  // Opt deg[] into injected bitflips: it is the one array the checkpoint
  // protocol can validate and roll back. Topology stays ECC-protected (see
  // fault_injection.h).
  device_->MarkCorruptible(d_deg, "deg");
  if (!resilient) {
    ckpt_deg.clear();
    ckpt_deg.shrink_to_fit();
  }

  KernelCtx ctx;
  ctx.offsets = d_offsets.data();
  ctx.neighbors = d_neighbors.data();
  ctx.deg = d_deg.data();
  ctx.buf = d_buf.data();
  ctx.buf_e = d_buf_e.data();
  ctx.gpu_count = d_count.data();
  ctx.overflow = d_overflow.data();
  ctx.capacity = capacity;
  ctx.num_vertices = n;
  ctx.ring = opt.ring_buffer;
  ctx.sm = opt.shared_memory_buffering;
  ctx.shared_capacity = opt.shared_buffer_capacity;
  ctx.append = opt.append;
  ctx.expand = opt.expand_strategy;
  ctx.block_threshold = opt.block_expand_threshold;

  uint64_t count = 0;  // Algorithm 1 Line 2.
  uint32_t k = 0;
  const uint32_t k_limit = graph.MaxDegree() + 2;

  // Next CompactKernel output; swapped with the live active array after
  // each rebuild.
  VertexId* active_next = d_active_a.data();
  VertexId* active_live = d_active_b.data();

  // Attribute the modeled clock to pipeline phases: `charge` banks the time
  // elapsed since the previous mark into one phase accumulator.
  double phase_mark = device_->modeled_ms();
  const auto charge = [&](double& phase_ms) {
    const double now = device_->modeled_ms();
    phase_ms += now - phase_mark;
    phase_mark = now;
  };

  // One peeling round (Lines 5-9), ending — in resilient mode — with the
  // post-round validation against the checkpoint. Fills `post_deg` with the
  // validated state so a passing round can promote it to the new checkpoint
  // without a second device read.
  std::vector<uint32_t> post_deg;
  const auto run_level = [&]() -> Status {
    sim::SimProfiler* const prof = device_->profiler();
    if (opt.fuse_scan_compact) {
      // Fused path: one launch per round replaces the scan and the
      // round-boundary compaction. The kernel routes each surviving
      // vertex's degree to both consumers (deg == k -> frontier buffers,
      // deg > k -> next active array), so the active list shrinks every
      // round instead of at threshold halvings and the separate compact
      // launch disappears. The whole launch is charged to scan_ms — it is
      // the scan, with the compaction riding on its already-paid degree
      // reads.
      sim::ProfRange fused_range(prof, "fused_scan");
      const uint64_t zero = 0;
      KCORE_RETURN_IF_ERROR(
          with_retry([&] { return d_active_count.CopyFromHost({&zero, 1}); }));
      ctx.active_out = active_next;
      ctx.active_count = d_active_count.data();
      KCORE_RETURN_IF_ERROR(with_retry([&] {
        return device_->Launch(
            opt.num_blocks, opt.block_dim, "fused_scan",
            [&](auto& block) { FusedScanCompactKernel(ctx, k, block); });
      }));
      charge(result.metrics.scan_ms);
      uint64_t active_size = 0;
      KCORE_RETURN_IF_ERROR(with_retry(
          [&] { return d_active_count.CopyToHost({&active_size, 1}); }));
      ctx.active = active_next;
      ctx.active_size = active_size;
      ctx.use_active = true;
      std::swap(active_next, active_live);
    } else {
      if (opt.active_compaction) {
        // Rebuild the active array once the survivors have shrunk below the
        // threshold fraction of the current sweep domain (first time vs. n,
        // then vs. the active array itself — i.e. at every further halving
        // for the default 0.5).
        const uint64_t remaining = n - count;
        const uint64_t sweep_len = ctx.use_active ? ctx.active_size : n;
        if (static_cast<double>(remaining) <
            opt.compaction_threshold * static_cast<double>(sweep_len)) {
          sim::ProfRange compact_range(prof, "compact");
          const uint64_t zero = 0;
          KCORE_RETURN_IF_ERROR(with_retry(
              [&] { return d_active_count.CopyFromHost({&zero, 1}); }));
          ctx.active_out = active_next;
          ctx.active_count = d_active_count.data();
          KCORE_RETURN_IF_ERROR(with_retry([&] {
            return device_->Launch(
                opt.num_blocks, opt.block_dim, "compact",
                [&](auto& block) { CompactKernel(ctx, k, block); });
          }));
          charge(result.metrics.compact_ms);
          uint64_t active_size = 0;
          KCORE_RETURN_IF_ERROR(with_retry(
              [&] { return d_active_count.CopyToHost({&active_size, 1}); }));
          ctx.active = active_next;
          ctx.active_size = active_size;
          ctx.use_active = true;
          std::swap(active_next, active_live);
        }
      }

      sim::ProfRange scan_range(prof, "scan");
      KCORE_RETURN_IF_ERROR(with_retry([&] {
        return device_->Launch(opt.num_blocks, opt.block_dim, "scan",
                               [&](auto& block) {
                                 ScanKernel(ctx, k, block);  // Line 6.
                               });
      }));
      charge(result.metrics.scan_ms);
    }
    const bool vp = opt.vertex_prefetching;
    const bool binned = opt.expand_strategy != ExpandStrategy::kWarp;
    // Snapshot per-block frontier occupancy before the launch (the loop
    // kernel never writes buf_e back): host-side instrumentation, uncharged.
    std::vector<bool> block_had_work(opt.num_blocks);
    bool any_work = false;
    for (uint32_t b = 0; b < opt.num_blocks; ++b) {
      block_had_work[b] = ctx.buf_e[b] != 0;
      any_work = any_work || block_had_work[b];
    }
    if (opt.fuse_scan_compact && !any_work) {
      // Empty k-shell: every block's frontier buffer came up empty, so the
      // loop launch would only spin its fixed-cost drain loop and add
      // nothing to gpu_count. Skipping it is bit-identical (deg and count
      // are untouched either way) and is where fusion's launch savings
      // concentrate on high-k_max graphs — the many empty rounds between
      // the shell tail and the densest core cost one launch instead of two.
      if (prof != nullptr) prof->Mark(StrFormat("loop_skipped k=%u", k));
    } else {
      std::optional<sim::ProfRange> loop_range;
      if (prof != nullptr) loop_range.emplace(prof, "loop");
      KCORE_RETURN_IF_ERROR(with_retry([&] {
        return device_->Launch(opt.num_blocks, opt.block_dim, "loop",
                               [&](auto& block) {
                                 if (binned) {
                                   LoopKernelBinned(ctx, k, vp, block);
                                 } else {
                                   LoopKernel(ctx, k, vp, block);  // Line 7.
                                 }
                               });
      }));
      {
        const auto& stats = device_->last_launch_stats();
        double sum_active = 0.0;
        uint32_t num_active = 0;
        for (uint32_t b = 0;
             b < opt.num_blocks && b < stats.block_ns.size(); ++b) {
          if (!block_had_work[b]) continue;
          sum_active += stats.block_ns[b];
          ++num_active;
        }
        if (num_active > 0) {
          loop_max_ns += stats.max_block_ns;
          loop_mean_ns += sum_active / num_active;
        }
      }
      charge(result.metrics.loop_ms);
      loop_range.reset();
    }

    uint32_t overflow = 0;
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_overflow.CopyToHost({&overflow, 1}); }));
    if (overflow != 0) {
      return Status::CapacityExceeded(StrFormat(
          "block buffer overflow in round k=%u (capacity %llu IDs%s)", k,
          static_cast<unsigned long long>(capacity),
          opt.ring_buffer ? ", ring" : ""));
    }
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_count.CopyToHost({&count, 1}); }));  // L8.
    if (resilient) {
      sim::ProfRange validate_range(prof, "validate");
      post_deg.resize(n);
      KCORE_RETURN_IF_ERROR(with_retry(
          [&] { return d_deg.CopyToHost(std::span<uint32_t>(post_deg)); }));
      WallTimer validate;
      std::string why;
      const bool valid = ValidatePeelRound(graph, ckpt_deg, post_deg, k,
                                           count, &why);
      result.metrics.recovery_ms += validate.ElapsedMillis();
      if (!valid) return Status::Corruption(why);
    }
    return Status::OK();
  };

  // Restores the device to the last verified checkpoint after corruption
  // (or corruption-suspect overflow): degree array, cumulative count, and
  // overflow flag. The active-vertex array may have been built from
  // corrupted degrees, so it is invalidated; the threshold logic rebuilds
  // it from clean state on the next round.
  const auto rollback = [&]() -> Status {
    KCORE_RETURN_IF_ERROR(with_retry([&] {
      return d_deg.CopyFromHost(std::span<const uint32_t>(ckpt_deg));
    }));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_count.CopyFromHost({&ckpt_count, 1}); }));
    const uint32_t zero = 0;
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_overflow.CopyFromHost({&zero, 1}); }));
    count = ckpt_count;
    ctx.active = nullptr;
    ctx.active_size = 0;
    ctx.use_active = false;
    return Status::OK();
  };

  sim::SimProfiler* const prof = device_->profiler();
  uint32_t level_retries = 0;
  while (count < n) {  // Line 5.
    // Round-boundary lifecycle check (common/cancellation.h): an expired or
    // cancelled request stops here — before the next scan launch — so the
    // device arrays free on return and the device is released within one
    // peel round of the trigger.
    if (opt.cancel != nullptr) {
      if (Status live = opt.cancel->Check("gpu_peel round boundary");
          !live.ok()) {
        if (prof != nullptr) {
          prof->Mark(StrFormat("%s k=%u",
                               live.IsCancelled() ? "cancelled"
                                                  : "deadline_exceeded",
                               k));
        }
        return live;
      }
    }
    Status level = run_level();
    if (level.ok()) {
      if (resilient) {
        // The validated post-round state becomes the new checkpoint.
        std::swap(ckpt_deg, post_deg);
        ckpt_count = count;
        ++result.metrics.checkpoints_taken;
        if (prof != nullptr) prof->Mark(StrFormat("checkpoint k=%u", k));
      }
      ++k;  // Line 9.
      ++result.metrics.rounds;
      level_retries = 0;
      if (k > k_limit) return Status::Internal("peeling failed to converge");
      continue;
    }
    if (!resilient) return level;

    Status cause = level;
    if (cause.IsCorruption() || cause.IsCapacityExceeded()) {
      // Roll back and re-execute the round. An overflow is retried too:
      // corrupted degrees can flood the buffers, and a genuine capacity
      // problem reproduces deterministically from the restored state.
      if (level_retries < opt.resilience.max_level_retries) {
        WallTimer recovery;
        ++level_retries;
        ++result.metrics.levels_reexecuted;
        // Rollback flow arrow: from the corrupt round's end to the restored
        // re-execution point (both on the modeled clock).
        uint64_t flow_id = 0;
        if (prof != nullptr) flow_id = prof->FlowBegin("rollback");
        Status restored;
        {
          sim::ProfRange rollback_range(prof, "rollback");
          restored = rollback();
        }
        if (prof != nullptr) prof->FlowEnd("rollback", flow_id);
        result.metrics.recovery_ms += recovery.ElapsedMillis();
        if (restored.ok()) continue;
        cause = restored;  // the rollback itself hit a permanent fault
      } else if (cause.IsCapacityExceeded()) {
        // Reproduced from a verified checkpoint: a real configuration
        // limit, not corruption — surface it.
        return cause;
      }
    }
    // Permanent failure (device lost, retry budgets exhausted): degrade to
    // the CPU from the last verified checkpoint.
    if (!opt.resilience.cpu_fallback) return cause;
    DecomposeResult degraded = cpu_finish(cause, k);
    KCORE_RETURN_IF_ERROR(device_->CheckStatus());
    return degraded;
  }

  // Line 10: deg[] now holds the core numbers.
  if (resilient) {
    // Validated every round; the checkpoint IS the final state.
    result.core = std::move(ckpt_deg);
  } else {
    result.core.assign(n, 0);
    KCORE_RETURN_IF_ERROR(
        d_deg.CopyToHost(std::span<uint32_t>(result.core)));
  }

  finish_loop_imbalance();
  result.metrics.wall_ms = timer.ElapsedMillis();
  result.metrics.modeled_ms = device_->modeled_ms();
  result.metrics.peak_device_bytes = device_->peak_bytes();
  result.metrics.counters = device_->totals();
  // Under --simcheck / check_mode, a detected violation fails the run.
  KCORE_RETURN_IF_ERROR(device_->CheckStatus());
  return result;
}

StatusOr<DecomposeResult> RunGpuPeel(const CsrGraph& graph,
                                     const GpuPeelOptions& options,
                                     const sim::DeviceOptions& device_options) {
  sim::Device device(device_options);
  GpuPeelDecomposer decomposer(&device, options);
  return decomposer.Decompose(graph);
}

StatusOr<SingleKCoreResult> GpuSingleKCore(const CsrGraph& graph, uint32_t k,
                                           const GpuPeelOptions& options,
                                           sim::Device* device) {
  if (k < 1) {
    return Status::InvalidArgument("single-k mining requires k >= 1");
  }
  const GpuPeelOptions& opt = options;
  const VertexId n = graph.NumVertices();
  if (opt.renumber) {
    // Same wrap as Decompose: mine on the relabeled CSR, then permute the
    // membership bitmap back and rebuild the ascending member list in
    // original-ID space. Remap cost lands in wall_ms only.
    WallTimer total;
    const Renumbering rn = DegreeOrderRenumber(graph, opt.block_dim);
    GpuPeelOptions inner_options = opt;
    inner_options.renumber = false;
    KCORE_ASSIGN_OR_RETURN(SingleKCoreResult result,
                           GpuSingleKCore(rn.graph, k, inner_options, device));
    result.in_core = rn.ToOriginal(result.in_core);
    result.vertices.clear();
    for (VertexId v = 0; v < n; ++v) {
      if (result.in_core[v] != 0) result.vertices.push_back(v);
    }
    result.metrics.wall_ms = total.ElapsedMillis();
    return result;
  }
  KCORE_RETURN_IF_ERROR(ValidateGpuPeelOptions(opt, *device));

  WallTimer timer;
  device->ResetClock();
  const bool resilient =
      opt.resilience.enabled && device->fault_injection_enabled();
  const uint64_t capacity =
      opt.buffer_capacity != 0
          ? opt.buffer_capacity
          : std::max<uint64_t>(4096, static_cast<uint64_t>(n) / 4);

  SingleKCoreResult result;
  result.k = k;

  const auto with_retry = [&](auto&& op) -> Status {
    Status st = op();
    if (!resilient) return st;
    for (uint32_t attempt = 0;
         st.IsUnavailable() && attempt < opt.resilience.max_op_retries;
         ++attempt) {
      ++result.metrics.retries;
      if (opt.resilience.backoff_base_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<uint64_t>(opt.resilience.backoff_base_ms) << attempt));
      }
      st = op();
    }
    return st;
  };

  // The device path never calls MarkCorruptible: with one round there is no
  // checkpoint to roll back to, so deg[] stays ECC-protected like the
  // topology and injected bitflips are inert here. Launch/copy faults are
  // still live — transients are retried, and a permanent loss degrades to
  // the CPU algorithm below.
  std::vector<uint32_t> final_deg;
  const auto run = [&]() -> Status {
    // Single-k mining is one scan+loop pair — its only "round boundary" is
    // the entry point, so the lifecycle check runs before the device is
    // touched at all. Cancelled/DeadlineExceeded surface to the caller
    // directly (they are request outcomes, not engine faults, so the CPU
    // fallback below must not absorb them).
    if (opt.cancel != nullptr) {
      KCORE_RETURN_IF_ERROR(opt.cancel->Check("single-k entry"));
    }
    sim::DeviceArray<EdgeIndex> d_offsets;
    sim::DeviceArray<VertexId> d_neighbors;
    sim::DeviceArray<uint32_t> d_deg;
    sim::DeviceArray<VertexId> d_buf;
    sim::DeviceArray<uint64_t> d_buf_e;
    sim::DeviceArray<uint64_t> d_count;
    sim::DeviceArray<uint32_t> d_overflow;
    KCORE_ASSIGN_OR_RETURN(d_offsets, device->AllocUninit<EdgeIndex>(
                                          graph.offsets().size(), "offsets"));
    KCORE_ASSIGN_OR_RETURN(
        d_neighbors,
        device->AllocUninit<VertexId>(
            std::max<size_t>(1, graph.neighbors().size()), "neighbors"));
    KCORE_ASSIGN_OR_RETURN(
        d_deg, device->AllocUninit<uint32_t>(std::max<VertexId>(1, n), "deg"));
    KCORE_ASSIGN_OR_RETURN(
        d_buf,
        device->AllocUninit<VertexId>(
            static_cast<uint64_t>(opt.num_blocks) * capacity, "buf"));
    KCORE_ASSIGN_OR_RETURN(
        d_buf_e, device->AllocUninit<uint64_t>(opt.num_blocks, "buf_e"));
    KCORE_ASSIGN_OR_RETURN(d_count, device->Alloc<uint64_t>(1, "count"));
    KCORE_ASSIGN_OR_RETURN(d_overflow, device->Alloc<uint32_t>(1, "overflow"));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_offsets.CopyFromHost(graph.offsets()); }));
    KCORE_RETURN_IF_ERROR(with_retry(
        [&] { return d_neighbors.CopyFromHost(graph.neighbors()); }));
    const std::vector<uint32_t> host_deg = graph.DegreeArray();
    KCORE_RETURN_IF_ERROR(with_retry([&] {
      return d_deg.CopyFromHost(std::span<const uint32_t>(host_deg));
    }));

    KernelCtx ctx;
    ctx.offsets = d_offsets.data();
    ctx.neighbors = d_neighbors.data();
    ctx.deg = d_deg.data();
    ctx.buf = d_buf.data();
    ctx.buf_e = d_buf_e.data();
    ctx.gpu_count = d_count.data();
    ctx.overflow = d_overflow.data();
    ctx.capacity = capacity;
    ctx.num_vertices = n;
    ctx.scan_below = true;
    ctx.ring = opt.ring_buffer;
    ctx.sm = opt.shared_memory_buffering;
    ctx.shared_capacity = opt.shared_buffer_capacity;
    ctx.append = opt.append;
    ctx.expand = opt.expand_strategy;
    ctx.block_threshold = opt.block_expand_threshold;

    sim::SimProfiler* const prof = device->profiler();
    double phase_mark = device->modeled_ms();
    const auto charge = [&](double& phase_ms) {
      const double now = device->modeled_ms();
      phase_ms += now - phase_mark;
      phase_mark = now;
    };

    // One scan+loop pair total. The scan seeds every block buffer with its
    // deg < k vertices (Xiang's initial deletion stack); the loop at
    // threshold k-1 is the cascade verbatim — skip du <= k-1 (already
    // deleted), decrement survivors, append on old == k (u just crossed
    // below k), roll back on overshoot.
    {
      sim::ProfRange scan_range(prof, "scan");
      KCORE_RETURN_IF_ERROR(with_retry([&] {
        return device->Launch(opt.num_blocks, opt.block_dim, "scan",
                              [&](auto& block) { ScanKernel(ctx, k, block); });
      }));
      charge(result.metrics.scan_ms);
    }
    {
      const bool vp = opt.vertex_prefetching;
      const bool binned = opt.expand_strategy != ExpandStrategy::kWarp;
      sim::ProfRange loop_range(prof, "loop");
      KCORE_RETURN_IF_ERROR(with_retry([&] {
        return device->Launch(opt.num_blocks, opt.block_dim, "loop",
                              [&](auto& block) {
                                if (binned) {
                                  LoopKernelBinned(ctx, k - 1, vp, block);
                                } else {
                                  LoopKernel(ctx, k - 1, vp, block);
                                }
                              });
      }));
      charge(result.metrics.loop_ms);
    }

    uint32_t overflow = 0;
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return d_overflow.CopyToHost({&overflow, 1}); }));
    if (overflow != 0) {
      return Status::CapacityExceeded(StrFormat(
          "block buffer overflow mining k=%u (capacity %llu IDs%s)", k,
          static_cast<unsigned long long>(capacity),
          opt.ring_buffer ? ", ring" : ""));
    }
    final_deg.resize(n);
    KCORE_RETURN_IF_ERROR(with_retry(
        [&] { return d_deg.CopyToHost(std::span<uint32_t>(final_deg)); }));
    return Status::OK();
  };

  if (Status st = run(); !st.ok()) {
    if (resilient && opt.resilience.cpu_fallback &&
        (st.IsOutOfMemory() || st.IsUnavailable() || st.IsDeviceLost())) {
      // Graceful degradation: the query is stateless (no checkpoint to
      // resume from), so the fallback is simply the CPU algorithm from
      // scratch.
      WallTimer recovery;
      if (sim::SimProfiler* const prof = device->profiler()) {
        prof->Mark(StrFormat("single_k_cpu_fallback k=%u", k));
      }
      SingleKCoreResult cpu = XiangSingleKCore(graph, k);
      cpu.metrics.degraded = true;
      if (st.IsDeviceLost()) ++cpu.metrics.devices_lost;
      cpu.metrics.retries = result.metrics.retries;
      cpu.metrics.cpu_fallback_levels = 1;
      cpu.metrics.counters += device->totals();
      cpu.metrics.modeled_ms += device->modeled_ms();
      cpu.metrics.peak_device_bytes =
          std::max(cpu.metrics.peak_device_bytes, device->peak_bytes());
      cpu.metrics.recovery_ms = recovery.ElapsedMillis();
      cpu.metrics.wall_ms = timer.ElapsedMillis();
      return cpu;
    }
    return st;
  }

  // deg >= k now means "survived the cascade": exactly the k-core.
  result.in_core.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (final_deg[v] >= k) {
      result.in_core[v] = 1;
      result.vertices.push_back(v);
    }
  }
  result.metrics.rounds = 1;
  result.metrics.counters = device->totals();
  result.metrics.modeled_ms = device->modeled_ms();
  result.metrics.peak_device_bytes = device->peak_bytes();
  result.metrics.wall_ms = timer.ElapsedMillis();
  // Under --simcheck / check_mode, a detected violation fails the run.
  KCORE_RETURN_IF_ERROR(device->CheckStatus());
  return result;
}

StatusOr<SingleKCoreResult> RunGpuSingleKCore(
    const CsrGraph& graph, uint32_t k, const GpuPeelOptions& options,
    const sim::DeviceOptions& device_options) {
  sim::Device device(device_options);
  return GpuSingleKCore(graph, k, options, &device);
}

}  // namespace kcore
