// kcore_cli — command-line front end for the library.
//
//   kcore_cli stats      <edge_list>            graph statistics (Table I row)
//   kcore_cli decompose  <edge_list> [engine]   core numbers + metrics
//   kcore_cli shells     <edge_list>            shell-size histogram
//   kcore_cli hierarchy  <edge_list>            HCD forest summary
//   kcore_cli extract    <edge_list> <k> <out>  write the k-core's edge list
//
// Engines: gpu (default), bz, pkc, pkc-o, park, mpm, vetga, multigpu,
// cluster; plus xiang (single-k queries only, see --k below).
// Edge lists are SNAP-style text; IDs are recoded densely.
//
// --k=<K> (decompose, gpu/xiang engines): direct single-k core mining — the
// K-core's membership without a full decomposition. gpu runs one scan+loop
// kernel pair on the simulated device (src/core/gpu_peel.h GpuSingleKCore);
// xiang is the sort-free linear CPU algorithm (src/cpu/xiang.h). Composes
// with --simcheck, --faults, --expand, --renumber, --trace/--prof-summary
// on the gpu engine.
//
// --renumber (decompose, gpu/multigpu engines): degree-ordered vertex
// renumbering before peeling (src/graph/renumber.h) — core numbers are
// mapped back to the original IDs, so the output is unchanged; the run
// prints the loop imbalance the reordering is meant to shrink.
//
// --fuse (decompose, gpu engine): fuse the per-round scan and active-list
// compaction into one kernel launch and skip loop launches on empty
// k-shells (GpuPeelOptions::fuse_scan_compact); prints the launch counters
// the fusion is meant to cut.
//
// --simcheck (decompose, GPU engines only): runs the engine with the
// simulated-device sanitizer enabled (memcheck/initcheck/racecheck/
// synccheck, see src/cusim/simcheck.h); a detected violation fails the run
// with a report and a nonzero exit.
//
// --faults=<spec> (decompose, gpu/multigpu engines): attaches a fault plan
// to the simulated device(s) (see src/cusim/fault_injection.h for the
// grammar, e.g. --faults='launch_fail@3;bitflip:launch=12') and prints a
// recovery summary — retries, checkpoints, re-executed levels, devices
// lost, CPU-fallback levels — after the run. Composes with --simcheck.
//
// --expand=<thread|warp|block|auto> (decompose, gpu engine): loop-phase
// frontier expansion granularity (DESIGN.md §8). warp is the paper's Alg. 3
// path and the default; auto bins each frontier window by degree. The run
// prints the bin counters and the loop imbalance ratio. The scale-out
// engines (multigpu, cluster) reject it: their lanes do not run the loop
// kernel.
//
// --nodes=<N> / --partition=<contiguous|degree|edgecut> (decompose, cluster
// engine): cluster shape and partition strategy for the simulated
// multi-node engine (src/cluster/cluster_peel.h, DESIGN.md §14). The run
// prints the network totals — comm ms / bytes on wire / aggregated link
// messages — and the comm/compute ratio, so partition quality is visible
// from the command line. Composes with --simcheck, --faults (node loss →
// repartition onto survivors), --trace/--prof-summary and --timeout-ms.
//
// --timeout-ms=<N> (decompose, GPU engines): gives the run a wall-clock
// deadline (common/cancellation.h). The engine checks it at every peel
// round boundary; an expired run stops within one round, releases the
// device, and the command exits nonzero with a structured one-line error.
//
// Exit codes: 0 success, 1 error (structured one-line `error code=...` on
// stderr), 2 usage, 4 degraded success — the answer is exact and printed,
// but the engine finished on the CPU fallback after device faults, which
// scripts watching for silent GPU degradation need to see.
//
// --trace=<path> (decompose, GPU engines): records the run with simprof
// (the Nsight-Systems analogue, see src/cusim/simprof.h) and writes a
// chrome://tracing JSON timeline to <path> — open it in Perfetto
// (ui.perfetto.dev) or chrome://tracing. --prof-summary prints the
// `nsys stats`-style per-kernel table instead of (or alongside) the file.
// Both compose with --simcheck, --faults and --expand.
//
// --updates=<file> (decompose, gpu engine): incremental streaming mode.
// Instead of one static decomposition, the initial graph is decomposed
// once, then the update stream (`+ u v` / `- u v` lines, see
// src/graph/edge_update.h) is applied in batches of --update-batch (default
// 64) on the GPU-resident incremental engine (src/core/incremental_core.h).
// Each committed epoch prints one line; the final coreness is verified
// against a fresh BZ of the updated graph. Composes with --simcheck,
// --faults and --timeout-ms.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>

#include "analysis/core_analysis.h"
#include "analysis/hierarchy.h"
#include "cluster/cluster_peel.h"
#include "common/cancellation.h"
#include "common/strings.h"
#include "core/gpu_peel.h"
#include "core/incremental_core.h"
#include "core/multi_gpu_peel.h"
#include "core/single_k.h"
#include "cpu/bz.h"
#include "cpu/mpm.h"
#include "cpu/park.h"
#include "cpu/pkc.h"
#include "graph/edge_update.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "vetga/vetga.h"

namespace {

using namespace kcore;

int Usage() {
  std::fprintf(stderr,
               "usage: kcore_cli <stats|decompose|shells|hierarchy|extract> "
               "<edge_list> [args]\n"
               "  decompose <edge_list> [gpu|bz|pkc|pkc-o|park|mpm|vetga|"
               "multigpu|cluster|xiang] [--simcheck] [--faults=<spec>]\n"
               "            [--expand=<thread|warp|block|auto> (gpu only)] "
               "[--k=<K>] [--renumber] [--fuse]\n"
               "            [--nodes=<N>] "
               "[--partition=<contiguous|degree|edgecut>]\n"
               "            [--trace=<out.json>] [--prof-summary] "
               "[--timeout-ms=<N>]\n"
               "            [--updates=<stream>] [--update-batch=<N>]\n"
               "  extract   <edge_list> <k> <output_edge_list>\n");
  return 2;
}

/// One-line machine-greppable error report: `error code=<Code> msg="..."`.
/// Every nonzero CLI exit goes through here (or Usage), so scripts can key
/// on the code instead of parsing prose.
void PrintError(const Status& status) {
  std::fprintf(stderr, "error code=%s msg=\"%s\"\n",
               StatusCodeToString(status.code()), status.message().c_str());
}

/// Degraded-success report (exit 4): the printed answer is exact, but the
/// engine finished on its CPU fallback after device faults.
void PrintDegraded(const char* what) {
  std::fprintf(stderr, "error code=DegradedSuccess msg=\"%s\"\n", what);
}

/// Strict parse of the --k flag value: digits only, value >= 1. Errors carry
/// the offending token in the same InvalidArgument context style as the
/// graph loader's.
StatusOr<uint32_t> ParseK(const std::string& raw) {
  if (raw.empty()) {
    return Status::InvalidArgument("--k=: empty k token (want --k=<K>, K >= 1)");
  }
  uint64_t value = 0;
  for (char ch : raw) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument(
          StrFormat("--k=%s: non-numeric k token: '%s'", raw.c_str(),
                    raw.c_str()));
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > 0xFFFFFFFFull) {
      return Status::InvalidArgument(
          StrFormat("--k=%s: k token overflows uint32", raw.c_str()));
    }
  }
  if (value < 1) {
    return Status::InvalidArgument(StrFormat(
        "--k=%s: k must be >= 1 (the 0-core is every vertex)", raw.c_str()));
  }
  return static_cast<uint32_t>(value);
}

/// Strict parse of the --timeout-ms flag value: digits only. 0 is legal (an
/// already-expired deadline — deterministic fail-fast, used by tests).
StatusOr<uint64_t> ParseTimeoutMillis(const std::string& raw) {
  if (raw.empty()) {
    return Status::InvalidArgument(
        "--timeout-ms=: empty token (want --timeout-ms=<N>)");
  }
  uint64_t value = 0;
  for (char ch : raw) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument(StrFormat(
          "--timeout-ms=%s: non-numeric timeout token", raw.c_str()));
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > 0xFFFFFFFFull) {
      return Status::InvalidArgument(StrFormat(
          "--timeout-ms=%s: timeout overflows uint32", raw.c_str()));
    }
  }
  return value;
}

/// Strict parse of the --nodes flag value: digits only, value >= 1.
StatusOr<uint32_t> ParseNodes(const std::string& raw) {
  if (raw.empty()) {
    return Status::InvalidArgument(
        "--nodes=: empty token (want --nodes=<N>, N >= 1)");
  }
  uint64_t value = 0;
  for (char ch : raw) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument(
          StrFormat("--nodes=%s: non-numeric node count", raw.c_str()));
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > 0xFFFFFFFFull) {
      return Status::InvalidArgument(
          StrFormat("--nodes=%s: node count overflows uint32", raw.c_str()));
    }
  }
  if (value < 1) {
    return Status::InvalidArgument(
        StrFormat("--nodes=%s: node count must be >= 1", raw.c_str()));
  }
  return static_cast<uint32_t>(value);
}

StatusOr<BuiltGraph> Load(const char* path) {
  KCORE_ASSIGN_OR_RETURN(EdgeList edges, LoadEdgeListText(path));
  return BuildGraph(edges);
}

StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                    const std::string& engine, bool simcheck,
                                    const std::string& faults,
                                    const std::string& expand, bool renumber,
                                    bool fuse, const std::string& trace_path,
                                    bool prof_summary,
                                    const std::string& nodes_token,
                                    const std::string& partition_token,
                                    const CancelContext* cancel,
                                    std::string* summary) {
  if (engine == "xiang") {
    return Status::InvalidArgument(
        "engine xiang answers single-k queries only; pass --k=<K>");
  }
  if (renumber && engine != "gpu" && engine != "multigpu") {
    return Status::InvalidArgument(
        "--renumber only applies to the peeling GPU engines (gpu, multigpu)");
  }
  if (fuse && engine != "gpu") {
    return Status::InvalidArgument(
        "--fuse only applies to the gpu engine (scan->compact kernel fusion)");
  }
  if (simcheck && engine != "gpu" && engine != "vetga" &&
      engine != "multigpu" && engine != "cluster") {
    return Status::InvalidArgument(
        "--simcheck only applies to the GPU engines (gpu, vetga, multigpu, "
        "cluster)");
  }
  const bool profiling = !trace_path.empty() || prof_summary;
  if (profiling && engine != "gpu" && engine != "vetga" &&
      engine != "multigpu" && engine != "cluster") {
    return Status::InvalidArgument(
        "--trace/--prof-summary only apply to the GPU engines "
        "(gpu, vetga, multigpu, cluster)");
  }
  if (!faults.empty() && engine != "gpu" && engine != "multigpu" &&
      engine != "cluster") {
    return Status::InvalidArgument(
        "--faults only applies to the resilient GPU engines (gpu, multigpu, "
        "cluster)");
  }
  if (cancel != nullptr && engine != "gpu" && engine != "vetga" &&
      engine != "multigpu" && engine != "cluster") {
    return Status::InvalidArgument(
        "--timeout-ms only applies to the GPU engines (gpu, vetga, multigpu, "
        "cluster), which check the deadline at round boundaries");
  }
  if ((!nodes_token.empty() || !partition_token.empty()) &&
      engine != "cluster") {
    return Status::InvalidArgument(
        "--nodes/--partition only apply to the cluster engine");
  }
  ExpandStrategy expand_strategy = ExpandStrategy::kWarp;
  if (!expand.empty()) {
    if (engine != "gpu") {
      return Status::InvalidArgument(
          "--expand only applies to the gpu engine (the scale-out engines "
          "do not run the loop kernel)");
    }
    if (!ParseExpandStrategy(expand, &expand_strategy)) {
      return Status::InvalidArgument("unknown --expand strategy: " + expand +
                                     " (want thread|warp|block|auto)");
    }
  }
  // Writes/summarizes a finished trace per the requested flags.
  const auto finish_trace = [&](const Trace& trace) -> Status {
    if (!trace_path.empty()) {
      KCORE_RETURN_IF_ERROR(trace.WriteChromeTrace(trace_path));
    }
    if (prof_summary) *summary = trace.KernelSummaryTable();
    return Status::OK();
  };
  if (engine == "gpu") {
    sim::DeviceOptions device_options;
    device_options.check_mode = simcheck;
    device_options.fault_spec = faults;
    device_options.profile = profiling;
    GpuPeelOptions options;
    options.expand_strategy = expand_strategy;
    options.renumber = renumber;
    options.fuse_scan_compact = fuse;
    options.cancel = cancel;
    sim::Device device(device_options);
    GpuPeelDecomposer decomposer(&device, options);
    auto result = decomposer.Decompose(graph);
    if (result.ok() && profiling && device.profiler() != nullptr) {
      KCORE_RETURN_IF_ERROR(finish_trace(device.profiler()->trace()));
    }
    return result;
  }
  if (engine == "bz") return RunBz(graph);
  if (engine == "pkc") return RunPkc(graph);
  if (engine == "pkc-o") {
    PkcOptions options;
    options.variant = PkcVariant::kOriginal;
    return RunPkc(graph, options);
  }
  if (engine == "park") return RunParK(graph);
  if (engine == "mpm") return RunMpm(graph);
  if (engine == "vetga") {
    VetgaConfig config;
    config.device.check_mode = simcheck;
    config.cancel = cancel;
    Trace trace;
    if (profiling) config.trace = &trace;
    auto result = RunVetga(graph, config);
    if (result.ok() && profiling) {
      KCORE_RETURN_IF_ERROR(finish_trace(trace));
    }
    return result;
  }
  if (engine == "multigpu") {
    MultiGpuOptions options;
    options.worker_device.check_mode = simcheck;
    options.worker_device.fault_spec = faults;
    options.renumber = renumber;
    options.cancel = cancel;
    Trace trace;
    if (profiling) options.trace = &trace;
    auto result = RunMultiGpuPeel(graph, options);
    if (result.ok() && profiling) {
      KCORE_RETURN_IF_ERROR(finish_trace(trace));
    }
    return result;
  }
  if (engine == "cluster") {
    ClusterOptions options;
    options.node_device.check_mode = simcheck;
    options.node_device.fault_spec = faults;
    options.cancel = cancel;
    if (!nodes_token.empty()) {
      KCORE_ASSIGN_OR_RETURN(options.num_nodes, ParseNodes(nodes_token));
    }
    if (!partition_token.empty() &&
        !ParsePartitionStrategy(partition_token, &options.partition)) {
      return Status::InvalidArgument(
          "unknown --partition strategy: " + partition_token +
          " (want contiguous|degree|edgecut)");
    }
    Trace trace;
    if (profiling) options.trace = &trace;
    auto result = RunClusterPeel(graph, options);
    if (result.ok() && profiling) {
      KCORE_RETURN_IF_ERROR(finish_trace(trace));
    }
    return result;
  }
  return Status::InvalidArgument("unknown engine: " + engine);
}

/// Routes a --k single-k query through the SingleKCore entry point
/// (src/core/single_k.h). gpu composes with the device flags; xiang is pure
/// CPU and rejects them.
StatusOr<SingleKCoreResult> SingleK(const CsrGraph& graph,
                                    const std::string& engine, uint32_t k,
                                    bool simcheck, const std::string& faults,
                                    const std::string& expand, bool renumber,
                                    const std::string& trace_path,
                                    bool prof_summary,
                                    const CancelContext* cancel,
                                    std::string* summary) {
  if (engine != "gpu" && engine != "xiang") {
    return Status::InvalidArgument(
        "--k single-k mining supports the gpu and xiang engines only (got " +
        engine + ")");
  }
  if (engine == "xiang") {
    if (simcheck || !faults.empty() || !expand.empty() || renumber ||
        !trace_path.empty() || prof_summary || cancel != nullptr) {
      return Status::InvalidArgument(
          "device flags (--simcheck/--faults/--expand/--renumber/--trace/"
          "--prof-summary/--timeout-ms) do not apply to the xiang CPU engine");
    }
    SingleKOptions options;
    options.engine = SingleKEngine::kCpu;
    return SingleKCore(graph, k, options);
  }
  SingleKOptions options;
  options.engine = SingleKEngine::kGpu;
  options.gpu.renumber = renumber;
  options.gpu.cancel = cancel;
  if (!expand.empty() &&
      !ParseExpandStrategy(expand, &options.gpu.expand_strategy)) {
    return Status::InvalidArgument("unknown --expand strategy: " + expand +
                                   " (want thread|warp|block|auto)");
  }
  sim::DeviceOptions device_options;
  device_options.check_mode = simcheck;
  device_options.fault_spec = faults;
  device_options.profile = !trace_path.empty() || prof_summary;
  sim::Device device(device_options);
  options.device = &device;
  auto result = SingleKCore(graph, k, options);
  if (result.ok() && device.profiler() != nullptr) {
    const Trace& trace = device.profiler()->trace();
    if (!trace_path.empty()) {
      KCORE_RETURN_IF_ERROR(trace.WriteChromeTrace(trace_path));
    }
    if (prof_summary) *summary = trace.KernelSummaryTable();
  }
  return result;
}

int CmdStats(const CsrGraph& graph) {
  const GraphStats stats = ComputeGraphStats(graph);
  const DecomposeResult result = RunBz(graph);
  std::printf("|V|      %s\n|E|      %s\nd_avg    %.2f\nd_std    %.2f\n"
              "d_max    %u\nk_max    %u\n",
              WithCommas(stats.num_vertices).c_str(),
              WithCommas(stats.num_edges).c_str(), stats.avg_degree,
              stats.degree_stddev, stats.max_degree, result.MaxCore());
  return 0;
}

int CmdDecompose(const CsrGraph& graph, const std::string& engine,
                 bool simcheck, const std::string& faults,
                 const std::string& expand, bool renumber, bool fuse,
                 const std::string& trace_path, bool prof_summary,
                 const std::string& nodes_token,
                 const std::string& partition_token,
                 const CancelContext* cancel) {
  std::string summary;
  auto result = Decompose(graph, engine, simcheck, faults, expand, renumber,
                          fuse, trace_path, prof_summary, nodes_token,
                          partition_token, cancel, &summary);
  if (!result.ok()) {
    PrintError(result.status());
    return 1;
  }
  std::printf("engine       %s\nk_max        %u\nrounds       %u\n"
              "modeled_ms   %.3f\nwall_ms      %.3f\npeak_device  %s\n",
              engine.c_str(), result->MaxCore(), result->metrics.rounds,
              result->metrics.modeled_ms, result->metrics.wall_ms,
              HumanBytes(result->metrics.peak_device_bytes).c_str());
  if (simcheck) std::printf("simcheck     clean\n");
  if (renumber) {
    std::printf("--- renumber ---\n"
                "renumber        degree-ordered\n"
                "loop_imbalance  %.3f\n",
                result->metrics.loop_imbalance);
  }
  if (fuse) {
    const PerfCounters& c = result->metrics.counters;
    std::printf("--- fusion ---\n"
                "kernel_launches %llu\n"
                "compactions     %llu\n",
                static_cast<unsigned long long>(c.kernel_launches),
                static_cast<unsigned long long>(c.compactions));
  }
  if (!expand.empty()) {
    const PerfCounters& c = result->metrics.counters;
    std::printf("--- expansion ---\n"
                "expand          %s\n"
                "bin_thread      %llu\n"
                "bin_warp        %llu\n"
                "bin_block       %llu\n"
                "loop_imbalance  %.3f\n",
                expand.c_str(),
                static_cast<unsigned long long>(c.loop_bin_thread),
                static_cast<unsigned long long>(c.loop_bin_warp),
                static_cast<unsigned long long>(c.loop_bin_block),
                result->metrics.loop_imbalance);
  }
  if (!faults.empty()) {
    const Metrics& m = result->metrics;
    std::printf("--- recovery summary ---\n"
                "retries             %u\n"
                "checkpoints_taken   %u\n"
                "levels_reexecuted   %u\n"
                "devices_lost        %u\n"
                "cpu_fallback_levels %u\n"
                "recovery_ms         %.3f\n"
                "degraded            %s\n",
                m.retries, m.checkpoints_taken, m.levels_reexecuted,
                m.devices_lost, m.cpu_fallback_levels, m.recovery_ms,
                m.degraded ? "yes (finished on CPU warm-start)" : "no");
  }
  if (engine == "cluster") {
    const Metrics& m = result->metrics;
    const double compute_ms = m.modeled_ms - m.comm_ms;
    std::printf("--- cluster ---\n"
                "nodes           %s\n"
                "partition       %s\n"
                "comm_ms         %.3f\n"
                "comm_bytes      %s\n"
                "comm_messages   %llu\n"
                "comm/compute    %.3f\n",
                nodes_token.empty() ? "2" : nodes_token.c_str(),
                partition_token.empty() ? "degree" : partition_token.c_str(),
                m.comm_ms, HumanBytes(m.comm_bytes).c_str(),
                static_cast<unsigned long long>(m.comm_messages),
                compute_ms > 0.0 ? m.comm_ms / compute_ms : 0.0);
  }
  if (!trace_path.empty()) std::printf("trace        %s\n", trace_path.c_str());
  if (prof_summary) {
    std::printf("--- kernel summary ---\n%s", summary.c_str());
  }
  if (result->metrics.degraded) {
    // The printed answer is exact, but the GPU run did not survive on its
    // own — scripts must be able to see that without parsing the table.
    PrintDegraded("decomposition finished on the CPU fallback after device "
                  "faults; answer exact");
    return 4;
  }
  return 0;
}

int CmdSingleK(const CsrGraph& graph, const std::string& engine, uint32_t k,
               bool simcheck, const std::string& faults,
               const std::string& expand, bool renumber,
               const std::string& trace_path, bool prof_summary,
               const CancelContext* cancel) {
  std::string summary;
  auto result = SingleK(graph, engine, k, simcheck, faults, expand, renumber,
                        trace_path, prof_summary, cancel, &summary);
  if (!result.ok()) {
    PrintError(result.status());
    return 1;
  }
  std::printf("engine       %s\nk            %u\ncore_size    %s\n"
              "modeled_ms   %.3f\nwall_ms      %.3f\npeak_device  %s\n",
              engine.c_str(), result->k,
              WithCommas(result->vertices.size()).c_str(),
              result->metrics.modeled_ms, result->metrics.wall_ms,
              HumanBytes(result->metrics.peak_device_bytes).c_str());
  if (simcheck) std::printf("simcheck     clean\n");
  if (!faults.empty()) {
    const Metrics& m = result->metrics;
    std::printf("--- recovery summary ---\n"
                "retries             %u\n"
                "devices_lost        %u\n"
                "cpu_fallback_levels %u\n"
                "recovery_ms         %.3f\n"
                "degraded            %s\n",
                m.retries, m.devices_lost, m.cpu_fallback_levels,
                m.recovery_ms,
                m.degraded ? "yes (answered by CPU xiang)" : "no");
  }
  if (!trace_path.empty()) std::printf("trace        %s\n", trace_path.c_str());
  if (prof_summary) {
    std::printf("--- kernel summary ---\n%s", summary.c_str());
  }
  if (result->metrics.degraded) {
    PrintDegraded("k-core answered by the CPU (xiang) after device faults; "
                  "answer exact");
    return 4;
  }
  return 0;
}

/// Incremental streaming mode (`decompose --updates=<file>`): the initial
/// graph is decomposed once, then the stream is applied batch by batch on
/// the GPU-resident incremental engine, one printed line per committed
/// epoch, with a final bit-for-bit verification against the BZ oracle.
int CmdUpdates(const BuiltGraph& built, const std::string& engine,
               const std::string& updates_path, uint64_t batch_size,
               bool simcheck, const std::string& faults,
               const CancelContext* cancel) {
  const CsrGraph& graph = built.graph;
  if (engine != "gpu") {
    PrintError(Status::InvalidArgument(
        "--updates applies to the gpu engine (the incremental maintenance "
        "engine); got " + engine));
    return 1;
  }
  auto stream = LoadUpdateStreamText(updates_path);
  if (!stream.ok()) {
    PrintError(stream.status());
    return 1;
  }
  // Update endpoints arrive in the edge list's original ID space; the
  // builder recoded those densely, so remap before touching the engine.
  // Unknown IDs are rejected: the resident device graph has a fixed vertex
  // set, streaming cannot grow it.
  if (!built.original_ids.empty()) {
    std::unordered_map<uint64_t, VertexId> to_dense;
    to_dense.reserve(built.original_ids.size());
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      to_dense[built.original_ids[v]] = v;
    }
    for (size_t i = 0; i < stream->size(); ++i) {
      EdgeUpdate& e = (*stream)[i];
      const auto iu = to_dense.find(e.u);
      const auto iv = to_dense.find(e.v);
      if (iu == to_dense.end() || iv == to_dense.end()) {
        PrintError(Status::InvalidArgument(StrFormat(
            "update %zu: endpoint %u is not in the graph's vertex set "
            "(streaming mode cannot add vertices)",
            i, iu == to_dense.end() ? e.u : e.v)));
        return 1;
      }
      e.u = iu->second;
      e.v = iv->second;
    }
  }
  sim::DeviceOptions device_options;
  device_options.check_mode = simcheck;
  device_options.fault_spec = faults;
  IncrementalOptions options;
  options.cancel = cancel;
  auto engine_or = IncrementalCoreEngine::Create(graph, options,
                                                 device_options);
  if (!engine_or.ok()) {
    PrintError(engine_or.status());
    return 1;
  }
  auto& inc = *engine_or;
  double total_modeled_ms = 0.0;
  uint64_t total_changed = 0;
  uint64_t full_repeels = 0;
  bool degraded_any = false;
  for (size_t off = 0; off < stream->size(); off += batch_size) {
    const size_t len =
        std::min<size_t>(batch_size, stream->size() - off);
    auto result = inc->ApplyUpdates(
        std::span<const EdgeUpdate>(stream->data() + off, len));
    if (!result.ok()) {
      PrintError(result.status());
      return 1;
    }
    std::printf("epoch %-4llu  updates %-4zu  changed %-6zu  affected %-6llu"
                "  modeled %8.3f ms%s%s%s\n",
                static_cast<unsigned long long>(result->epoch), len,
                result->changed.size(),
                static_cast<unsigned long long>(result->affected),
                result->metrics.modeled_ms,
                result->full_repeel ? "  [full re-peel]" : "",
                result->compacted ? "  [compacted]" : "",
                result->degraded ? "  [degraded]" : "");
    total_modeled_ms += result->metrics.modeled_ms;
    total_changed += result->changed.size();
    full_repeels += result->full_repeel ? 1 : 0;
    degraded_any |= result->degraded;
  }
  // The stream's end state must match a from-scratch decomposition — the
  // CLI doubles as a smoke harness for the incremental path.
  const DecomposeResult oracle = RunBz(inc->CurrentGraph());
  if (oracle.core != inc->core()) {
    PrintError(Status::Internal(
        "incremental coreness diverged from the BZ oracle"));
    return 1;
  }
  std::printf("engine       gpu-incremental\nupdates      %s\n"
              "epochs       %llu\nk_max        %u\nchanged      %s\n"
              "full_repeels %llu\nmodeled_ms   %.3f\nverify       ok (bz)\n",
              WithCommas(stream->size()).c_str(),
              static_cast<unsigned long long>(inc->epoch()), oracle.MaxCore(),
              WithCommas(total_changed).c_str(),
              static_cast<unsigned long long>(full_repeels),
              total_modeled_ms);
  if (simcheck) std::printf("simcheck     clean\n");
  if (degraded_any) {
    PrintDegraded("one or more update batches finished on the exact CPU "
                  "path after device faults; answers exact");
    return 4;
  }
  return 0;
}

int CmdShells(const CsrGraph& graph) {
  const DecomposeResult result = RunBz(graph);
  const auto histogram = CoreHistogram(result.core);
  std::printf("k-shell sizes (k: count)\n");
  for (size_t k = 0; k < histogram.size(); ++k) {
    if (histogram[k] != 0) {
      std::printf("%4zu: %s\n", k, WithCommas(histogram[k]).c_str());
    }
  }
  return 0;
}

int CmdHierarchy(const CsrGraph& graph) {
  const DecomposeResult result = RunBz(graph);
  const CoreHierarchy hierarchy = BuildCoreHierarchy(graph, result.core);
  std::printf("HCD forest: %zu nodes\n", hierarchy.nodes.size());
  uint32_t roots = 0;
  for (const auto& node : hierarchy.nodes) roots += node.parent < 0;
  std::printf("roots (connected components incl. isolated): %u\n", roots);
  // Print the densest few components.
  size_t printed = 0;
  for (size_t i = 0; i < hierarchy.nodes.size() && printed < 10; ++i) {
    const auto& node = hierarchy.nodes[i];
    std::printf("  node %zu: k=%u, own vertices %zu, parent %d\n", i, node.k,
                node.vertices.size(), node.parent);
    ++printed;
  }
  return 0;
}

int CmdExtract(const BuiltGraph& built, uint32_t k, const char* out_path) {
  const DecomposeResult result = RunBz(built.graph);
  const InducedSubgraph sub = KCoreSubgraph(built.graph, result.core, k);
  EdgeList edges;
  for (VertexId v = 0; v < sub.graph.NumVertices(); ++v) {
    for (VertexId u : sub.graph.Neighbors(v)) {
      if (v < u) {
        const uint64_t ov =
            built.original_ids.empty() ? sub.parent_ids[v]
                                       : built.original_ids[sub.parent_ids[v]];
        const uint64_t ou =
            built.original_ids.empty() ? sub.parent_ids[u]
                                       : built.original_ids[sub.parent_ids[u]];
        edges.push_back({ov, ou});
      }
    }
  }
  const Status status = SaveEdgeListText(edges, out_path);
  if (!status.ok()) {
    PrintError(status);
    return 1;
  }
  std::printf("wrote %zu edges of the %u-core (%u vertices) to %s\n",
              edges.size(), k, sub.graph.NumVertices(), out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract the --simcheck, --faults, --expand, --k, --renumber, --fuse,
  // --trace and --prof-summary flags wherever they appear.
  bool simcheck = false;
  bool prof_summary = false;
  bool renumber = false;
  bool fuse = false;
  bool have_k = false;
  bool have_timeout = false;
  std::string k_token;
  std::string timeout_token;
  std::string faults;
  std::string expand;
  std::string trace_path;
  std::string updates_path;
  std::string update_batch_token;
  std::string nodes_token;
  std::string partition_token;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simcheck") == 0) {
      simcheck = true;
    } else if (std::strcmp(argv[i], "--prof-summary") == 0) {
      prof_summary = true;
    } else if (std::strcmp(argv[i], "--renumber") == 0) {
      renumber = true;
    } else if (std::strcmp(argv[i], "--fuse") == 0) {
      fuse = true;
    } else if (std::strncmp(argv[i], "--k=", 4) == 0) {
      have_k = true;
      k_token = argv[i] + 4;
    } else if (std::strncmp(argv[i], "--timeout-ms=", 13) == 0) {
      have_timeout = true;
      timeout_token = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      faults = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--expand=", 9) == 0) {
      expand = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--updates=", 10) == 0) {
      updates_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--update-batch=", 15) == 0) {
      update_batch_token = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      nodes_token = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--partition=", 12) == 0) {
      partition_token = argv[i] + 12;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (argc < 3) return Usage();
  const std::string command = argv[1];

  auto built = Load(argv[2]);
  if (!built.ok()) {
    PrintError(built.status());
    return 1;
  }

  // One deadline for the whole command: admission-to-answer, enforced by
  // the engine at round boundaries.
  CancelContext lifecycle;
  const CancelContext* cancel = nullptr;
  if (have_timeout) {
    auto timeout_ms = ParseTimeoutMillis(timeout_token);
    if (!timeout_ms.ok()) {
      PrintError(timeout_ms.status());
      return 1;
    }
    lifecycle.deadline =
        Deadline::AfterMillis(static_cast<double>(*timeout_ms));
    cancel = &lifecycle;
  }

  if (cancel != nullptr && command != "decompose") {
    PrintError(Status::InvalidArgument(
        "--timeout-ms applies to the decompose command only"));
    return 1;
  }
  if (command == "stats") return CmdStats(built->graph);
  if (command == "decompose") {
    const std::string engine = argc > 3 ? argv[3] : "gpu";
    if (!updates_path.empty()) {
      if (have_k || fuse || renumber || !expand.empty() ||
          !trace_path.empty() || prof_summary || !nodes_token.empty() ||
          !partition_token.empty()) {
        PrintError(Status::InvalidArgument(
            "--updates streaming mode composes with --simcheck, --faults "
            "and --timeout-ms only"));
        return 1;
      }
      uint64_t batch_size = 64;
      if (!update_batch_token.empty()) {
        auto parsed = ParseTimeoutMillis(update_batch_token);
        if (!parsed.ok() || *parsed == 0) {
          PrintError(Status::InvalidArgument(
              "--update-batch=" + update_batch_token +
              ": want a positive batch size"));
          return 1;
        }
        batch_size = *parsed;
      }
      return CmdUpdates(*built, engine, updates_path, batch_size,
                        simcheck, faults, cancel);
    }
    if (!update_batch_token.empty()) {
      PrintError(Status::InvalidArgument(
          "--update-batch requires --updates=<stream>"));
      return 1;
    }
    if (have_k) {
      auto k = ParseK(k_token);
      if (!k.ok()) {
        PrintError(k.status());
        return 1;
      }
      if (fuse) {
        PrintError(Status::InvalidArgument(
            "--fuse applies to the full decomposition only (single-k mining "
            "has no per-round scan/compact pair to fuse)"));
        return 1;
      }
      if (!nodes_token.empty() || !partition_token.empty()) {
        PrintError(Status::InvalidArgument(
            "--nodes/--partition apply to the full cluster decomposition "
            "only (single-k mining runs on one device)"));
        return 1;
      }
      return CmdSingleK(built->graph, engine, *k, simcheck, faults, expand,
                        renumber, trace_path, prof_summary, cancel);
    }
    return CmdDecompose(built->graph, engine, simcheck, faults, expand,
                        renumber, fuse, trace_path, prof_summary, nodes_token,
                        partition_token, cancel);
  }
  if (command == "shells") return CmdShells(built->graph);
  if (command == "hierarchy") return CmdHierarchy(built->graph);
  if (command == "extract") {
    if (argc < 5) return Usage();
    auto k = ParseK(argv[3]);  // strict: `extract g.txt foo out` used to
    if (!k.ok()) {             // silently become k=0 via atoi
      PrintError(k.status());
      return 1;
    }
    return CmdExtract(*built, *k, argv[4]);
  }
  return Usage();
}
