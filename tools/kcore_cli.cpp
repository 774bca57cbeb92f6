// kcore_cli — command-line front end for the library.
//
//   kcore_cli stats      <edge_list>            graph statistics (Table I row)
//   kcore_cli decompose  <edge_list> [engine]   core numbers + metrics
//   kcore_cli shells     <edge_list>            shell-size histogram
//   kcore_cli hierarchy  <edge_list>            HCD forest summary
//   kcore_cli extract    <edge_list> <k> <out>  write the k-core's edge list
//
// Engines: ParseEngineKind's tokens (src/serve/engine.h) — gpu (default),
// multigpu, cluster, vetga, bz, pkc, park, mpm — plus xiang for --k below.
// Every decompose mode runs through MakeEngine; the CLI only checks which
// flags apply and prints. Edge lists are SNAP-style text; IDs are recoded
// densely.
//
// --k=<K> (decompose, gpu/xiang engines): direct single-k core mining — the
// K-core's membership without a full decomposition (Engine::SingleK). gpu
// runs one scan+loop kernel pair on the simulated device; xiang is the
// sort-free linear CPU algorithm (src/cpu/xiang.h) every host engine
// answers with. Composes with --simcheck, --faults, --expand, --renumber,
// --trace/--prof-summary on the gpu engine.
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
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "analysis/core_analysis.h"
#include "analysis/hierarchy.h"
#include "common/cancellation.h"
#include "common/strings.h"
#include "cpu/bz.h"
#include "graph/edge_update.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "serve/engine.h"

namespace {

using namespace kcore;

int Usage() {
  std::fprintf(stderr,
               "usage: kcore_cli <stats|decompose|shells|hierarchy|extract> "
               "<edge_list> [args]\n"
               "  decompose <edge_list> [gpu|bz|pkc|park|mpm|vetga|"
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

/// Strict parse of a count argument: digits only, fits in uint32, and at
/// least `min`. Errors name the argument and its token in the same
/// InvalidArgument context style as the graph loader's.
StatusOr<uint32_t> ParseCount(const char* flag, const std::string& token,
                              const char* noun, uint32_t min) {
  if (token.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s=: empty %s token", flag, noun));
  }
  uint64_t value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument(StrFormat(
          "%s=%s: non-numeric %s token", flag, token.c_str(), noun));
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > 0xFFFFFFFFull) {
      return Status::InvalidArgument(StrFormat(
          "%s=%s: %s overflows uint32", flag, token.c_str(), noun));
    }
  }
  if (value < min) {
    return Status::InvalidArgument(StrFormat(
        "%s=%s: %s must be >= %u", flag, token.c_str(), noun, min));
  }
  return static_cast<uint32_t>(value);
}

StatusOr<BuiltGraph> Load(const char* path) {
  KCORE_ASSIGN_OR_RETURN(EdgeList edges, LoadEdgeListText(path));
  return BuildGraph(edges);
}

/// The decompose command's engine token and flags, as given.
struct DecomposeFlags {
  std::string engine = "gpu";
  bool simcheck = false;
  bool prof_summary = false;
  bool renumber = false;
  bool fuse = false;
  std::optional<std::string> k;
  std::string faults;
  std::string expand;
  std::string trace_path;
  std::string updates_path;
  std::string update_batch;
  std::string nodes;
  std::string partition;
  /// The command's deadline; nullptr = none.
  const CancelContext* cancel = nullptr;

  bool profiling() const { return !trace_path.empty() || prof_summary; }
  /// True when the engine token is one of `engines`.
  bool EngineIn(std::initializer_list<const char*> engines) const {
    return std::find(engines.begin(), engines.end(), engine) != engines.end();
  }
};

/// The engine configuration the flags describe: the device flags land on
/// every engine's device template, the rest on the options they name.
/// Applicability is checked by the caller.
StatusOr<EngineConfig> MakeConfig(const DecomposeFlags& flags) {
  EngineConfig config;
  config.device.check_mode = flags.simcheck;
  config.device.fault_spec = flags.faults;
  config.multi_gpu.worker_device = config.device;
  config.cluster.node_device = config.device;
  config.vetga.device = config.device;
  config.gpu.renumber = flags.renumber;
  config.multi_gpu.renumber = flags.renumber;
  config.gpu.fuse_scan_compact = flags.fuse;
  if (!flags.expand.empty() &&
      !ParseExpandStrategy(flags.expand, &config.gpu.expand_strategy)) {
    return Status::InvalidArgument("unknown --expand strategy: " +
                                   flags.expand +
                                   " (want thread|warp|block|auto)");
  }
  if (!flags.nodes.empty()) {
    KCORE_ASSIGN_OR_RETURN(
        config.cluster.num_nodes,
        ParseCount("--nodes", flags.nodes, "node count", 1));
  }
  if (!flags.partition.empty() &&
      !ParsePartitionStrategy(flags.partition, &config.cluster.partition)) {
    return Status::InvalidArgument("unknown --partition strategy: " +
                                   flags.partition +
                                   " (want contiguous|degree|edgecut)");
  }
  return config;
}

/// Writes/summarizes a finished run's trace per the requested flags.
Status FinishTrace(const DecomposeFlags& flags, const Trace& trace,
                   std::string* summary) {
  if (!flags.trace_path.empty()) {
    KCORE_RETURN_IF_ERROR(trace.WriteChromeTrace(flags.trace_path));
  }
  if (flags.prof_summary) *summary = trace.KernelSummaryTable();
  return Status::OK();
}

StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                    const DecomposeFlags& flags,
                                    std::string* summary) {
  if (flags.engine == "xiang") {
    return Status::InvalidArgument(
        "engine xiang answers single-k queries only; pass --k=<K>");
  }
  const bool device_engine =
      flags.EngineIn({"gpu", "vetga", "multigpu", "cluster"});
  if (flags.renumber && !flags.EngineIn({"gpu", "multigpu"})) {
    return Status::InvalidArgument(
        "--renumber only applies to the peeling GPU engines (gpu, multigpu)");
  }
  if (flags.fuse && flags.engine != "gpu") {
    return Status::InvalidArgument(
        "--fuse only applies to the gpu engine (scan->compact kernel fusion)");
  }
  if (flags.simcheck && !device_engine) {
    return Status::InvalidArgument(
        "--simcheck only applies to the GPU engines (gpu, vetga, multigpu, "
        "cluster)");
  }
  if (flags.profiling() && !device_engine) {
    return Status::InvalidArgument(
        "--trace/--prof-summary only apply to the GPU engines "
        "(gpu, vetga, multigpu, cluster)");
  }
  if (!flags.faults.empty() &&
      !flags.EngineIn({"gpu", "multigpu", "cluster"})) {
    return Status::InvalidArgument(
        "--faults only applies to the resilient GPU engines (gpu, multigpu, "
        "cluster)");
  }
  if (flags.cancel != nullptr && !device_engine) {
    return Status::InvalidArgument(
        "--timeout-ms only applies to the GPU engines (gpu, vetga, multigpu, "
        "cluster), which check the deadline at round boundaries");
  }
  if ((!flags.nodes.empty() || !flags.partition.empty()) &&
      flags.engine != "cluster") {
    return Status::InvalidArgument(
        "--nodes/--partition only apply to the cluster engine");
  }
  if (!flags.expand.empty() && flags.engine != "gpu") {
    return Status::InvalidArgument(
        "--expand only applies to the gpu engine (the scale-out engines "
        "do not run the loop kernel)");
  }
  KCORE_ASSIGN_OR_RETURN(EngineConfig config, MakeConfig(flags));
  EngineKind kind;
  if (!ParseEngineKind(flags.engine, &kind)) {
    return Status::InvalidArgument("unknown engine: " + flags.engine);
  }
  Trace trace;
  EngineRunContext ctx;
  ctx.cancel = flags.cancel;
  if (flags.profiling()) ctx.trace = &trace;
  auto result = MakeEngine(kind, std::move(config))->Decompose(graph, ctx);
  if (result.ok()) KCORE_RETURN_IF_ERROR(FinishTrace(flags, trace, summary));
  return result;
}

/// A --k single-k query through Engine::SingleK. gpu composes with the
/// device flags; xiang is any host engine's CPU answer and rejects them.
StatusOr<SingleKCoreResult> SingleK(const CsrGraph& graph, uint32_t k,
                                    const DecomposeFlags& flags,
                                    std::string* summary) {
  if (!flags.EngineIn({"gpu", "xiang"})) {
    return Status::InvalidArgument(
        "--k single-k mining supports the gpu and xiang engines only (got " +
        flags.engine + ")");
  }
  if (flags.engine == "xiang") {
    if (flags.simcheck || !flags.faults.empty() || !flags.expand.empty() ||
        flags.renumber || flags.profiling() || flags.cancel != nullptr) {
      return Status::InvalidArgument(
          "device flags (--simcheck/--faults/--expand/--renumber/--trace/"
          "--prof-summary/--timeout-ms) do not apply to the xiang CPU engine");
    }
    return MakeEngine(EngineKind::kBz)->SingleK(graph, k, {});
  }
  KCORE_ASSIGN_OR_RETURN(EngineConfig config, MakeConfig(flags));
  Trace trace;
  EngineRunContext ctx;
  ctx.cancel = flags.cancel;
  if (flags.profiling()) ctx.trace = &trace;
  auto result =
      MakeEngine(EngineKind::kGpu, std::move(config))->SingleK(graph, k, ctx);
  if (result.ok()) KCORE_RETURN_IF_ERROR(FinishTrace(flags, trace, summary));
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

int CmdDecompose(const CsrGraph& graph, const DecomposeFlags& flags) {
  std::string summary;
  auto result = Decompose(graph, flags, &summary);
  if (!result.ok()) {
    PrintError(result.status());
    return 1;
  }
  std::printf("engine       %s\nk_max        %u\nrounds       %u\n"
              "modeled_ms   %.3f\nwall_ms      %.3f\npeak_device  %s\n",
              flags.engine.c_str(), result->MaxCore(), result->metrics.rounds,
              result->metrics.modeled_ms, result->metrics.wall_ms,
              HumanBytes(result->metrics.peak_device_bytes).c_str());
  if (flags.simcheck) std::printf("simcheck     clean\n");
  if (flags.renumber) {
    std::printf("--- renumber ---\n"
                "renumber        degree-ordered\n"
                "loop_imbalance  %.3f\n",
                result->metrics.loop_imbalance);
  }
  if (flags.fuse) {
    const PerfCounters& c = result->metrics.counters;
    std::printf("--- fusion ---\n"
                "kernel_launches %llu\n"
                "compactions     %llu\n",
                static_cast<unsigned long long>(c.kernel_launches),
                static_cast<unsigned long long>(c.compactions));
  }
  if (!flags.expand.empty()) {
    const PerfCounters& c = result->metrics.counters;
    std::printf("--- expansion ---\n"
                "expand          %s\n"
                "bin_thread      %llu\n"
                "bin_warp        %llu\n"
                "bin_block       %llu\n"
                "loop_imbalance  %.3f\n",
                flags.expand.c_str(),
                static_cast<unsigned long long>(c.loop_bin_thread),
                static_cast<unsigned long long>(c.loop_bin_warp),
                static_cast<unsigned long long>(c.loop_bin_block),
                result->metrics.loop_imbalance);
  }
  if (!flags.faults.empty()) {
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
  if (flags.engine == "cluster") {
    const Metrics& m = result->metrics;
    const double compute_ms = m.modeled_ms - m.comm_ms;
    std::printf("--- cluster ---\n"
                "nodes           %s\n"
                "partition       %s\n"
                "comm_ms         %.3f\n"
                "comm_bytes      %s\n"
                "comm_messages   %llu\n"
                "comm/compute    %.3f\n",
                flags.nodes.empty() ? "2" : flags.nodes.c_str(),
                flags.partition.empty() ? "degree" : flags.partition.c_str(),
                m.comm_ms, HumanBytes(m.comm_bytes).c_str(),
                static_cast<unsigned long long>(m.comm_messages),
                compute_ms > 0.0 ? m.comm_ms / compute_ms : 0.0);
  }
  if (!flags.trace_path.empty()) {
    std::printf("trace        %s\n", flags.trace_path.c_str());
  }
  if (flags.prof_summary) {
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

int CmdSingleK(const CsrGraph& graph, uint32_t k,
               const DecomposeFlags& flags) {
  std::string summary;
  auto result = SingleK(graph, k, flags, &summary);
  if (!result.ok()) {
    PrintError(result.status());
    return 1;
  }
  std::printf("engine       %s\nk            %u\ncore_size    %s\n"
              "modeled_ms   %.3f\nwall_ms      %.3f\npeak_device  %s\n",
              flags.engine.c_str(), result->k,
              WithCommas(result->vertices.size()).c_str(),
              result->metrics.modeled_ms, result->metrics.wall_ms,
              HumanBytes(result->metrics.peak_device_bytes).c_str());
  if (flags.simcheck) std::printf("simcheck     clean\n");
  if (!flags.faults.empty()) {
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
  if (!flags.trace_path.empty()) {
    std::printf("trace        %s\n", flags.trace_path.c_str());
  }
  if (flags.prof_summary) {
    std::printf("--- kernel summary ---\n%s", summary.c_str());
  }
  if (result->metrics.degraded) {
    PrintDegraded("k-core answered by the CPU (xiang) after device faults; "
                  "answer exact");
    return 4;
  }
  return 0;
}

/// Incremental streaming mode (`decompose --updates=<file>`): the stream is
/// applied batch by batch through the gpu engine's ApplyUpdates, which
/// decomposes the initial graph once and keeps it device-resident; one
/// printed line per committed epoch, then a bit-for-bit verification of the
/// final coreness against the BZ oracle.
int CmdUpdates(const BuiltGraph& built, const DecomposeFlags& flags,
               uint32_t batch_size) {
  const CsrGraph& graph = built.graph;
  if (flags.engine != "gpu") {
    PrintError(Status::InvalidArgument(
        "--updates applies to the gpu engine (the incremental maintenance "
        "engine); got " + flags.engine));
    return 1;
  }
  auto stream = LoadUpdateStreamText(flags.updates_path);
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
  auto config = MakeConfig(flags);
  if (!config.ok()) {
    PrintError(config.status());
    return 1;
  }
  const std::unique_ptr<Engine> engine =
      MakeEngine(EngineKind::kGpu, std::move(*config));
  EngineRunContext ctx;
  ctx.cancel = flags.cancel;
  uint64_t epochs = 0;
  std::vector<uint32_t> core;
  double total_modeled_ms = 0.0;
  uint64_t total_changed = 0;
  uint64_t full_repeels = 0;
  bool degraded_any = false;
  for (size_t off = 0; off < stream->size(); off += batch_size) {
    const size_t len =
        std::min<size_t>(batch_size, stream->size() - off);
    auto result = engine->ApplyUpdates(
        graph, std::span<const EdgeUpdate>(stream->data() + off, len), ctx);
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
    epochs = result->epoch;
    core = std::move(result->core);
    total_modeled_ms += result->metrics.modeled_ms;
    total_changed += result->changed.size();
    full_repeels += result->full_repeel ? 1 : 0;
    degraded_any |= result->degraded;
  }
  // The stream's end state must match a from-scratch decomposition — the
  // CLI doubles as a smoke harness for the incremental path. An empty
  // stream commits no epoch, so the input graph is the end state.
  const StatusOr<CsrGraph> updated =
      epochs > 0 ? engine->UpdatedGraph() : StatusOr<CsrGraph>(graph);
  if (!updated.ok()) {
    PrintError(updated.status());
    return 1;
  }
  const DecomposeResult oracle = RunBz(*updated);
  if (epochs > 0 && oracle.core != core) {
    PrintError(Status::Internal(
        "incremental coreness diverged from the BZ oracle"));
    return 1;
  }
  std::printf("engine       gpu-incremental\nupdates      %s\n"
              "epochs       %llu\nk_max        %u\nchanged      %s\n"
              "full_repeels %llu\nmodeled_ms   %.3f\nverify       ok (bz)\n",
              WithCommas(stream->size()).c_str(),
              static_cast<unsigned long long>(epochs), oracle.MaxCore(),
              WithCommas(total_changed).c_str(),
              static_cast<unsigned long long>(full_repeels),
              total_modeled_ms);
  if (flags.simcheck) std::printf("simcheck     clean\n");
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

/// Routes `decompose` to its mode: --updates streaming, --k single-k
/// mining, or a full decomposition.
int CmdDecomposeModes(const BuiltGraph& built, const DecomposeFlags& flags) {
  if (!flags.updates_path.empty()) {
    if (flags.k || flags.fuse || flags.renumber || !flags.expand.empty() ||
        flags.profiling() || !flags.nodes.empty() ||
        !flags.partition.empty()) {
      PrintError(Status::InvalidArgument(
          "--updates streaming mode composes with --simcheck, --faults "
          "and --timeout-ms only"));
      return 1;
    }
    uint32_t batch_size = 64;
    if (!flags.update_batch.empty()) {
      auto parsed =
          ParseCount("--update-batch", flags.update_batch, "batch size", 1);
      if (!parsed.ok()) {
        PrintError(parsed.status());
        return 1;
      }
      batch_size = *parsed;
    }
    return CmdUpdates(built, flags, batch_size);
  }
  if (!flags.update_batch.empty()) {
    PrintError(Status::InvalidArgument(
        "--update-batch requires --updates=<stream>"));
    return 1;
  }
  if (!flags.k) return CmdDecompose(built.graph, flags);
  auto k = ParseCount("--k", *flags.k, "k", 1);
  if (!k.ok()) {
    PrintError(k.status());
    return 1;
  }
  if (flags.fuse) {
    PrintError(Status::InvalidArgument(
        "--fuse applies to the full decomposition only (single-k mining "
        "has no per-round scan/compact pair to fuse)"));
    return 1;
  }
  if (!flags.nodes.empty() || !flags.partition.empty()) {
    PrintError(Status::InvalidArgument(
        "--nodes/--partition apply to the full cluster decomposition "
        "only (single-k mining runs on one device)"));
    return 1;
  }
  return CmdSingleK(built.graph, *k, flags);
}

}  // namespace

int main(int argc, char** argv) {
  // Extract the flags wherever they appear.
  DecomposeFlags flags;
  std::optional<std::string> timeout_token;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (std::strcmp(arg, "--simcheck") == 0) {
      flags.simcheck = true;
    } else if (std::strcmp(arg, "--prof-summary") == 0) {
      flags.prof_summary = true;
    } else if (std::strcmp(arg, "--renumber") == 0) {
      flags.renumber = true;
    } else if (std::strcmp(arg, "--fuse") == 0) {
      flags.fuse = true;
    } else if (const char* v = value("--k=")) {
      flags.k = v;
    } else if (const char* v = value("--timeout-ms=")) {
      timeout_token = v;
    } else if (const char* v = value("--faults=")) {
      flags.faults = v;
    } else if (const char* v = value("--expand=")) {
      flags.expand = v;
    } else if (const char* v = value("--trace=")) {
      flags.trace_path = v;
    } else if (const char* v = value("--updates=")) {
      flags.updates_path = v;
    } else if (const char* v = value("--update-batch=")) {
      flags.update_batch = v;
    } else if (const char* v = value("--nodes=")) {
      flags.nodes = v;
    } else if (const char* v = value("--partition=")) {
      flags.partition = v;
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
  if (timeout_token) {
    auto timeout_ms = ParseCount("--timeout-ms", *timeout_token, "timeout", 0);
    if (!timeout_ms.ok()) {
      PrintError(timeout_ms.status());
      return 1;
    }
    lifecycle.deadline =
        Deadline::AfterMillis(static_cast<double>(*timeout_ms));
    flags.cancel = &lifecycle;
  }

  if (flags.cancel != nullptr && command != "decompose") {
    PrintError(Status::InvalidArgument(
        "--timeout-ms applies to the decompose command only"));
    return 1;
  }
  if (command == "stats") return CmdStats(built->graph);
  if (command == "decompose") {
    if (argc > 3) flags.engine = argv[3];
    return CmdDecomposeModes(*built, flags);
  }
  if (command == "shells") return CmdShells(built->graph);
  if (command == "hierarchy") return CmdHierarchy(built->graph);
  if (command == "extract") {
    if (argc < 5) return Usage();
    // Strict: atoi would read `extract g.txt foo out` as the 0-core.
    auto k = ParseCount("k", argv[3], "k", 1);
    if (!k.ok()) {
      PrintError(k.status());
      return 1;
    }
    return CmdExtract(*built, *k, argv[4]);
  }
  return Usage();
}
