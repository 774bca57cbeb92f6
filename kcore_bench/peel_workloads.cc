// Peel workloads: full decompositions of roster graphs through
// MakeEngine(...)->Decompose, timed pass by pass on both clocks.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "cpu/bz.h"
#include "graph/graph_builder.h"
#include "serve/engine.h"

namespace kcore::kbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One engine a pass runs on every graph, named after its module.
struct EngineSlot {
  const char* layer;
  EngineKind kind;
};

struct PeelSpec {
  std::vector<std::string> graphs;
  std::vector<EngineSlot> slots;
};

// Why these graphs (README.md has the measurements):
//  peel-deep     the five highest-k_max roster graphs: thousands of mostly
//                empty k-levels, so kernel-launch overhead dominates.
//  peel-wide     1.4k-8k edges per launch: the per-edge loop work carries
//                more of the time, so a launch-path default can lose here.
//  peel-scaleout the 1B-class stand-in through both sub-round fixpoints
//                (multi-GPU workers and cluster nodes).
const PeelSpec* FindPeelSpec(const std::string& workload) {
  static const auto* specs = new std::vector<std::pair<std::string, PeelSpec>>{
      {"peel-deep",
       {{"indochina-2004", "it-2004", "hollywood-2009", "arabic-2005",
         "webbase-2001"},
        {{"gpu_peel", EngineKind::kGpu}}}},
      {"peel-wide",
       {{"patentcite", "dblp-author", "trackers", "uk-2002", "uk-2005",
         "twitter-2010"},
        {{"gpu_peel", EngineKind::kGpu}}}},
      {"peel-scaleout",
       {{"twitter-2010"},
        {{"multi_gpu_peel", EngineKind::kMultiGpu},
         {"cluster", EngineKind::kCluster}}}},
  };
  for (const auto& [name, spec] : *specs) {
    if (name == workload) return &spec;
  }
  return nullptr;
}

/// Production defaults, on the scaled P100 with the graph-scaled frontier
/// buffers the roster benches use, and every device on the bench pool.
EngineConfig PeelEngineConfig(const CsrGraph& graph, ThreadPool* pool) {
  sim::DeviceOptions device = bench::ScaledP100Options();
  device.pool = pool;
  EngineConfig config;
  config.device = device;
  config.gpu.buffer_capacity = bench::ScaledBufferCapacity(graph);
  config.multi_gpu.worker_device = device;
  config.cluster.num_nodes = 4;
  config.cluster.devices_per_node = 1;
  config.cluster.node_device = device;
  config.cluster.pool = pool;
  return config;
}

class PeelRun {
 public:
  PeelRun(const RunConfig& config, const PeelSpec& spec, ThreadPool* pool,
          Tracer* tracer, Report* report)
      : config_(config),
        spec_(spec),
        pool_(pool),
        tracer_(tracer),
        report_(report),
        best_wall_(spec.graphs.size() * spec.slots.size(), kInf),
        best_traced_wall_(best_wall_.size(), kInf),
        call_modeled_(best_wall_.size()),
        layers_(spec.slots.size()) {}

  Status Run();

 private:
  /// CSR build, engine construction and one warm-up pass.
  Status SetUp(const std::vector<EdgeList>& edges, double* build_ms);
  /// Decomposes every graph on every engine once. `measured` passes record
  /// their calls and check them against the oracle; `modeled_ms` receives
  /// the pass's summed modeled time.
  Status Pass(bool measured, bool traced, double* modeled_ms);
  void Summarize(const std::vector<double>& setup_s,
                 const std::vector<double>& build_ms, double bz_ms,
                 const std::vector<double>& modeled);

  size_t Cell(size_t g, size_t s) const { return g * spec_.slots.size() + s; }

  const RunConfig& config_;
  const PeelSpec& spec_;
  ThreadPool* pool_;
  Tracer* tracer_;
  Report* report_;

  std::vector<CsrGraph> graphs_;
  std::vector<std::unique_ptr<Engine>> engines_;  // [Cell(g, s)]
  std::vector<std::vector<uint32_t>> oracle_;     // BZ core per graph

  // Wall clock: each cell's fastest measured call. This host's contention
  // comes in bursts, which a median over passes follows; the fastest of ~30
  // calls follows the code (README.md).
  std::vector<double> best_wall_;         // [Cell], untraced passes
  std::vector<double> best_traced_wall_;  // [Cell], traced passes
  std::vector<std::vector<double>> call_modeled_;  // [Cell] per pass
  EngineTotals all_;                  // every measured call
  std::vector<EngineTotals> layers_;  // [slot]
};

Status PeelRun::SetUp(const std::vector<EdgeList>& edges, double* build_ms) {
  engines_.clear();
  graphs_.clear();
  ScopedSpan setup(tracer_, "setup");
  const double start = NowMs();
  {
    ScopedSpan build(tracer_, "graph.build", setup.id());
    for (size_t g = 0; g < edges.size(); ++g) {
      graphs_.push_back(BuildUndirectedGraphWithVertexCount(
          edges[g], RosterSpec(spec_.graphs[g]).generator.num_vertices));
    }
  }
  *build_ms = NowMs() - start;
  for (const CsrGraph& graph : graphs_) {
    for (const EngineSlot& slot : spec_.slots) {
      engines_.push_back(MakeEngine(slot.kind, PeelEngineConfig(graph, pool_)));
    }
  }
  double unused_modeled = 0.0;
  return Pass(/*measured=*/false, /*traced=*/false, &unused_modeled);
}

Status PeelRun::Pass(bool measured, bool traced, double* modeled_ms) {
  Tracer off(false);
  Tracer* tracer = traced ? tracer_ : &off;
  ScopedSpan pass(tracer, "pass");
  *modeled_ms = 0.0;
  for (size_t g = 0; g < graphs_.size(); ++g) {
    for (size_t s = 0; s < spec_.slots.size(); ++s) {
      const EngineSlot& slot = spec_.slots[s];
      ScopedSpan call(tracer, StrFormat("%s.decompose", slot.layer),
                      pass.id());
      const double start = NowMs();
      StatusOr<DecomposeResult> result =
          engines_[Cell(g, s)]->Decompose(graphs_[g], EngineRunContext{});
      const double wall = NowMs() - start;
      if (!measured) {
        if (!result.ok()) {
          return Status::Internal(StrFormat(
              "warm-up %s on %s: %s", slot.layer, spec_.graphs[g].c_str(),
              result.status().ToString().c_str()));
        }
        continue;
      }
      ++report_->attempted;
      if (!result.ok()) {
        ++report_->failed;
        std::fprintf(stderr, "%s on %s: %s\n", slot.layer,
                     spec_.graphs[g].c_str(),
                     result.status().ToString().c_str());
        continue;
      }
      const Metrics& m = result->metrics;
      Tracer::Args args = MetricsArgs(m);
      args.emplace_back("graph", JsonQuote(spec_.graphs[g]));
      call.Close(std::move(args));
      if (result->core != oracle_[g]) {
        ++report_->failed;
        ++report_->mismatches;
        std::fprintf(stderr, "%s on %s: core numbers differ from BZ\n",
                     slot.layer, spec_.graphs[g].c_str());
      }
      *modeled_ms += m.modeled_ms;
      double& best = (traced ? best_traced_wall_ : best_wall_)[Cell(g, s)];
      best = std::min(best, wall);
      call_modeled_[Cell(g, s)].push_back(m.modeled_ms);
      all_.Add(m, wall);
      layers_[s].Add(m, wall);
    }
  }
  return Status::OK();
}

Status PeelRun::Run() {
  // Inputs first, outside every clock.
  std::vector<EdgeList> edges;
  for (const std::string& name : spec_.graphs) {
    edges.push_back(GenerateRosterEdges(RosterSpec(name), config_.seed));
  }

  std::vector<double> setup_s;
  std::vector<double> build_ms;
  for (int rep = 0; rep < (config_.smoke ? 1 : 3); ++rep) {
    const double start = NowMs();
    double built = 0.0;
    KCORE_RETURN_IF_ERROR(SetUp(edges, &built));
    setup_s.push_back((NowMs() - start) / 1000.0);
    build_ms.push_back(built);
  }
  edges = {};

  const double bz_start = NowMs();
  for (const CsrGraph& graph : graphs_) oracle_.push_back(RunBz(graph).core);
  const double bz_ms = NowMs() - bz_start;

  // Timed passes. A traced run alternates untraced and traced passes, so
  // the tracing overhead is measured against the same warm state.
  std::vector<double> modeled;
  const size_t min_passes = config_.traced() ? 2 : 1;
  const double start = NowMs();
  for (size_t pass = 0;; ++pass) {
    const bool traced = config_.traced() && pass % 2 == 1;
    double pass_modeled = 0.0;
    KCORE_RETURN_IF_ERROR(Pass(/*measured=*/true, traced, &pass_modeled));
    modeled.push_back(pass_modeled);
    const size_t done = pass + 1;
    if (config_.smoke ? done >= min_passes
                      : done >= 2 * min_passes &&
                            NowMs() - start >= config_.seconds * 1000.0) {
      break;
    }
  }
  Summarize(setup_s, build_ms, bz_ms, modeled);
  return Status::OK();
}

void PeelRun::Summarize(const std::vector<double>& setup_s,
                        const std::vector<double>& build_ms, double bz_ms,
                        const std::vector<double>& modeled) {
  Report& r = *report_;
  double pass_wall = 0.0;
  double slowest = 0.0;
  for (double best : best_wall_) {
    pass_wall += best;
    slowest = std::max(slowest, best);
  }

  // End to end. wall_ms/tail_ms/throughput_per_s are the wall clock
  // (the simulator's own time), modeled_ms the cost model's P100 stand-in.
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("wall_ms", pass_wall, "ms");
  r.Add("tail_ms", slowest, "ms");
  r.Add("modeled_ms", Median(modeled), "ms");
  r.Add("peak_device_mb",
        static_cast<double>(all_.peak_device_bytes) / (1024.0 * 1024.0), "MB");
  r.Add("throughput_per_s", best_wall_.size() / (pass_wall / 1000.0), "1/s");
  r.Add("passes", static_cast<double>(modeled.size()), "count");

  // Per layer.
  r.Add("graph.build_ms", Median(build_ms), "ms");
  r.Add("cpu.bz_wall_ms", bz_ms, "ms");
  AddCusimMetrics(all_, &r);

  for (size_t s = 0; s < spec_.slots.size(); ++s) {
    const std::string layer = spec_.slots[s].layer;
    const EngineTotals& t = layers_[s];
    if (spec_.slots[s].kind == EngineKind::kGpu) {
      AddGpuPeelMetrics(t, &r);
      for (size_t g = 0; g < spec_.graphs.size(); ++g) {
        r.Add("gpu_peel.wall_ms." + spec_.graphs[g], best_wall_[Cell(g, s)],
              "ms");
        r.Add("gpu_peel.modeled_ms." + spec_.graphs[g],
              Median(call_modeled_[Cell(g, s)]), "ms");
      }
      continue;
    }
    r.Add(layer + ".wall_ms", best_wall_[Cell(0, s)], "ms");
    r.Add(layer + ".modeled_ms", Median(call_modeled_[Cell(0, s)]), "ms");
    r.Add(layer + ".sub_rounds", t.PerCall(t.sub_rounds), "count");
    if (spec_.slots[s].kind == EngineKind::kCluster) {
      r.Add("cluster.comm_ms", t.PerCall(t.comm_ms), "ms");
      r.Add("cluster.comm_bytes", t.PerCall(t.comm_bytes), "bytes");
      r.Add("cluster.comm_messages", t.PerCall(t.comm_messages), "count");
    }
  }
  if (config_.traced()) {
    double traced_wall = 0.0;
    for (double best : best_traced_wall_) traced_wall += best;
    r.Add("trace_overhead_frac", traced_wall / pass_wall - 1.0, "fraction");
  }
}

}  // namespace

bool IsPeelWorkload(const std::string& name) {
  return FindPeelSpec(name) != nullptr;
}

Status RunPeelWorkload(const RunConfig& config, ThreadPool* pool,
                       Tracer* tracer, Report* report) {
  const PeelSpec* spec = FindPeelSpec(config.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown peel workload " + config.workload);
  }
  return PeelRun(config, *spec, pool, tracer, report).Run();
}

}  // namespace kcore::kbench
