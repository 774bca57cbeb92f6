#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/check.h"
#include "common/strings.h"
#include "generators/generators.h"
#include "perf/trace.h"

namespace kcore::kbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
}

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() -
                                                   ProcessStart())
      .count();
}

void SleepUntilMs(double target_ms) {
  std::this_thread::sleep_until(
      ProcessStart() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               target_ms)));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int Tracer::Open(std::string name, int parent, double start_ms) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), parent, start_ms, start_ms, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int id, double end_ms, Args args) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ms = end_ms;
  span.args = std::move(args);
}

int Tracer::Add(std::string name, int parent, double start_ms, double end_ms,
                Args args) {
  const int id = Open(std::move(name), parent, start_ms);
  Close(id, end_ms, std::move(args));
  return id;
}

std::vector<double> Tracer::SelfMsLocked() const {
  // A parent is always opened before its children, so children have larger
  // ids; collecting each span's child intervals is one pass.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ms,
                                                              span.end_ms);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_ms;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end_ms);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end_ms - span.start_ms) - covered;
  }
  return self;
}

std::vector<std::pair<std::string, Tracer::SelfStat>> Tracer::SelfTimes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfMsLocked();
  std::vector<std::pair<std::string, SelfStat>> stats;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(stats.begin(), stats.end(), [&](const auto& s) {
      return s.first == spans_[i].name;
    });
    if (it == stats.end()) {
      stats.emplace_back(spans_[i].name, SelfStat{});
      it = stats.end() - 1;
    }
    it->second.total_ms += self[i];
    ++it->second.count;
  }
  return stats;
}

double Tracer::SelfTimeClosureError(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfMsLocked();
  std::vector<double> subtree_self(self);
  // Children have larger ids than their parents: fold bottom-up.
  for (size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].parent >= 0) {
      subtree_self[static_cast<size_t>(spans_[i].parent)] += subtree_self[i];
    }
  }
  double worst = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || spans_[i].name != root) continue;
    const double dur = spans_[i].end_ms - spans_[i].start_ms;
    if (dur <= 0.0) continue;
    worst = std::max(worst, std::abs(subtree_self[i] - dur) / dur);
  }
  return worst;
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  constexpr uint32_t kPid = 1;
  Trace trace;
  trace.SetProcessName(kPid, "kcore_bench (wall clock)");
  // Overlapping root spans (concurrent requests) cannot share a thread
  // track, so each root takes the first lane free at its start; children
  // ride on their root's lane.
  std::vector<uint32_t> lane(spans_.size(), 0);
  std::vector<double> lane_free_at;
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end(), [&](size_t a, size_t b) {
    return spans_[a].start_ms < spans_[b].start_ms;
  });
  for (size_t i : roots) {
    uint32_t l = 0;
    while (l < lane_free_at.size() && lane_free_at[l] > spans_[i].start_ms) {
      ++l;
    }
    if (l == lane_free_at.size()) {
      lane_free_at.push_back(0.0);
      trace.SetThreadName(kPid, l, StrFormat("lane %u", l));
    }
    lane_free_at[l] = spans_[i].end_ms;
    lane[i] = l;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) lane[i] = lane[static_cast<size_t>(span.parent)];
    trace.AddComplete(span.name, "bench", kPid, lane[i], span.start_ms * 1e6,
                      (span.end_ms - span.start_ms) * 1e6, span.args);
  }
  return trace.WriteChromeTrace(path);
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

}  // namespace

Tracer::Args MetricsArgs(const Metrics& m) {
  return {
      {"modeled_ms", JsonNumber(m.modeled_ms)},
      {"engine_wall_ms", JsonNumber(m.wall_ms)},
      {"scan_ms", JsonNumber(m.scan_ms)},
      {"loop_ms", JsonNumber(m.loop_ms)},
      {"compact_ms", JsonNumber(m.compact_ms)},
      {"comm_ms", JsonNumber(m.comm_ms)},
      {"rounds", JsonNumber(m.rounds)},
      {"sub_rounds", JsonNumber(m.iterations)},
      {"kernel_launches",
       JsonNumber(static_cast<double>(m.counters.kernel_launches))},
      {"peak_device_bytes",
       JsonNumber(static_cast<double>(m.peak_device_bytes))},
  };
}

void EngineTotals::Add(const Metrics& m, double wall) {
  ++calls;
  wall_ms += wall;
  peak_device_bytes = std::max(peak_device_bytes, m.peak_device_bytes);
  counters += m.counters;
  scan_ms += m.scan_ms;
  loop_ms += m.loop_ms;
  compact_ms += m.compact_ms;
  imbalance_x_loop_ms += m.loop_imbalance * m.loop_ms;
  comm_ms += m.comm_ms;
  comm_bytes += static_cast<double>(m.comm_bytes);
  comm_messages += static_cast<double>(m.comm_messages);
  rounds += m.rounds;
  sub_rounds += m.iterations;
}

double EngineTotals::PerCall(double total) const {
  return calls == 0 ? 0.0 : total / static_cast<double>(calls);
}

void AddCusimMetrics(const EngineTotals& t, Report* r) {
  const PerfCounters& c = t.counters;
  const auto per_call = [&](uint64_t count) {
    return t.PerCall(static_cast<double>(count));
  };
  r->Add("cusim.kernel_launches", per_call(c.kernel_launches), "count");
  r->Add("cusim.wall_us_per_launch",
         c.kernel_launches == 0 ? 0.0
                                : t.wall_ms * 1000.0 / c.kernel_launches,
         "us");
  r->Add("cusim.vertices_scanned", per_call(c.vertices_scanned), "count");
  r->Add("cusim.edges_traversed", per_call(c.edges_traversed), "count");
  r->Add("cusim.global_atomics", per_call(c.global_atomics), "count");
  r->Add("cusim.global_reads", per_call(c.global_reads), "count");
  r->Add("cusim.barriers", per_call(c.barriers), "count");
}

void AddGpuPeelMetrics(const EngineTotals& t, Report* r) {
  r->Add("gpu_peel.scan_ms", t.PerCall(t.scan_ms), "ms");
  r->Add("gpu_peel.compact_ms", t.PerCall(t.compact_ms), "ms");
  r->Add("gpu_peel.loop_ms", t.PerCall(t.loop_ms), "ms");
  r->Add("gpu_peel.rounds", t.PerCall(t.rounds), "count");
  r->Add("gpu_peel.loop_imbalance",
         t.loop_ms > 0.0 ? t.imbalance_x_loop_ms / t.loop_ms : 0.0, "ratio");
}

const bench::DatasetSpec& RosterSpec(const std::string& name) {
  for (const auto* roster : {&bench::PaperRoster(), &bench::ClusterRoster()}) {
    for (const bench::DatasetSpec& spec : *roster) {
      if (spec.name == name) return spec;
    }
  }
  std::fprintf(stderr, "kcore_bench: no roster graph named %s\n",
               name.c_str());
  KCORE_CHECK(false);
  return bench::PaperRoster().front();
}

EdgeList GenerateRosterEdges(const bench::DatasetSpec& spec, uint64_t seed) {
  using Kind = bench::GeneratorSpec::Kind;
  const bench::GeneratorSpec& g = spec.generator;
  // Unsigned wrap-around is the intended mixing here.
  const uint64_t mixed = g.seed + seed * 0x9e3779b97f4a7c15ull;
  EdgeList edges;
  switch (g.kind) {
    case Kind::kBarabasiAlbert:
      edges = GenerateBarabasiAlbert(g.num_vertices, g.ba_edges_per_vertex,
                                     mixed);
      break;
    case Kind::kChungLu:
      edges = GenerateChungLuPowerLaw(g.num_vertices, g.num_edges,
                                      g.chung_lu_exponent, mixed);
      break;
    case Kind::kHub: {
      HubGraphOptions hub;
      hub.num_vertices = g.num_vertices;
      hub.num_hubs = g.hub_count;
      hub.spokes_per_vertex = 2;
      hub.background_edges = g.num_edges;
      edges = GenerateHubGraph(hub, mixed);
      break;
    }
    case Kind::kErdosRenyi:
      edges = GenerateErdosRenyi(g.num_vertices, g.num_edges, mixed);
      break;
    case Kind::kSkewed: {
      SkewedPowerLawOptions skew;
      skew.num_vertices = g.num_vertices;
      skew.tail_edges = g.num_edges;
      skew.exponent = g.chung_lu_exponent;
      skew.num_hubs = g.hub_count;
      skew.hub_degree = g.hub_degree;
      edges = GenerateSkewedPowerLaw(skew, mixed);
      break;
    }
  }
  if (g.planted_core_size != 0) {
    PlantedCoreOptions planted;
    planted.core_size = g.planted_core_size;
    planted.core_density = g.planted_density;
    edges = OverlayPlantedCore(std::move(edges), g.num_vertices, planted,
                               mixed * 7919);
  }
  return edges;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace kcore::kbench
