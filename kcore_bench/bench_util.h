#ifndef KCORE_BENCH_KCORE_BENCH_BENCH_UTIL_H_
#define KCORE_BENCH_KCORE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/edge_list.h"
#include "perf/metrics.h"

namespace kcore::kbench {

/// Worker threads of the pool every simulated device runs its blocks on.
/// Pinned (not derived from the host) so the modeled clock, whose cascade
/// order depends on how many blocks run at once, means the same thing on
/// every host: 3 workers plus the launching thread.
inline constexpr uint32_t kPoolThreads = 3;

/// One benchmark invocation, parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// One timed pass / one short window, and a single set-up: for the smoke
  /// test, not for measurement.
  bool smoke = false;
  /// Non-empty: a traced run that writes a chrome trace here and reports
  /// the per-layer metrics.
  std::string trace_path;

  bool traced() const { return !trace_path.empty(); }
};

/// Everything a workload reports: named metrics in print order plus the
/// correctness tally behind `attempted`, `failed` and `correct`.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Prints one `name value unit` line per metric, with full precision.
  void Print() const;

  uint64_t attempted = 0;
  /// Operations that returned an error, were shed or timed out, or gave an
  /// answer that disagrees with the BZ oracle (mismatches included).
  uint64_t failed = 0;
  uint64_t mismatches = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Milliseconds on the steady clock since process start; every timestamp
/// and span in the benchmark uses this one time base.
double NowMs();

/// Sleeps until NowMs() reaches `target_ms`.
void SleepUntilMs(double target_ms);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]. +inf entries (failed requests) sort
/// last, so a tail full of failures reads +inf.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Spans recorded by the benchmark around its calls into the system, kept in
/// memory and written as one chrome trace at the end. Disabled tracers
/// record nothing. Thread-safe.
class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a span; returns its id (for children and Close), or -1 when
  /// disabled. `parent` is -1 for a root span.
  int Open(std::string name, int parent, double start_ms);
  /// Ends span `id` (no-op for -1).
  void Close(int id, double end_ms, Args args = {});
  /// Open + Close for a span whose interval is already known.
  int Add(std::string name, int parent, double start_ms, double end_ms,
          Args args = {});

  /// Self time of every span (its duration minus the part of it its
  /// children cover), aggregated per span name.
  struct SelfStat {
    double total_ms = 0.0;
    uint64_t count = 0;
  };
  std::vector<std::pair<std::string, SelfStat>> SelfTimes() const;

  /// Largest relative gap, over root spans named `root`, between the span's
  /// duration and the summed self times of its subtree (0 when the children
  /// tile their parents exactly).
  double SelfTimeClosureError(const std::string& root) const;

  /// Writes the spans as chrome://tracing JSON (loads in Perfetto). Root
  /// spans that overlap in time go to separate thread lanes.
  Status Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start_ms;
    double end_ms;
    Args args;
  };
  std::vector<double> SelfMsLocked() const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records a span from construction to destruction (or Close) when the
/// tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1)
      : tracer_(tracer), id_(tracer->Open(std::move(name), parent, NowMs())) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Parent id for spans nested inside this one.
  int id() const { return id_; }
  /// Ends the span now (later calls are no-ops).
  void Close(Tracer::Args args = {}) {
    if (!closed_) tracer_->Close(id_, NowMs(), std::move(args));
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

/// Metrics of one engine run as span arguments.
Tracer::Args MetricsArgs(const Metrics& metrics);

/// Sums of the Metrics of a set of engine calls.
struct EngineTotals {
  uint64_t calls = 0;
  double wall_ms = 0.0;  ///< Bench-measured wall time of the calls.
  uint64_t peak_device_bytes = 0;
  PerfCounters counters;
  double scan_ms = 0.0;
  double loop_ms = 0.0;
  double compact_ms = 0.0;
  double imbalance_x_loop_ms = 0.0;
  double comm_ms = 0.0;
  double comm_bytes = 0.0;
  double comm_messages = 0.0;
  double rounds = 0.0;
  double sub_rounds = 0.0;

  void Add(const Metrics& m, double wall);
  /// `total` divided by the number of calls (0 without calls).
  double PerCall(double total) const;
};

/// cusim.*: counters per call and wall microseconds per kernel launch.
void AddCusimMetrics(const EngineTotals& totals, Report* report);
/// gpu_peel.*: modeled phase times and rounds per call, and the loop
/// imbalance weighted by loop time.
void AddGpuPeelMetrics(const EngineTotals& totals, Report* report);

/// The roster entry called `name` (PaperRoster, then ClusterRoster).
const bench::DatasetSpec& RosterSpec(const std::string& name);

/// Edge list of `spec` built in memory, with the generator seed mixed with
/// the run seed: seed 0 reproduces the committed roster graph, any other
/// seed draws another graph from the same generator and parameters.
EdgeList GenerateRosterEdges(const bench::DatasetSpec& spec, uint64_t seed);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// The workloads (peel_workloads.cc, serve_workloads.cc). Each generates its
/// inputs from config.seed before any clock starts, runs for about
/// config.seconds, checks every answer against the BZ oracle and fills
/// `report`. An error Status means the run could not be measured.
bool IsPeelWorkload(const std::string& name);
bool IsServeWorkload(const std::string& name);
Status RunPeelWorkload(const RunConfig& config, ThreadPool* pool,
                       Tracer* tracer, Report* report);
Status RunServeWorkload(const RunConfig& config, ThreadPool* pool,
                        Tracer* tracer, Report* report);

}  // namespace kcore::kbench

#endif  // KCORE_BENCH_KCORE_BENCH_BENCH_UTIL_H_
