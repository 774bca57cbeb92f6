// simprof / trace-schema tests: golden chrome-trace JSON for a tiny fixed
// graph, high-water memory accounting against the device's
// cudaMemGetInfo-analogue queries, the trace-on vs trace-off modeled-time
// bit-identity guard, kernel-span sums vs Metrics phase totals, NVTX-range
// and fault-flow presence, VETGA and multi-GPU timeline shape, and the
// kernel summary table.
//
// The golden file lives next to this source (tests/golden/); regenerate
// with KCORE_UPDATE_GOLDEN=1 after an intentional schema change.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/gpu_peel.h"
#include "core/multi_gpu_peel.h"
#include "cusim/device.h"
#include "generators/generators.h"
#include "graph/graph_builder.h"
#include "perf/trace.h"
#include "test_graphs.h"
#include "vetga/vetga.h"

namespace kcore {
namespace {

using testing::PaperFigureGraph;

/// Small geometry: few blocks so the golden file stays reviewable, and the
/// modeled schedule is deterministic under a single-threaded pool.
GpuPeelOptions TinyOptions() {
  GpuPeelOptions options;
  options.num_blocks = 2;
  options.block_dim = 64;
  return options;
}

sim::DeviceOptions TinyDeviceOptions(ThreadPool* pool, bool profile) {
  sim::DeviceOptions options;
  options.pool = pool;
  options.profile = profile;
  return options;
}

/// Runs the paper-figure graph on a profiled tiny device and returns the
/// device (so tests can inspect both the trace and the memory watermarks).
struct ProfiledRun {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<sim::Device> device;
  DecomposeResult result;
};

ProfiledRun RunProfiledPaperFigure() {
  ProfiledRun run;
  run.pool = std::make_unique<ThreadPool>(1);
  run.device = std::make_unique<sim::Device>(
      TinyDeviceOptions(run.pool.get(), /*profile=*/true));
  GpuPeelDecomposer decomposer(run.device.get(), TinyOptions());
  auto result = decomposer.Decompose(PaperFigureGraph().graph);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = *std::move(result);
  return run;
}

std::string GoldenPath() {
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return path + "/golden/trace_paper_figure.json";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

/// Structural JSON sanity without a parser: brace/bracket balance outside
/// string literals, and no trailing garbage.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceSchema, GoldenChromeTraceForPaperFigure) {
  ProfiledRun run = RunProfiledPaperFigure();
  const std::string json = run.device->profiler()->trace().ToChromeJson();
  ExpectBalancedJson(json);

  const std::string golden_path = GoldenPath();
  if (std::getenv("KCORE_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden_path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << golden_path;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = ReadFileOrEmpty(golden_path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path
      << " — regenerate with KCORE_UPDATE_GOLDEN=1";
  EXPECT_EQ(json, golden)
      << "trace schema drifted from " << golden_path
      << " — if intentional, regenerate with KCORE_UPDATE_GOLDEN=1";
}

TEST(TraceSchema, GoldenRunIsDeterministic) {
  // The golden test is only meaningful if two identical runs serialize
  // identically (single-threaded pool => stable block schedule).
  ProfiledRun a = RunProfiledPaperFigure();
  ProfiledRun b = RunProfiledPaperFigure();
  EXPECT_EQ(a.device->profiler()->trace().ToChromeJson(),
            b.device->profiler()->trace().ToChromeJson());
}

TEST(TraceSchema, ProfilingOffIsBitIdenticalInModeledTime) {
  ThreadPool pool(1);
  auto run = [&](bool profile) {
    sim::Device device(TinyDeviceOptions(&pool, profile));
    GpuPeelDecomposer decomposer(&device, TinyOptions());
    auto result = decomposer.Decompose(PaperFigureGraph().graph);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->metrics.modeled_ms;
  };
  const double off = run(false);
  const double on = run(true);
  // Bit-identical, not merely close: the profiler hooks must never touch
  // the modeled clock or the counters.
  EXPECT_EQ(off, on);
}

TEST(TraceSchema, WriteTraceFailsWhenProfilingOff) {
  sim::Device device;
  const Status status = device.WriteTrace("/tmp/should_not_exist.json");
  EXPECT_FALSE(status.ok());
}

TEST(TraceSchema, KernelSpanSumsMatchMetricsPhaseTotals) {
  const CsrGraph graph =
      BuildUndirectedGraph(GenerateErdosRenyi(400, 1600, 21));
  sim::DeviceOptions device_options;
  device_options.profile = true;
  sim::Device device(device_options);
  GpuPeelOptions options;
  options.num_blocks = 8;
  options.block_dim = 128;
  GpuPeelDecomposer decomposer(&device, options);
  auto result = decomposer.Decompose(graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Trace& trace = device.profiler()->trace();
  const Metrics& m = result->metrics;
  const double scan_ms = trace.TotalDurNs(kTraceCatKernel, "scan") / 1e6;
  const double loop_ms = trace.TotalDurNs(kTraceCatKernel, "loop") / 1e6;
  const double compact_ms =
      trace.TotalDurNs(kTraceCatKernel, "compact") / 1e6;
  // The acceptance bound is 1%; the construction makes them exactly equal
  // (a kernel span *is* the modeled delta its charge() banked).
  EXPECT_NEAR(scan_ms, m.scan_ms, 0.01 * m.scan_ms + 1e-9);
  EXPECT_NEAR(loop_ms, m.loop_ms, 0.01 * m.loop_ms + 1e-9);
  EXPECT_NEAR(compact_ms, m.compact_ms, 0.01 * m.compact_ms + 1e-9);
  EXPECT_GT(scan_ms, 0.0);
  EXPECT_GT(loop_ms, 0.0);
}

TEST(TraceSchema, HighWaterCounterMatchesDeviceWatermarks) {
  sim::DeviceOptions options;
  options.profile = true;
  sim::Device device(options);
  {
    auto a = device.Alloc<uint32_t>(1000, "a");
    ASSERT_TRUE(a.ok());
    auto b = device.Alloc<uint64_t>(500, "b");
    ASSERT_TRUE(b.ok());
    // b freed here, then a.
  }
  auto c = device.Alloc<uint8_t>(64, "c");
  ASSERT_TRUE(c.ok());

  // Replay the device_mem counter series; its running maximum must equal
  // the device's peak watermark and its last value the current usage
  // (the cudaMemGetInfo analogues).
  const Trace& trace = device.profiler()->trace();
  double max_live = 0.0;
  double last_live = -1.0;
  size_t samples = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase != 'C' || e.name != "device_mem") continue;
    ++samples;
    ASSERT_EQ(e.args.size(), 1u);
    const double live = std::stod(e.args[0].second);
    max_live = std::max(max_live, live);
    last_live = live;
  }
  EXPECT_EQ(samples, 5u);  // allocs a, b; frees b, a; alloc c (still live).
  EXPECT_EQ(static_cast<uint64_t>(max_live), device.peak_bytes());
  // c is still live: 64 bytes.
  EXPECT_EQ(static_cast<uint64_t>(last_live), device.current_bytes());
  EXPECT_EQ(device.current_bytes(), 64u);
}

TEST(TraceSchema, PhaseRangesPresent) {
  ProfiledRun run = RunProfiledPaperFigure();
  const Trace& trace = run.device->profiler()->trace();
  EXPECT_GT(trace.TotalDurNs(kTraceCatRange, "scan"), 0.0);
  EXPECT_GT(trace.TotalDurNs(kTraceCatRange, "loop"), 0.0);
  // Every scan range wraps exactly its scan kernel launch, so the range
  // total can never undercut the kernel total.
  EXPECT_GE(trace.TotalDurNs(kTraceCatRange, "scan"),
            trace.TotalDurNs(kTraceCatKernel, "scan"));
}

TEST(TraceSchema, RetryFlowEventsUnderFaults) {
  sim::DeviceOptions options;
  options.profile = true;
  options.fault_spec = "launch_fail@2";
  sim::Device device(options);
  GpuPeelDecomposer decomposer(&device, TinyOptions());
  auto result = decomposer.Decompose(PaperFigureGraph().graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.retries, 1u);

  bool saw_begin = false;
  bool saw_end = false;
  uint64_t begin_id = 0;
  uint64_t end_id = 1;
  for (const TraceEvent& e : device.profiler()->trace().events()) {
    if (e.name != "retry") continue;
    if (e.phase == 's') {
      saw_begin = true;
      begin_id = e.flow_id;
    }
    if (e.phase == 'f') {
      saw_end = true;
      end_id = e.flow_id;
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(begin_id, end_id);  // one arrow, both ends share the id
}

TEST(TraceSchema, VetgaTimelineHasPrimitiveSpansAndRounds) {
  VetgaConfig config;
  Trace trace;
  config.trace = &trace;
  auto result = RunVetga(PaperFigureGraph().graph, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(trace.empty());

  EXPECT_GT(trace.TotalDurNs(kTraceCatKernel, "vt_compare_mask"), 0.0);
  EXPECT_GT(trace.TotalDurNs(kTraceCatKernel, "vt_nonzero"), 0.0);
  EXPECT_GT(trace.TotalDurNs(kTraceCatKernel, "vt_scatter"), 0.0);
  // k_max = 3 => rounds k=0..3.
  EXPECT_GT(trace.TotalDurNs(kTraceCatRange, "round k=0"), 0.0);
  EXPECT_GT(trace.TotalDurNs(kTraceCatRange, "round k=3"), 0.0);
  // The primitive spans tile VETGA's modeled clock (every charge is
  // spanned), so their sum must stay within the run's modeled total.
  const double spans_ms = trace.TotalDurNs(kTraceCatKernel) / 1e6;
  EXPECT_LE(spans_ms, result->metrics.modeled_ms * 1.0001);
  EXPECT_GT(spans_ms, 0.5 * result->metrics.modeled_ms);
  // The vetga label wins over the device's default "gpu0".
  EXPECT_NE(trace.ToChromeJson().find("\"vetga\""), std::string::npos);
}

TEST(TraceSchema, MultiGpuTimelineUsesOnePidPerDevice) {
  MultiGpuOptions options;
  options.num_workers = 2;
  Trace trace;
  options.trace = &trace;
  auto result = RunMultiGpuPeel(PaperFigureGraph().graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(trace.empty());

  bool saw_pid[3] = {false, false, false};
  bool saw_subround = false;
  bool saw_round_range = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.pid < 3) saw_pid[e.pid] = true;
    if (e.phase == 'X' && e.cat == kTraceCatKernel &&
        e.name.rfind("subround", 0) == 0) {
      saw_subround = true;
      EXPECT_GE(e.pid, 1u);  // subrounds belong to workers, not the master
    }
    if (e.phase == 'X' && e.cat == kTraceCatRange &&
        e.name.rfind("round k=", 0) == 0) {
      saw_round_range = true;
      EXPECT_EQ(e.pid, 0u);  // rounds belong to the master
    }
  }
  EXPECT_TRUE(saw_pid[0]);
  EXPECT_TRUE(saw_pid[1]);
  EXPECT_TRUE(saw_pid[2]);
  EXPECT_TRUE(saw_subround);
  EXPECT_TRUE(saw_round_range);
  const std::string json = trace.ToChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"master\""), std::string::npos);
  EXPECT_NE(json.find("\"node0.dev0\""), std::string::npos);
  EXPECT_NE(json.find("\"node1.dev0\""), std::string::npos);
}

TEST(TraceSchema, KernelSummaryTableAggregates) {
  ProfiledRun run = RunProfiledPaperFigure();
  const Trace& trace = run.device->profiler()->trace();
  const auto stats = trace.KernelStats();
  ASSERT_GE(stats.size(), 2u);
  // Sorted by descending total time.
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_GE(stats[i - 1].total_ns, stats[i].total_ns);
  }
  // scan and loop launch once per round; per-block sub-spans (cat "block")
  // must NOT appear as summary rows.
  for (const auto& s : stats) {
    EXPECT_EQ(s.name.find(" b"), std::string::npos) << s.name;
  }
  const std::string table = trace.KernelSummaryTable();
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("scan"), std::string::npos);
  EXPECT_NE(table.find("loop"), std::string::npos);
}

TEST(TraceSchema, JsonEscapesAndMetadataShape) {
  Trace trace;
  trace.SetProcessName(0, "quote\"back\\slash\nnewline");
  trace.AddInstant("mark", kTraceCatRecovery, 0, 1, 5.0);
  const std::string json = trace.ToChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"),
            std::string::npos);
  // One metadata event + one instant.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1u);
}

}  // namespace
}  // namespace kcore
