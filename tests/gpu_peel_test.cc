#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gpu_peel.h"
#include "core/multi_gpu_peel.h"
#include "cpu/naive_ref.h"
#include "test_graphs.h"

namespace kcore {
namespace {

using testing::FullSuite;
using testing::NamedGraph;

/// Small kernel geometry so tests exercise multi-sweep scans and multi-batch
/// loops without simulating 108x1024 threads per launch.
GpuPeelOptions SmallGeometry(GpuPeelOptions base = {}) {
  base.num_blocks = 4;
  base.block_dim = 64;  // 2 warps
  return base;
}

sim::DeviceOptions SmallDevice() {
  sim::DeviceOptions device;
  device.num_sms = 4;
  return device;
}

// -------------------------------------------------- Correctness (all 9) ---

struct VariantCase {
  GpuPeelOptions options;
  std::string name;
};

class GpuPeelVariantTest : public ::testing::TestWithParam<GpuPeelOptions> {};

TEST_P(GpuPeelVariantTest, MatchesOracleOnFullSuite) {
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result =
        RunGpuPeel(g.graph, SmallGeometry(GetParam()), SmallDevice());
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, oracle)
        << g.name << " variant=" << GetParam().VariantName();
  }
}

TEST_P(GpuPeelVariantTest, SimcheckCleanOnFullSuite) {
  // With the sanitizer watching every instrumented access, all nine kernel
  // variants must produce a clean report on the whole roster: the stale-read
  // pattern of Alg. 3 is legal under the race model, and everything else
  // (bounds, initialization, barriers) is simply correct.
  sim::DeviceOptions device = SmallDevice();
  device.check_mode = true;
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result = RunGpuPeel(g.graph, SmallGeometry(GetParam()), device);
    ASSERT_TRUE(result.ok()) << g.name << " variant="
                             << GetParam().VariantName() << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->core, oracle) << g.name;
  }
}

TEST_P(GpuPeelVariantTest, PaperGeometryOnOneGraph) {
  // Full 108x1024 geometry once per variant (slower, so just one graph).
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result = RunGpuPeel(g, GetParam());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GpuPeelVariantTest,
    ::testing::ValuesIn(GpuPeelOptions::AblationVariants()),
    [](const ::testing::TestParamInfo<GpuPeelOptions>& info) {
      std::string name = info.param.VariantName();
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

// --------------------------------------------------------- Determinism ----

TEST(GpuPeelTest, RepeatedRunsStableUnderRaces) {
  const auto g = testing::RandomSuite()[4].graph;  // planted core
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  for (int i = 0; i < 5; ++i) {
    auto result = RunGpuPeel(g, SmallGeometry(), SmallDevice());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->core, oracle) << "run " << i;
  }
}

TEST(GpuPeelTest, EmptyAndTinyGraphs) {
  auto empty = RunGpuPeel(CsrGraph(), SmallGeometry(), SmallDevice());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->core.empty());

  const CsrGraph one = BuildUndirectedGraphWithVertexCount({}, 1);
  auto single = RunGpuPeel(one, SmallGeometry(), SmallDevice());
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->core, std::vector<uint32_t>{0});
}

// ------------------------------------------------------------- Metrics ----

TEST(GpuPeelTest, MetricsShape) {
  const auto g = testing::CliqueGraph(10).graph;
  auto result = RunGpuPeel(g, SmallGeometry(), SmallDevice());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->MaxCore(), 9u);
  // One round per k in 0..k_max.
  EXPECT_EQ(result->metrics.rounds, 10u);
  // Two kernels per round.
  EXPECT_EQ(result->metrics.counters.kernel_launches, 20u);
  EXPECT_GT(result->metrics.modeled_ms, 0.0);
  EXPECT_GT(result->metrics.counters.edges_traversed, 0u);
  EXPECT_GT(result->metrics.peak_device_bytes, g.MemoryBytes());
}

TEST(GpuPeelTest, EveryVertexCollectedExactlyOnce) {
  const auto g = testing::RandomSuite()[2].graph;  // BA graph
  auto result = RunGpuPeel(g, SmallGeometry(), SmallDevice());
  ASSERT_TRUE(result.ok());
  // buffer_appends counts enqueued k-shell vertices; the redundancy-
  // avoidance argument (§IV-B) says each vertex is captured exactly once.
  EXPECT_EQ(result->metrics.counters.buffer_appends, g.NumVertices());
}

// --------------------------------------- Active-vertex compaction (AC) ----

/// One configuration axis combination for the AC-equivalence sweep.
struct CompactionCase {
  AppendStrategy append;
  bool ring;
  bool sm;

  std::string Name() const {
    std::string name;
    switch (append) {
      case AppendStrategy::kAtomic:
        name = "Atomic";
        break;
      case AppendStrategy::kBallotCompact:
        name = "Ballot";
        break;
      case AppendStrategy::kEfficientCompact:
        name = "Efficient";
        break;
    }
    name += ring ? "_Ring" : "_NoRing";
    name += sm ? "_Sm" : "_NoSm";
    return name;
  }
};

std::vector<CompactionCase> AllCompactionCases() {
  std::vector<CompactionCase> cases;
  for (AppendStrategy append :
       {AppendStrategy::kAtomic, AppendStrategy::kBallotCompact,
        AppendStrategy::kEfficientCompact}) {
    for (bool ring : {false, true}) {
      for (bool sm : {false, true}) {
        cases.push_back({append, ring, sm});
      }
    }
  }
  return cases;
}

class CompactionEquivalenceTest
    : public ::testing::TestWithParam<CompactionCase> {};

TEST_P(CompactionEquivalenceTest, CoreNumbersIdenticalOnAndOff) {
  const CompactionCase& param = GetParam();
  for (const NamedGraph& g : FullSuite()) {
    GpuPeelOptions base = SmallGeometry();
    base.append = param.append;
    base.ring_buffer = param.ring;
    base.shared_memory_buffering = param.sm;
    if (param.sm) base.shared_buffer_capacity = 256;
    base.active_compaction = true;
    // Aggressive threshold so even the small suite graphs re-compact.
    base.compaction_threshold = 0.9;

    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto with_ac = RunGpuPeel(g.graph, base, SmallDevice());
    auto without_ac =
        RunGpuPeel(g.graph, base.WithoutCompaction(), SmallDevice());
    ASSERT_TRUE(with_ac.ok()) << g.name << ": " << with_ac.status().ToString();
    ASSERT_TRUE(without_ac.ok())
        << g.name << ": " << without_ac.status().ToString();
    EXPECT_EQ(with_ac->core, oracle) << g.name;
    EXPECT_EQ(with_ac->core, without_ac->core) << g.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAxes, CompactionEquivalenceTest,
    ::testing::ValuesIn(AllCompactionCases()),
    [](const ::testing::TestParamInfo<CompactionCase>& info) {
      return info.param.Name();
    });

TEST(GpuPeelCompactionTest, CompactionEngagesAndShrinksScans) {
  // The planted-core graph peels most of its 400 background vertices at low
  // k, leaving a dense 24-vertex core — exactly the high-coreness shape
  // whose scans AC is for.
  const auto g = testing::RandomSuite()[4].graph;
  auto on = RunGpuPeel(g, SmallGeometry(), SmallDevice());
  auto off = RunGpuPeel(g, SmallGeometry(GpuPeelOptions().WithoutCompaction()),
                        SmallDevice());
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(on->core, off->core);
  EXPECT_GT(on->metrics.counters.compactions, 0u);
  EXPECT_GT(on->metrics.counters.scan_vertices_skipped, 0u);
  EXPECT_LT(on->metrics.counters.vertices_scanned,
            off->metrics.counters.vertices_scanned);
  EXPECT_EQ(off->metrics.counters.compactions, 0u);
  EXPECT_EQ(off->metrics.counters.scan_vertices_skipped, 0u);
}

TEST(GpuPeelCompactionTest, MultiGpuCompactionMatchesAndShrinksScans) {
  // The fleet always compacts each worker's slice at every halving, so
  // later scans skip the peeled vertices.
  const auto g = testing::RandomSuite()[4].graph;
  auto result = RunMultiGpuPeel(g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, RunNaiveReference(g).core);
  EXPECT_GT(result->metrics.counters.compactions, 0u);
  EXPECT_GT(result->metrics.counters.scan_vertices_skipped, 0u);
}

TEST(GpuPeelCompactionTest, InvalidThresholdRejected) {
  GpuPeelOptions options = SmallGeometry();
  options.compaction_threshold = 1.5;
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options, SmallDevice())
                  .status()
                  .IsInvalidArgument());
  options.compaction_threshold = -0.1;
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options, SmallDevice())
                  .status()
                  .IsInvalidArgument());
}

// ------------------------------------------------- Scan->compact fusion ----

TEST(GpuPeelFusionTest, FusedMatchesUnfusedBitExactlyOnFullSuite) {
  for (const NamedGraph& g : FullSuite()) {
    auto unfused = RunGpuPeel(g.graph, SmallGeometry(), SmallDevice());
    auto fused = RunGpuPeel(g.graph, SmallGeometry().WithFusion(),
                            SmallDevice());
    ASSERT_TRUE(unfused.ok()) << g.name << ": "
                              << unfused.status().ToString();
    ASSERT_TRUE(fused.ok()) << g.name << ": " << fused.status().ToString();
    EXPECT_EQ(fused->core, unfused->core) << g.name;
    EXPECT_EQ(fused->core, RunNaiveReference(g.graph).core) << g.name;
  }
}

TEST(GpuPeelFusionTest, FusedCutsKernelLaunches) {
  // The win comes from two places: the fused sweep replaces the separate
  // compaction launch every round, and rounds whose shell came up empty
  // (high-k_max graphs burn many of these crossing the gap between the
  // bulk degrees and the planted core) skip the loop launch entirely.
  const auto g = testing::RandomSuite()[4].graph;  // planted core
  auto unfused = RunGpuPeel(g, SmallGeometry(), SmallDevice());
  auto fused = RunGpuPeel(g, SmallGeometry().WithFusion(), SmallDevice());
  ASSERT_TRUE(unfused.ok());
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->core, unfused->core);
  const uint64_t before = unfused->metrics.counters.kernel_launches;
  const uint64_t after = fused->metrics.counters.kernel_launches;
  EXPECT_LT(after, before);
  // Acceptance target for the bench graphs; the unit-test roster graph has
  // the same planted-core shape, so hold it to the same >= 20% bar.
  EXPECT_LE(after * 5, before * 4)
      << "fused " << after << " vs unfused " << before;
  // Fusion compacts every round, so it engages at least as often as the
  // threshold-gated unfused path.
  EXPECT_GE(fused->metrics.counters.compactions,
            unfused->metrics.counters.compactions);
}

TEST(GpuPeelFusionTest, RequiresActiveCompaction) {
  const GpuPeelOptions options =
      SmallGeometry(GpuPeelOptions().WithoutCompaction()).WithFusion();
  auto result =
      RunGpuPeel(testing::CliqueGraph(4).graph, options, SmallDevice());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(GpuPeelFusionTest, SimcheckCleanWhenFused) {
  sim::DeviceOptions device = SmallDevice();
  device.check_mode = true;
  for (const NamedGraph& g : FullSuite()) {
    auto result = RunGpuPeel(g.graph, SmallGeometry().WithFusion(), device);
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, RunNaiveReference(g.graph).core) << g.name;
  }
}

TEST(GpuPeelFusionTest, RecoversFromBitflipWhenFused) {
  // Checkpoint/rollback must treat the fused sweep like any other launch:
  // detect the flip at the round boundary, re-execute, land on the oracle.
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "bitflip:launch=5,word=0,bit=4";
  const auto g = testing::RandomSuite()[0].graph;
  auto result = RunGpuPeel(g, SmallGeometry().WithFusion(), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, RunNaiveReference(g).core);
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

// ------------------------------------------------------ Failure modes -----

TEST(GpuPeelTest, BufferOverflowWithoutRingFails) {
  GpuPeelOptions options = SmallGeometry();
  options.ring_buffer = false;
  options.buffer_capacity = 8;  // far too small for a 200-vertex shell
  const auto g = testing::RandomSuite()[0].graph;
  auto result = RunGpuPeel(g, options, SmallDevice());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded())
      << result.status().ToString();
}

TEST(GpuPeelTest, RingBufferSurvivesSmallCapacity) {
  // Ring recycling lets a small buffer hold a long-lived frontier as long
  // as the unread backlog fits. A path graph peels 1 vertex at a time from
  // each end, so backlog stays tiny.
  GpuPeelOptions options = SmallGeometry();
  options.buffer_capacity = 64;
  const auto g = testing::PathGraph(500);
  auto result = RunGpuPeel(g.graph, options, SmallDevice());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, g.expected_core);
}

TEST(GpuPeelTest, DeviceOutOfMemory) {
  sim::DeviceOptions device = SmallDevice();
  device.global_mem_bytes = 1 << 10;  // 1 KB device
  auto result = RunGpuPeel(testing::CliqueGraph(50).graph, SmallGeometry(),
                           device);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(GpuPeelTest, InvalidGeometryRejected) {
  GpuPeelOptions options;
  options.block_dim = 48;  // not a multiple of 32
  auto result = RunGpuPeel(testing::CliqueGraph(4).graph, options);
  EXPECT_TRUE(result.status().IsInvalidArgument());

  GpuPeelOptions vp = GpuPeelOptions::Vp();
  vp.block_dim = 32;  // one warp: nothing left to prefetch for
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, vp)
                  .status()
                  .IsInvalidArgument());

  GpuPeelOptions ec = GpuPeelOptions::Ec();
  ec.block_dim = 32 * 64;  // 64 warps: block scan needs <= 32
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, ec)
                  .status()
                  .IsInvalidArgument());

  GpuPeelOptions sm = GpuPeelOptions::Sm();
  sm.shared_buffer_capacity = 1u << 20;  // B larger than shared memory
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, sm)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------- Fault injection matrix ----

sim::DeviceOptions FaultyDevice(const std::string& spec) {
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = spec;
  return device;
}

/// The buffering variants whose recovery paths differ: plain atomic append,
/// append without ring recycling, and shared-memory staging.
std::vector<VariantCase> ResilienceVariants() {
  VariantCase ring{SmallGeometry(), "Ring"};
  GpuPeelOptions append = SmallGeometry();
  append.ring_buffer = false;
  VariantCase no_ring{append, "Append"};
  GpuPeelOptions sm = SmallGeometry(GpuPeelOptions::Sm());
  sm.shared_buffer_capacity = 256;
  VariantCase shared{sm, "SM"};
  return {ring, no_ring, shared};
}

class FaultMatrixTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(FaultMatrixTest, TransientLaunchFailuresAreRetried) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result = RunGpuPeel(g, GetParam().options,
                           FaultyDevice("launch_fail@2;launch_fail@5"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.retries, 2u);
  EXPECT_FALSE(result->metrics.degraded);
  EXPECT_EQ(result->metrics.cpu_fallback_levels, 0u);
}

TEST_P(FaultMatrixTest, TransientCopyFailuresAreRetried) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result =
      RunGpuPeel(g, GetParam().options, FaultyDevice("copy_fail@1;copy_fail@3"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.retries, 2u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST_P(FaultMatrixTest, BitflipIsDetectedRolledBackAndReexecuted) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result = RunGpuPeel(g, GetParam().options,
                           FaultyDevice("bitflip:launch=5,word=0,bit=4"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  // The flipped degree word violates a round invariant, so the level is
  // rolled back to the checkpoint and re-executed (the flip is one-shot).
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_GT(result->metrics.checkpoints_taken, 0u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST_P(FaultMatrixTest, DeviceLossDegradesToCpuWarmStart) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result = RunGpuPeel(g, GetParam().options,
                           FaultyDevice("device_lost@launch=6"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
  EXPECT_EQ(result->metrics.devices_lost, 1u);
  EXPECT_GE(result->metrics.cpu_fallback_levels, 1u);
}

TEST_P(FaultMatrixTest, SetupAllocFailureDegradesToCpu) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result =
      RunGpuPeel(g, GetParam().options, FaultyDevice("alloc_fail@2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
  // Nothing ran on the device: the whole decomposition is CPU levels.
  EXPECT_EQ(result->metrics.cpu_fallback_levels, result->metrics.rounds);
}

TEST_P(FaultMatrixTest, PersistentLaunchFailureExhaustsRetriesThenDegrades) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  auto result = RunGpuPeel(g, GetParam().options,
                           FaultyDevice("launch_fail:p=1.0,seed=3"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
  EXPECT_GE(result->metrics.retries,
            GetParam().options.resilience.max_op_retries);
}

INSTANTIATE_TEST_SUITE_P(
    BufferVariants, FaultMatrixTest, ::testing::ValuesIn(ResilienceVariants()),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      return info.param.name;
    });

TEST(GpuPeelFaultTest, FallbackDisabledSurfacesDeviceLoss) {
  GpuPeelOptions options = SmallGeometry();
  options.resilience.cpu_fallback = false;
  const auto g = testing::RandomSuite()[0].graph;
  auto result = RunGpuPeel(g, options, FaultyDevice("device_lost@launch=4"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
}

TEST(GpuPeelFaultTest, ResilienceDisabledSurfacesFirstFault) {
  GpuPeelOptions options = SmallGeometry();
  options.resilience.enabled = false;
  const auto g = testing::CliqueGraph(8).graph;
  auto launch = RunGpuPeel(g, options, FaultyDevice("launch_fail@1"));
  EXPECT_TRUE(launch.status().IsUnavailable());
  auto alloc = RunGpuPeel(g, options, FaultyDevice("alloc_fail@1"));
  EXPECT_TRUE(alloc.status().IsOutOfMemory());
}

TEST(GpuPeelFaultTest, MalformedSpecRejectedCleanly) {
  auto result = RunGpuPeel(testing::CliqueGraph(4).graph, SmallGeometry(),
                           FaultyDevice("explode@7"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GpuPeelFaultTest, LaunchCountExcludesFailedAttempts) {
  // Metric-exact accounting under transients: the clique peels in 10 rounds
  // of 2 kernels each, and the one rejected attempt is not an execution.
  auto result = RunGpuPeel(testing::CliqueGraph(10).graph, SmallGeometry(),
                           FaultyDevice("launch_fail@3"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->MaxCore(), 9u);
  EXPECT_EQ(result->metrics.rounds, 10u);
  EXPECT_EQ(result->metrics.counters.kernel_launches, 20u);
  EXPECT_EQ(result->metrics.retries, 1u);
}

TEST(GpuPeelFaultTest, NoFaultPlanTakesNoCheckpoints) {
  // The resilient machinery must be pay-for-what-you-use: without a plan,
  // no checkpoints, no retries, no validation.
  auto result = RunGpuPeel(testing::CliqueGraph(10).graph, SmallGeometry(),
                           SmallDevice());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.checkpoints_taken, 0u);
  EXPECT_EQ(result->metrics.retries, 0u);
  EXPECT_EQ(result->metrics.levels_reexecuted, 0u);
  EXPECT_FALSE(result->metrics.degraded);
}

// ------------------------------------------------------ Variant naming ----

TEST(GpuPeelOptionsTest, VariantNames) {
  EXPECT_EQ(GpuPeelOptions::Ours().VariantName(), "Ours");
  EXPECT_EQ(GpuPeelOptions::Sm().VariantName(), "SM");
  EXPECT_EQ(GpuPeelOptions::Vp().VariantName(), "VP");
  EXPECT_EQ(GpuPeelOptions::Bc().VariantName(), "BC");
  EXPECT_EQ(GpuPeelOptions::Bc().WithSm().VariantName(), "BC+SM");
  EXPECT_EQ(GpuPeelOptions::Bc().WithVp().VariantName(), "BC+VP");
  EXPECT_EQ(GpuPeelOptions::Ec().VariantName(), "EC");
  EXPECT_EQ(GpuPeelOptions::Ec().WithSm().VariantName(), "EC+SM");
  EXPECT_EQ(GpuPeelOptions::Ec().WithVp().VariantName(), "EC+VP");
  EXPECT_EQ(GpuPeelOptions::AblationVariants().size(), 9u);
}

}  // namespace
}  // namespace kcore
