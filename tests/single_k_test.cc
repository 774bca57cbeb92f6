// Tests for single-k direct core mining: Xiang's CPU algorithm
// (src/cpu/xiang.h) and the simulated-GPU kernel pipeline (GpuSingleKCore).
// Ground truth throughout is the BZ decomposition filtered at k (v is in the
// k-core iff core(v) >= k), which the direct miners must reproduce for every
// k — including k past the degeneracy, where the core is empty.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gpu_peel.h"
#include "cpu/bz.h"
#include "cpu/xiang.h"
#include "generators/generators.h"
#include "graph/graph_builder.h"
#include "test_graphs.h"

namespace kcore {
namespace {

using testing::FullSuite;
using testing::NamedGraph;

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

/// The oracle: membership bitmap of the k-core from a full BZ decomposition.
std::vector<uint8_t> BzFilter(const CsrGraph& graph, uint32_t k) {
  const std::vector<uint32_t> core = RunBz(graph).core;
  std::vector<uint8_t> in_core(core.size(), 0);
  for (size_t v = 0; v < core.size(); ++v) in_core[v] = core[v] >= k;
  return in_core;
}

void ExpectMatchesOracle(const SingleKCoreResult& result,
                         const CsrGraph& graph, uint32_t k,
                         const std::string& label) {
  const std::vector<uint8_t> oracle = BzFilter(graph, k);
  ASSERT_EQ(result.k, k) << label;
  ASSERT_EQ(result.in_core.size(), oracle.size()) << label;
  EXPECT_EQ(result.in_core, oracle) << label << " k=" << k;
  // The dense member list is the bitmap, ascending.
  std::vector<uint32_t> expected_vertices;
  for (uint32_t v = 0; v < oracle.size(); ++v) {
    if (oracle[v] != 0) expected_vertices.push_back(v);
  }
  EXPECT_EQ(result.vertices, expected_vertices) << label << " k=" << k;
}

// ------------------------------------------------------------ CPU Xiang ----

TEST(XiangSingleKTest, MatchesBzFilterForEveryKOnFullSuite) {
  for (const NamedGraph& g : FullSuite()) {
    const uint32_t k_max = RunBz(g.graph).MaxCore();
    for (uint32_t k = 1; k <= k_max + 2; ++k) {
      ExpectMatchesOracle(XiangSingleKCore(g.graph, k), g.graph, k, g.name);
    }
  }
}

TEST(XiangSingleKTest, DifferentialCorpora) {
  // Generator families beyond the shared roster: power-law tails and a
  // denser planted community, the shapes where direct mining pays off.
  std::vector<NamedGraph> corpora;
  {
    NamedGraph g;
    g.name = "chung_lu";
    g.graph = BuildUndirectedGraph(GenerateChungLuPowerLaw(500, 1500, 2.5, 31));
    corpora.push_back(std::move(g));
  }
  {
    SkewedPowerLawOptions skew;
    NamedGraph g;
    g.name = "skew";
    g.graph = BuildUndirectedGraph(GenerateSkewedPowerLaw(skew, 37));
    corpora.push_back(std::move(g));
  }
  {
    PlantedCoreOptions planted;
    planted.core_size = 32;
    planted.core_density = 0.9;
    NamedGraph g;
    g.name = "planted_dense";
    g.graph = BuildUndirectedGraph(OverlayPlantedCore(
        GenerateErdosRenyi(600, 1200, 41), 600, planted, 43));
    corpora.push_back(std::move(g));
  }
  for (const NamedGraph& g : corpora) {
    const uint32_t k_max = RunBz(g.graph).MaxCore();
    for (uint32_t k : {1u, 2u, 3u, k_max, k_max + 1}) {
      if (k < 1) continue;
      ExpectMatchesOracle(XiangSingleKCore(g.graph, k), g.graph, k, g.name);
    }
  }
}

TEST(XiangSingleKTest, MetricsPopulated) {
  const auto result = XiangSingleKCore(testing::CliqueGraph(8).graph, 3);
  EXPECT_EQ(result.metrics.rounds, 1u);
  EXPECT_GT(result.metrics.counters.vertices_scanned, 0u);
  EXPECT_GT(result.metrics.modeled_ms, 0.0);
  // Direct mining touches no kernel: the launch counter stays zero (the
  // router tests below key off this).
  EXPECT_EQ(result.metrics.counters.kernel_launches, 0u);
}

// ------------------------------------------------------------ GPU miner ----

TEST(GpuSingleKTest, MatchesBzFilterForEveryKOnFullSuite) {
  for (const NamedGraph& g : FullSuite()) {
    const uint32_t k_max = RunBz(g.graph).MaxCore();
    for (uint32_t k = 1; k <= k_max + 2; ++k) {
      auto result = RunGpuSingleKCore(g.graph, k, SmallGeometry(),
                                      SmallDevice());
      ASSERT_TRUE(result.ok()) << g.name << " k=" << k << ": "
                               << result.status().ToString();
      ExpectMatchesOracle(*result, g.graph, k, g.name);
      EXPECT_EQ(result->metrics.rounds, 1u);
      // The whole point: one scan launch + one loop launch per query.
      EXPECT_EQ(result->metrics.counters.kernel_launches, 2u)
          << g.name << " k=" << k;
    }
  }
}

TEST(GpuSingleKTest, ComposesWithAblationVariantsAndExpandBins) {
  const NamedGraph g = testing::RandomSuite()[0];
  const uint32_t k = 3;
  std::vector<GpuPeelOptions> configs;
  for (const GpuPeelOptions& variant : GpuPeelOptions::AblationVariants()) {
    configs.push_back(SmallGeometry(variant));
  }
  for (ExpandStrategy strategy :
       {ExpandStrategy::kThread, ExpandStrategy::kBlock,
        ExpandStrategy::kAuto}) {
    GpuPeelOptions options = SmallGeometry().WithExpand(strategy);
    options.block_expand_threshold = 32;
    configs.push_back(options);
  }
  configs.push_back(SmallGeometry().WithRenumber());
  for (const GpuPeelOptions& options : configs) {
    auto result = RunGpuSingleKCore(g.graph, k, options, SmallDevice());
    ASSERT_TRUE(result.ok())
        << options.VariantName() << ": " << result.status().ToString();
    ExpectMatchesOracle(*result, g.graph, k, options.VariantName());
  }
}

TEST(GpuSingleKTest, SimcheckClean) {
  sim::DeviceOptions device = SmallDevice();
  device.check_mode = true;
  const NamedGraph g = testing::RandomSuite()[0];
  auto result = RunGpuSingleKCore(g.graph, 3, SmallGeometry(), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesOracle(*result, g.graph, 3, "simcheck");
}

TEST(GpuSingleKTest, InvalidArguments) {
  const CsrGraph& g = testing::CliqueGraph(4).graph;
  EXPECT_TRUE(RunGpuSingleKCore(g, 0).status().IsInvalidArgument());
  GpuPeelOptions bad = SmallGeometry();
  bad.block_dim = 48;  // not a multiple of 32
  EXPECT_TRUE(RunGpuSingleKCore(g, 2, bad).status().IsInvalidArgument());
}

// -------------------------------------------------------- fault handling ----

TEST(GpuSingleKFaultTest, TransientLaunchFailureIsRetried) {
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "launch_fail@1";
  const NamedGraph g = testing::RandomSuite()[0];
  auto result = RunGpuSingleKCore(g.graph, 3, SmallGeometry(), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesOracle(*result, g.graph, 3, "transient");
  EXPECT_GE(result->metrics.retries, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(GpuSingleKFaultTest, BitflipsAreInert) {
  // Single-k marks nothing corruptible (no checkpoint to roll back to), so
  // an armed bitflip never fires: deg stays ECC-protected and the answer is
  // exact with zero recovery work.
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "bitflip:launch=1,word=0,bit=4";
  const NamedGraph g = testing::RandomSuite()[0];
  auto result = RunGpuSingleKCore(g.graph, 3, SmallGeometry(), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesOracle(*result, g.graph, 3, "bitflip");
  EXPECT_FALSE(result->metrics.degraded);
  EXPECT_EQ(result->metrics.levels_reexecuted, 0u);
}

TEST(GpuSingleKFaultTest, DeviceLossFallsBackToCpuXiang) {
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "device_lost@launch=1";
  const NamedGraph g = testing::RandomSuite()[0];
  auto result = RunGpuSingleKCore(g.graph, 3, SmallGeometry(), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesOracle(*result, g.graph, 3, "device_lost");
  EXPECT_TRUE(result->metrics.degraded);
  EXPECT_EQ(result->metrics.devices_lost, 1u);
}

TEST(GpuSingleKFaultTest, FallbackDisabledSurfacesLoss) {
  GpuPeelOptions options = SmallGeometry();
  options.resilience.cpu_fallback = false;
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "device_lost@launch=1";
  auto result =
      RunGpuSingleKCore(testing::CliqueGraph(6).graph, 3, options, device);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
}

}  // namespace
}  // namespace kcore
