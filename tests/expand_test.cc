// Tests for the degree-aware loop-phase expansion engine (DESIGN.md §8):
// the BlockBallotExclusiveScan primitive, core-number equivalence of every
// ExpandStrategy across the ablation variants (plain, simcheck, and under
// fault injection), bin accounting, the skewed-power-law generator, and the
// option-validation surface.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/gpu_peel.h"
#include "cpu/naive_ref.h"
#include "cusim/block.h"
#include "cusim/warp_scan.h"
#include "generators/generators.h"
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

/// Small geometry with the block-bin threshold pulled down to the minimum,
/// so kAuto's block path actually fires on the miniature test graphs.
GpuPeelOptions SmallGeometryLowThreshold(GpuPeelOptions base = {}) {
  base = SmallGeometry(base);
  base.block_expand_threshold = 32;
  return base;
}

// ------------------------------------------ BlockBallotExclusiveScan ----

TEST(BlockBallotScanTest, MatchesBlockExclusiveScan) {
  Rng rng(17);
  for (uint32_t warps : {1u, 2u, 7u, 32u}) {
    const uint32_t dim = warps * sim::kWarpSize;
    std::vector<uint32_t> flags(dim);
    for (auto& f : flags) f = static_cast<uint32_t>(rng.UniformInt(2));
    std::vector<uint32_t> got(dim);
    std::vector<uint32_t> want(dim);
    sim::BlockCtx a(0, 1, dim, 48 << 10);
    sim::BlockCtx b(0, 1, dim, 48 << 10);
    const uint32_t got_total =
        sim::BlockBallotExclusiveScan(a, flags.data(), got.data());
    const uint32_t want_total =
        sim::BlockExclusiveScan(b, flags.data(), want.data());
    EXPECT_EQ(got_total, want_total) << "warps=" << warps;
    EXPECT_EQ(got, want) << "warps=" << warps;
  }
}

TEST(BlockBallotScanTest, AllZerosAndAllOnes) {
  const uint32_t dim = 4 * sim::kWarpSize;
  std::vector<uint32_t> flags(dim, 0);
  std::vector<uint32_t> exclusive(dim, 123);
  sim::BlockCtx zero(0, 1, dim, 48 << 10);
  EXPECT_EQ(sim::BlockBallotExclusiveScan(zero, flags.data(),
                                          exclusive.data()),
            0u);
  for (uint32_t x : exclusive) EXPECT_EQ(x, 0u);

  flags.assign(dim, 1);
  sim::BlockCtx ones(0, 1, dim, 48 << 10);
  EXPECT_EQ(sim::BlockBallotExclusiveScan(ones, flags.data(),
                                          exclusive.data()),
            dim);
  for (uint32_t i = 0; i < dim; ++i) EXPECT_EQ(exclusive[i], i);
}

TEST(BlockBallotScanTest, CheaperThanHillisSteeleBlockScan) {
  // The point of the primitive: ballot-scanning 0/1 flags per warp beats
  // HS-scanning them, so the block version should charge fewer scan steps.
  const uint32_t dim = 8 * sim::kWarpSize;
  std::vector<uint32_t> flags(dim, 1);
  std::vector<uint32_t> exclusive(dim);
  sim::BlockCtx ballot(0, 1, dim, 48 << 10);
  sim::BlockCtx hs(0, 1, dim, 48 << 10);
  sim::BlockBallotExclusiveScan(ballot, flags.data(), exclusive.data());
  sim::BlockExclusiveScan(hs, flags.data(), exclusive.data());
  EXPECT_LT(ballot.counters().scan_steps, hs.counters().scan_steps);
}

// ------------------------------- Strategy x variant core equivalence ----

// gtest prints a parameter without a printer as its raw bytes, and CMake's
// gtest_discover_tests copies that print into each ctest name. The four
// bytes after the enum used to be uninitialised padding, so the names of the
// shorter cases changed from build to build; `pad` fixes those bytes, at the
// value the names were first recorded under.
struct StrategyCase {
  ExpandStrategy strategy;
  uint32_t pad = 0x55E5;
  std::string name;
};

class ExpandStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(ExpandStrategyTest, MatchesOracleAcrossVariantsOnFullSuite) {
  // Every expansion granularity composes with every append / SM / VP
  // variant of Table II and must keep the exact core numbers.
  for (const GpuPeelOptions& variant : GpuPeelOptions::AblationVariants()) {
    const GpuPeelOptions options =
        SmallGeometryLowThreshold(variant.WithExpand(GetParam().strategy));
    for (const NamedGraph& g : FullSuite()) {
      const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
      auto result = RunGpuPeel(g.graph, options, SmallDevice());
      ASSERT_TRUE(result.ok()) << g.name << " variant="
                               << variant.VariantName() << ": "
                               << result.status().ToString();
      EXPECT_EQ(result->core, oracle)
          << g.name << " variant=" << variant.VariantName();
    }
  }
}

TEST_P(ExpandStrategyTest, SimcheckClean) {
  // KCORE_SIMCHECK=1 analogue: the sanitizer watches every instrumented
  // access. The new bins must be race-free under the model — block_list
  // stores land on disjoint atomically-reserved slots, and the hub-list
  // cursor is only read after the block-wide sync.
  sim::DeviceOptions device = SmallDevice();
  device.check_mode = true;
  const GpuPeelOptions options =
      SmallGeometryLowThreshold().WithExpand(GetParam().strategy);
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result = RunGpuPeel(g.graph, options, device);
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, oracle) << g.name;
  }
}

TEST_P(ExpandStrategyTest, BitflipIsRolledBackAndReexecuted) {
  // KCORE_FAULTS analogue: a one-shot bitflip in device memory must be
  // caught by post-round validation and repaired by checkpoint rollback
  // regardless of which expansion engine replays the rounds.
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  sim::DeviceOptions device = SmallDevice();
  device.fault_spec = "bitflip:launch=5,word=0,bit=4";
  auto result = RunGpuPeel(
      g, SmallGeometryLowThreshold().WithExpand(GetParam().strategy), device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST_P(ExpandStrategyTest, BinMetersCoverEveryFrontierVertex) {
  // Each popped frontier vertex is booked to exactly one bin, so the three
  // meters partition buffer_appends (each vertex is enqueued exactly once).
  const auto g = testing::RandomSuite()[2].graph;  // BA graph
  auto result = RunGpuPeel(
      g, SmallGeometryLowThreshold().WithExpand(GetParam().strategy),
      SmallDevice());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Metrics& m = result->metrics;
  // Recovery replays rounds (double-booking bins) and the CPU fallback
  // books none, so the partition only holds on clean device rounds — an
  // ambient KCORE_FAULTS plan (the ci_check fault leg) skips it.
  if (m.levels_reexecuted == 0 && m.cpu_fallback_levels == 0) {
    EXPECT_EQ(m.counters.loop_bin_thread + m.counters.loop_bin_warp +
                  m.counters.loop_bin_block,
              m.counters.buffer_appends);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ExpandStrategyTest,
    ::testing::Values(
        StrategyCase{.strategy = ExpandStrategy::kThread, .name = "Thread"},
        StrategyCase{.strategy = ExpandStrategy::kWarp, .name = "Warp"},
        StrategyCase{.strategy = ExpandStrategy::kBlock, .name = "Block"},
        StrategyCase{.strategy = ExpandStrategy::kAuto, .name = "Auto"}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

// ------------------------------------------------- Zero-cost-when-off ----

TEST(ExpandTest, WarpStrategyBooksOnlyTheWarpBin) {
  // expand=warp must be the pre-binning engine: no thread or block meter
  // may move (it dispatches to the original LoopKernel, whose only change
  // is the uncharged loop_bin_warp increment).
  for (const NamedGraph& g : FullSuite()) {
    auto result = RunGpuPeel(g.graph, SmallGeometry(), SmallDevice());
    ASSERT_TRUE(result.ok()) << g.name;
    const PerfCounters& c = result->metrics.counters;
    EXPECT_EQ(c.loop_bin_thread, 0u) << g.name;
    EXPECT_EQ(c.loop_bin_block, 0u) << g.name;
    EXPECT_EQ(c.loop_bin_warp, c.buffer_appends) << g.name;
  }
}

TEST(ExpandTest, PureStrategiesBookTheirOwnBin) {
  const auto g = testing::RandomSuite()[0].graph;
  auto thread = RunGpuPeel(
      g, SmallGeometry().WithExpand(ExpandStrategy::kThread), SmallDevice());
  auto block = RunGpuPeel(
      g, SmallGeometry().WithExpand(ExpandStrategy::kBlock), SmallDevice());
  ASSERT_TRUE(thread.ok() && block.ok());
  EXPECT_EQ(thread->metrics.counters.loop_bin_thread,
            thread->metrics.counters.buffer_appends);
  EXPECT_EQ(thread->metrics.counters.loop_bin_block, 0u);
  EXPECT_EQ(block->metrics.counters.loop_bin_block,
            block->metrics.counters.buffer_appends);
  EXPECT_EQ(block->metrics.counters.loop_bin_thread, 0u);
}

TEST(ExpandTest, AutoRoutesByDegree) {
  // Star with 40-degree hubs under threshold 32: leaves (deg 1) ride the
  // thread bin and every hub lands in the block bin; nothing is mid-sized.
  const auto g = testing::StarGraph(40).graph;
  auto result = RunGpuPeel(
      g, SmallGeometryLowThreshold().WithExpand(ExpandStrategy::kAuto),
      SmallDevice());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PerfCounters& c = result->metrics.counters;
  EXPECT_EQ(c.loop_bin_thread, 40u);
  EXPECT_EQ(c.loop_bin_warp, 0u);
  EXPECT_EQ(c.loop_bin_block, 1u);
}

// ------------------------------------------- Skewed power-law dataset ----

TEST(SkewedPowerLawTest, ShapeAndDeterminism) {
  SkewedPowerLawOptions opt;
  opt.num_vertices = 5000;
  opt.tail_edges = 4000;
  opt.num_hubs = 3;
  opt.hub_degree = 500;
  const EdgeList a = GenerateSkewedPowerLaw(opt, 99);
  const EdgeList b = GenerateSkewedPowerLaw(opt, 99);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
  const CsrGraph g = BuildUndirectedGraphWithVertexCount(a, opt.num_vertices);
  // Hubs [0, num_hubs) must dominate the degree distribution: each was
  // given hub_degree distinct spokes on top of its power-law background.
  for (uint32_t h = 0; h < opt.num_hubs; ++h) {
    EXPECT_GE(g.Degree(h), opt.hub_degree) << "hub " << h;
  }
}

TEST(ExpandTest, AutoBeatsWarpOnSkewedGraph) {
  // The acceptance shape of the PR on a miniature version of the bench's
  // skew-hub dataset: identical cores, populated bins, and a faster loop
  // phase (hubs stop gating every warp-sized pass).
  SkewedPowerLawOptions opt;
  opt.num_vertices = 8000;
  opt.tail_edges = 6000;
  opt.num_hubs = 2;
  opt.hub_degree = 1500;
  const CsrGraph g = BuildUndirectedGraphWithVertexCount(
      GenerateSkewedPowerLaw(opt, 7), opt.num_vertices);

  GpuPeelOptions base;  // paper geometry: imbalance needs many blocks
  base.block_expand_threshold = 1024;
  auto warp = RunGpuPeel(g, base.WithExpand(ExpandStrategy::kWarp));
  auto aut = RunGpuPeel(g, base.WithExpand(ExpandStrategy::kAuto));
  ASSERT_TRUE(warp.ok() && aut.ok());
  EXPECT_EQ(warp->core, aut->core);
  const PerfCounters& c = aut->metrics.counters;
  EXPECT_GT(c.loop_bin_thread, 0u);
  EXPECT_GT(c.loop_bin_block, 0u);
  EXPECT_LT(aut->metrics.loop_ms, warp->metrics.loop_ms);
}

// --------------------------------------------------------- Validation ----

TEST(ExpandTest, RejectsTooManyWarpsForBlockScan) {
  // The block-cooperative bin stages warp totals through one warp, so
  // block_dim must stay within 32 warps — same limit as EC's block scan.
  for (ExpandStrategy strategy :
       {ExpandStrategy::kBlock, ExpandStrategy::kAuto}) {
    GpuPeelOptions options;
    options.block_dim = 32 * 64;  // 64 warps
    options.expand_strategy = strategy;
    EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options)
                    .status()
                    .IsInvalidArgument())
        << ExpandStrategyName(strategy);
  }
}

TEST(ExpandTest, RejectsSubWarpBlockThreshold) {
  GpuPeelOptions options;
  options.expand_strategy = ExpandStrategy::kAuto;
  options.block_expand_threshold = 16;  // below the warp bin's floor
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExpandTest, RejectsAutoWhenSharedMemoryIsExhausted) {
  // SM's staging buffer B plus auto's hub list must fit together: a B sized
  // to the previous limit no longer leaves room for the block_dim hub list.
  GpuPeelOptions options = GpuPeelOptions::Sm();
  options.expand_strategy = ExpandStrategy::kAuto;
  options.shared_buffer_capacity = 13000;  // fits alone, not with the list
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options)
                  .status()
                  .IsInvalidArgument());
  options.expand_strategy = ExpandStrategy::kWarp;
  EXPECT_TRUE(RunGpuPeel(testing::CliqueGraph(4).graph, options).ok());
}

TEST(ExpandTest, ParseAndNameRoundTrip) {
  for (ExpandStrategy strategy :
       {ExpandStrategy::kThread, ExpandStrategy::kWarp, ExpandStrategy::kBlock,
        ExpandStrategy::kAuto}) {
    ExpandStrategy parsed;
    ASSERT_TRUE(ParseExpandStrategy(ExpandStrategyName(strategy), &parsed));
    EXPECT_EQ(parsed, strategy);
  }
  ExpandStrategy unused = ExpandStrategy::kWarp;
  EXPECT_FALSE(ParseExpandStrategy("grid", &unused));
  EXPECT_EQ(unused, ExpandStrategy::kWarp);
}

}  // namespace
}  // namespace kcore
