#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/gpu_peel.h"
#include "core/multi_gpu_peel.h"
#include "cpu/bz.h"
#include "cpu/naive_ref.h"
#include "test_graphs.h"

namespace kcore {
namespace {

using testing::FullSuite;
using testing::NamedGraph;

class MultiGpuWorkerCountTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MultiGpuWorkerCountTest, MatchesOracleOnFullSuite) {
  MultiGpuOptions options;
  options.num_workers = GetParam();
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result = RunMultiGpuPeel(g.graph, options);
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, oracle)
        << g.name << " workers=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MultiGpuWorkerCountTest,
                         ::testing::Values(1u, 2u, 3u, 7u));

TEST(MultiGpuTest, SimcheckCleanOnFullSuite) {
  // The workers peel through raw host pointers, so simcheck's coverage here
  // is allocation lifetimes + host copies (see DESIGN.md); the run must
  // still come back clean and correct.
  MultiGpuOptions options;
  options.worker_device.check_mode = true;
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result = RunMultiGpuPeel(g.graph, options);
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, oracle) << g.name;
  }
}

TEST(MultiGpuTest, ZeroWorkersRejected) {
  MultiGpuOptions options;
  options.num_workers = 0;
  EXPECT_TRUE(RunMultiGpuPeel(testing::CliqueGraph(4).graph, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(MultiGpuTest, PartitioningShrinksPerGpuFootprint) {
  // The §VII motivation: each GPU holds only its slice, so the per-device
  // peak drops as workers are added.
  const auto g = testing::RandomSuite()[3].graph;  // rmat
  MultiGpuOptions one;
  one.num_workers = 1;
  MultiGpuOptions four;
  four.num_workers = 4;
  auto single = RunMultiGpuPeel(g, one);
  auto multi = RunMultiGpuPeel(g, four);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_LT(multi->metrics.peak_device_bytes,
            single->metrics.peak_device_bytes);
}

TEST(MultiGpuTest, GraphTooBigForOneDeviceFitsOnFour) {
  const auto g = testing::RandomSuite()[2].graph;  // BA, 500 vertices
  MultiGpuOptions options;
  options.num_workers = 1;
  options.worker_device.global_mem_bytes = 16 << 10;  // 16 KB per GPU
  EXPECT_TRUE(RunMultiGpuPeel(g, options).status().IsOutOfMemory());
  options.num_workers = 8;
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, RunNaiveReference(g).core);
}

TEST(MultiGpuTest, BorderPropagationNeedsExtraSubRounds) {
  // A path spanning all partitions: the k=1 shell peels strictly through
  // partition borders, so sub-rounds must exceed rounds (§VII's observation
  // that one round may need several border synchronizations).
  const auto g = testing::PathGraph(64);
  MultiGpuOptions options;
  options.num_workers = 4;
  auto result = RunMultiGpuPeel(g.graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->core, g.expected_core);
  EXPECT_GT(result->metrics.iterations, result->metrics.rounds);
}

TEST(MultiGpuTest, AgreesWithSingleGpuKernels) {
  const auto g = testing::RandomSuite()[4].graph;  // planted core
  auto single = RunGpuPeel(g);
  MultiGpuOptions options;
  options.num_workers = 5;
  auto multi = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->core, multi->core);
  EXPECT_EQ(single->metrics.rounds, multi->metrics.rounds);
}

TEST(MultiGpuTest, MoreWorkersThanVertices) {
  const auto g = testing::CliqueGraph(3);
  MultiGpuOptions options;
  options.num_workers = 16;
  auto result = RunMultiGpuPeel(g.graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->core, g.expected_core);
}

TEST(MultiGpuTest, PeelsOnTheWorkerPoolBesideABusyDefaultPool) {
  // A thread parked inside a DefaultThreadPool() batch keeps that pool
  // busy (it runs one batch at a time). A fleet given its own pool through
  // worker_device.pool must run its lanes there and still return BZ's
  // answer.
  const auto g = testing::RandomSuite()[2].graph;
  const std::vector<uint32_t> oracle = RunBz(g).core;
  std::promise<void> parked;
  std::atomic<bool> release{false};
  std::thread helper([&] {
    DefaultThreadPool().ParallelFor(1, [&](uint64_t) {
      parked.set_value();
      while (!release.load()) std::this_thread::yield();
    });
  });
  parked.get_future().wait();
  ThreadPool pool(2);
  MultiGpuOptions options;
  options.worker_device.pool = &pool;
  auto result = RunMultiGpuPeel(g, options);
  release.store(true);
  helper.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
}

TEST(MultiGpuTest, CpuFallbackRunsOnTheWorkerPoolBesideABusyDefaultPool) {
  // The same parked default-pool batch, but every worker dies at its first
  // launch: the CPU fallback that finishes the run must stay on the
  // fleet's pool too.
  const auto g = testing::RandomSuite()[2].graph;
  const std::vector<uint32_t> oracle = RunBz(g).core;
  std::promise<void> parked;
  std::atomic<bool> release{false};
  std::thread helper([&] {
    DefaultThreadPool().ParallelFor(1, [&](uint64_t) {
      parked.set_value();
      while (!release.load()) std::this_thread::yield();
    });
  });
  parked.get_future().wait();
  ThreadPool pool(2);
  MultiGpuOptions options;
  options.worker_device.pool = &pool;
  options.worker_device.fault_spec = "device_lost@launch=1";
  auto result = RunMultiGpuPeel(g, options);
  release.store(true);
  helper.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
}

// ---------------------------------------------------- Fault injection -----

TEST(MultiGpuFaultTest, WorkerLossReshardsOntoSurvivors) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 4;
  options.worker_fault_specs = {"", "device_lost@launch=3", "", ""};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_EQ(result->metrics.devices_lost, 1u);
  // The interrupted round re-executes from the checkpoint on the survivors.
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(MultiGpuFaultTest, SequentialLossesKeepResharding) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 4;
  options.worker_fault_specs = {"device_lost@launch=5", "device_lost@launch=2",
                                "", ""};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_EQ(result->metrics.devices_lost, 2u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(MultiGpuFaultTest, AllWorkersLostFallsBackToCpu) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 2;
  options.worker_fault_specs = {"device_lost@launch=2",
                                "device_lost@launch=2"};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
  EXPECT_EQ(result->metrics.devices_lost, 2u);
  EXPECT_GE(result->metrics.cpu_fallback_levels, 1u);
}

TEST(MultiGpuFaultTest, SetupAllocFailureStartsWorkerDead) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 3;
  options.worker_fault_specs = {"alloc_fail@1"};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_EQ(result->metrics.devices_lost, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(MultiGpuFaultTest, TransientCopyFailuresAreRetried) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 3;
  options.worker_fault_specs = {"copy_fail@2", "copy_fail@1"};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.retries, 2u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(MultiGpuFaultTest, BitflipIsDetectedAndRolledBack) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  MultiGpuOptions options;
  options.num_workers = 4;
  options.worker_fault_specs = {"bitflip:launch=2,word=0,bit=3"};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_GT(result->metrics.checkpoints_taken, 0u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(MultiGpuFaultTest, FallbackDisabledSurfacesTotalLoss) {
  const auto g = testing::RandomSuite()[0].graph;
  MultiGpuOptions options;
  options.num_workers = 2;
  options.resilience.cpu_fallback = false;
  options.worker_fault_specs = {"device_lost@launch=1",
                                "device_lost@launch=1"};
  auto result = RunMultiGpuPeel(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
}

TEST(MultiGpuFaultTest, ResilienceDisabledSurfacesFirstFault) {
  const auto g = testing::CliqueGraph(8).graph;
  MultiGpuOptions options;
  options.num_workers = 2;
  options.resilience.enabled = false;
  options.worker_fault_specs = {"copy_fail@1"};
  auto result = RunMultiGpuPeel(g, options);
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
}

TEST(MultiGpuFaultTest, NoFaultPlanTakesNoCheckpoints) {
  MultiGpuOptions options;
  options.num_workers = 3;
  auto result = RunMultiGpuPeel(testing::CliqueGraph(10).graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.checkpoints_taken, 0u);
  EXPECT_EQ(result->metrics.retries, 0u);
  EXPECT_EQ(result->metrics.devices_lost, 0u);
  EXPECT_FALSE(result->metrics.degraded);
}

}  // namespace
}  // namespace kcore
