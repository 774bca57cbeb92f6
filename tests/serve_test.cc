// Tests for the serving layer (src/serve): the unified Engine interface,
// the KcoreServer loop (admission, backpressure, priorities, breaker,
// cancellation, drain) and the chaos-soak harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cpu/bz.h"
#include "graph/edge_update.h"
#include "cpu/xiang.h"
#include "perf/trace.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/soak.h"
#include "test_graphs.h"

namespace kcore {
namespace {

CsrGraph SoakGraph() { return testing::RandomSuite()[0].graph; }  // er_small

// ---------------------------------------------------------------- engines

TEST(EngineTest, KindNamesRoundTrip) {
  for (EngineKind kind :
       {EngineKind::kGpu, EngineKind::kMultiGpu, EngineKind::kCluster,
        EngineKind::kVetga, EngineKind::kBz, EngineKind::kPkc,
        EngineKind::kPark, EngineKind::kMpm}) {
    EngineKind parsed;
    ASSERT_TRUE(ParseEngineKind(EngineKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EngineKind parsed;
  EXPECT_FALSE(ParseEngineKind("warp-drive", &parsed));
}

TEST(EngineTest, EveryKindMatchesBzOracle) {
  const auto named = testing::PaperFigureGraph();
  const DecomposeResult oracle = RunBz(named.graph);
  for (EngineKind kind :
       {EngineKind::kGpu, EngineKind::kMultiGpu, EngineKind::kCluster,
        EngineKind::kVetga, EngineKind::kBz, EngineKind::kPkc,
        EngineKind::kPark, EngineKind::kMpm}) {
    auto engine = MakeEngine(kind);
    auto result = engine->Decompose(named.graph, {});
    ASSERT_TRUE(result.ok()) << engine->name() << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->core, oracle.core) << engine->name();
  }
}

TEST(EngineTest, SingleKMatchesOracleOnGpuAndCpu) {
  const CsrGraph graph = SoakGraph();
  const DecomposeResult oracle = RunBz(graph);
  for (EngineKind kind : {EngineKind::kGpu, EngineKind::kBz}) {
    auto engine = MakeEngine(kind);
    for (uint32_t k = 1; k <= oracle.MaxCore() + 1; ++k) {
      auto result = engine->SingleK(graph, k, {});
      ASSERT_TRUE(result.ok()) << engine->name();
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        EXPECT_EQ(result->in_core[v] != 0, oracle.core[v] >= k)
            << engine->name() << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(EngineTest, SingleKRejectsKZero) {
  auto engine = MakeEngine(EngineKind::kBz);
  auto result = engine->SingleK(SoakGraph(), 0, {});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EngineTest, HealthCheckReportsDeviceLossFromFaultPlan) {
  EngineConfig config;
  config.device.fault_spec = "device_lost@launch=1";
  auto engine = MakeEngine(EngineKind::kGpu, std::move(config));
  EXPECT_TRUE(engine->HealthCheck({}).IsDeviceLost());
  EXPECT_TRUE(MakeEngine(EngineKind::kGpu)->HealthCheck({}).ok());
  EXPECT_TRUE(MakeEngine(EngineKind::kBz)->HealthCheck({}).ok());
}

// Deadline-at-round-boundary contract, asserted via simprof spans: after
// the engine marks the expiry, not one more kernel runs — the device is
// released within one peel round.
TEST(EngineTest, ExpiredDeadlineStopsKernelsAtRoundBoundary) {
  const CsrGraph graph = SoakGraph();
  CancelContext cancel;
  cancel.deadline = Deadline::AfterMillis(0);
  Trace trace;
  EngineRunContext ctx;
  ctx.cancel = &cancel;
  ctx.trace = &trace;
  auto result = MakeEngine(EngineKind::kGpu)->Decompose(graph, ctx);
  ASSERT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();

  double mark_ts = -1.0;
  for (const TraceEvent& event : trace.events()) {
    if (event.name.rfind("deadline_exceeded", 0) == 0) mark_ts = event.ts_ns;
  }
  ASSERT_GE(mark_ts, 0.0) << "engine did not mark the expiry in the trace";
  for (const TraceEvent& event : trace.events()) {
    if (event.cat == kTraceCatKernel) {
      EXPECT_LE(event.ts_ns, mark_ts)
          << "kernel span '" << event.name
          << "' launched after the deadline mark";
    }
  }
}

TEST(EngineTest, PreCancelledTokenStopsRun) {
  CancelToken token;
  token.Cancel();
  CancelContext cancel;
  cancel.token = &token;
  EngineRunContext ctx;
  ctx.cancel = &cancel;
  for (EngineKind kind :
       {EngineKind::kGpu, EngineKind::kMultiGpu, EngineKind::kVetga,
        EngineKind::kBz}) {
    auto result = MakeEngine(kind)->Decompose(SoakGraph(), ctx);
    EXPECT_TRUE(result.status().IsCancelled()) << EngineKindName(kind);
  }
}

// ----------------------------------------------------------------- server

TEST(ServerTest, AnswersAllRequestTypes) {
  const CsrGraph graph = SoakGraph();
  const DecomposeResult oracle = RunBz(graph);
  KcoreServer server(graph);

  ServeRequest full;
  full.type = RequestType::kFullDecompose;
  auto full_response = server.Submit(full).get();
  ASSERT_TRUE(full_response.status.ok());
  EXPECT_EQ(full_response.core, oracle.core);
  EXPECT_GT(full_response.metrics.sequence, 0u);

  ServeRequest single;
  single.type = RequestType::kSingleK;
  single.k = 2;
  auto single_response = server.Submit(single).get();
  ASSERT_TRUE(single_response.status.ok());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_EQ(single_response.single_k.in_core[v] != 0, oracle.core[v] >= 2);
  }

  ServeRequest point;
  point.type = RequestType::kCoreOf;
  point.v = 7;
  auto point_response = server.Submit(point).get();
  ASSERT_TRUE(point_response.status.ok());
  EXPECT_EQ(point_response.core_of, oracle.core[7]);
  // The full decompose warmed the cache; the point query must not have
  // re-run an engine.
  EXPECT_TRUE(point_response.metrics.cache_hit);

  ServeRequest top;
  top.type = RequestType::kTopK;
  top.limit = 5;
  auto top_response = server.Submit(top).get();
  ASSERT_TRUE(top_response.status.ok());
  ASSERT_EQ(top_response.top.size(), 5u);
  for (size_t i = 1; i < top_response.top.size(); ++i) {
    EXPECT_GE(top_response.top[i - 1].second, top_response.top[i].second);
  }
  for (const auto& [v, c] : top_response.top) {
    EXPECT_EQ(c, oracle.core[v]);
  }

  ServeRequest bad;
  bad.type = RequestType::kCoreOf;
  bad.v = graph.NumVertices() + 3;
  EXPECT_TRUE(server.Submit(bad).get().status.IsInvalidArgument());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ServerTest, ColdPointQueryWarmsCacheOnce) {
  KcoreServer server(SoakGraph());
  ServeRequest point;
  point.type = RequestType::kCoreOf;
  point.v = 0;
  auto cold = server.Submit(point).get();
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.metrics.cache_hit);  // paid the decomposition
  auto warm = server.Submit(point).get();
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.metrics.cache_hit);
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(ServerTest, ShedsWhenHeavyQueueFullAndNothingIsDropped) {
  ServerOptions options;
  options.start_paused = true;
  options.heavy_queue_capacity = 2;
  KcoreServer server(SoakGraph(), options);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    ServeRequest request;
    request.type = RequestType::kFullDecompose;
    futures.push_back(server.Submit(request));
  }
  // Paused runner: 2 admitted, 3 shed immediately with a backoff hint.
  int shed = 0;
  for (int i = 2; i < 5; ++i) {
    auto response = futures[static_cast<size_t>(i)].get();
    EXPECT_TRUE(response.status.IsResourceExhausted());
    EXPECT_TRUE(response.metrics.shed);
    EXPECT_GT(response.metrics.retry_after_ms, 0.0);
    ++shed;
  }
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(server.stats().shed, 3u);
  // Shutdown drains the two admitted requests: both resolve OK.
  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_TRUE(futures[1].get().status.ok());
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(ServerTest, PointQueriesDispatchBeforeEarlierHeavyWork) {
  ServerOptions options;
  options.start_paused = true;
  KcoreServer server(SoakGraph(), options);
  ServeRequest heavy;
  heavy.type = RequestType::kFullDecompose;
  auto heavy_future = server.Submit(heavy);
  ServeRequest point;
  point.type = RequestType::kCoreOf;
  point.v = 1;
  auto point_future = server.Submit(point);
  server.Resume();
  const auto heavy_response = heavy_future.get();
  const auto point_response = point_future.get();
  ASSERT_TRUE(heavy_response.status.ok());
  ASSERT_TRUE(point_response.status.ok());
  // The point query was admitted second but ran first.
  EXPECT_GT(point_response.metrics.sequence,
            heavy_response.metrics.sequence);
  EXPECT_LT(point_response.metrics.run_order,
            heavy_response.metrics.run_order);
}

TEST(ServerTest, HeavyWorkIsNotStarvedByPointBursts) {
  ServerOptions options;
  options.start_paused = true;
  options.point_burst_limit = 2;
  KcoreServer server(SoakGraph(), options);
  ServeRequest heavy;
  heavy.type = RequestType::kFullDecompose;
  auto heavy_future = server.Submit(heavy);
  std::vector<std::future<ServeResponse>> points;
  for (int i = 0; i < 10; ++i) {
    ServeRequest point;
    point.type = RequestType::kCoreOf;
    point.v = static_cast<VertexId>(i);
    points.push_back(server.Submit(point));
  }
  server.Resume();
  const auto heavy_response = heavy_future.get();
  for (auto& future : points) ASSERT_TRUE(future.get().status.ok());
  ASSERT_TRUE(heavy_response.status.ok());
  // At most point_burst_limit point dispatches may precede the heavy one.
  EXPECT_LE(heavy_response.metrics.run_order, 3u);
}

/// Four full decompositions on a `kind` primary whose every device dies at
/// its first launch. The plan comes through fault_plan_fn, the one fault
/// hook that reaches every engine's devices (engine_config.device is only
/// the gpu engine's template). The breaker must see both failed attempts,
/// not an engine-internal CPU fallback.
void ExpectBreakerTripsOnDeviceLoss(EngineKind kind) {
  SCOPED_TRACE(EngineKindName(kind));
  const CsrGraph graph = SoakGraph();
  const DecomposeResult oracle = RunBz(graph);
  ServerOptions options;
  options.engine = kind;
  options.breaker_trip_threshold = 2;
  options.breaker_cooldown_requests = 100;  // stay open for this test
  options.fault_plan_fn = [](uint64_t) {
    return std::string("device_lost@launch=1");
  };
  KcoreServer server(graph, options);

  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.type = RequestType::kFullDecompose;
    auto response = server.Submit(request).get();
    ASSERT_TRUE(response.status.ok()) << "request " << i;
    EXPECT_EQ(response.core, oracle.core) << "request " << i;
    EXPECT_TRUE(response.metrics.degraded) << "request " << i;
    if (i < 2) {
      // Primary attempted and died; the request retried on the CPU.
      EXPECT_EQ(response.metrics.retries, 1u) << "request " << i;
    } else {
      // Breaker open: routed straight to the CPU, no wasted GPU run.
      EXPECT_EQ(response.metrics.retries, 0u) << "request " << i;
      EXPECT_EQ(response.metrics.breaker, BreakerState::kOpen);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, BreakerState::kOpen);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.gpu_attempts, 2u);
  EXPECT_EQ(stats.gpu_failures, 2u);
  EXPECT_EQ(stats.degraded, 4u);
}

TEST(ServerTest, BreakerTripsOnRepeatedDeviceLossAndAnswersDegraded) {
  for (EngineKind kind :
       {EngineKind::kGpu, EngineKind::kMultiGpu, EngineKind::kCluster}) {
    ExpectBreakerTripsOnDeviceLoss(kind);
  }
}

TEST(ServerTest, BreakerRecoversThroughHalfOpenProbe) {
  const CsrGraph graph = SoakGraph();
  ServerOptions options;
  options.breaker_trip_threshold = 2;
  options.breaker_cooldown_requests = 2;
  // Scripted engine pool health: the first two primary attempts hit a dead
  // device, every later one is healthy.
  options.fault_plan_fn = [](uint64_t attempt) {
    return attempt < 2 ? std::string("device_lost@launch=1") : std::string();
  };
  KcoreServer server(graph, options);

  std::vector<ServeResponse> responses;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.type = RequestType::kFullDecompose;
    responses.push_back(server.Submit(request).get());
    ASSERT_TRUE(responses.back().status.ok()) << "request " << i;
  }
  // 0: primary dies (consecutive=1) -> CPU. 1: primary dies -> trips open
  // -> CPU (cooldown 1/2). 2: open -> CPU (cooldown 2/2 -> half-open).
  // 3: half-open probe passes, runs on the recovered primary.
  EXPECT_TRUE(responses[0].metrics.degraded);
  EXPECT_TRUE(responses[1].metrics.degraded);
  EXPECT_TRUE(responses[2].metrics.degraded);
  EXPECT_FALSE(responses[3].metrics.degraded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, BreakerState::kClosed);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_recoveries, 1u);
}

TEST(ServerTest, CancelledWhileQueuedAnswersCancelledWithoutRunning) {
  ServerOptions options;
  options.start_paused = true;
  KcoreServer server(SoakGraph(), options);
  CancelToken token;
  ServeRequest request;
  request.type = RequestType::kFullDecompose;
  request.cancel = &token;
  auto future = server.Submit(request);
  token.Cancel();
  server.Resume();
  const auto response = future.get();
  EXPECT_TRUE(response.status.IsCancelled());
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ServerTest, ExpiredDeadlineThroughServerLeavesNoKernelAfterMark) {
  KcoreServer server(SoakGraph());
  Trace trace;
  ServeRequest request;
  request.type = RequestType::kFullDecompose;
  request.deadline = Deadline::AfterMillis(0.05);
  request.trace = &trace;
  const auto response = server.Submit(request).get();
  if (!response.status.IsDeadlineExceeded()) {
    // The run beat the deadline (possible on a fast machine with an empty
    // queue); nothing to assert about interruption then.
    ASSERT_TRUE(response.status.ok());
    return;
  }
  double mark_ts = -1.0;
  for (const TraceEvent& event : trace.events()) {
    if (event.name.rfind("deadline_exceeded", 0) == 0) mark_ts = event.ts_ns;
  }
  // The request may also have expired while queued, before any engine ran;
  // only a run that started must have marked its interruption.
  if (trace.events().empty()) return;
  ASSERT_GE(mark_ts, 0.0);
  for (const TraceEvent& event : trace.events()) {
    if (event.cat == kTraceCatKernel) {
      EXPECT_LE(event.ts_ns, mark_ts);
    }
  }
}

TEST(ServerTest, MidRunCancellationResolvesAndStopsKernels) {
  KcoreServer server(SoakGraph());
  CancelToken token;
  Trace trace;
  ServeRequest request;
  request.type = RequestType::kFullDecompose;
  request.cancel = &token;
  request.trace = &trace;
  auto future = server.Submit(request);
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  token.Cancel();
  const auto response = future.get();
  // Race by design: the run either finished first (OK) or was cut at the
  // next round boundary (Cancelled). Both must resolve; a cancelled run
  // must not launch kernels past its mark.
  if (response.status.IsCancelled()) {
    double mark_ts = -1.0;
    for (const TraceEvent& event : trace.events()) {
      if (event.name.rfind("cancelled", 0) == 0) mark_ts = event.ts_ns;
    }
    if (mark_ts >= 0.0) {
      for (const TraceEvent& event : trace.events()) {
        if (event.cat == kTraceCatKernel) {
          EXPECT_LE(event.ts_ns, mark_ts);
        }
      }
    }
  } else {
    EXPECT_TRUE(response.status.ok());
  }
}

TEST(ServerTest, ShutdownDrainsEveryQueuedRequest) {
  ServerOptions options;
  options.start_paused = true;
  KcoreServer server(SoakGraph(), options);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    ServeRequest request;
    request.type =
        i % 2 == 0 ? RequestType::kCoreOf : RequestType::kSingleK;
    request.v = static_cast<VertexId>(i);
    request.k = 2;
    futures.push_back(server.Submit(request));
  }
  ASSERT_TRUE(server.Shutdown().ok());
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(server.stats().completed, 6u);
  // Idempotent second shutdown.
  EXPECT_TRUE(server.Shutdown().IsFailedPrecondition());
}

TEST(ServerTest, SubmitAfterShutdownIsRejectedNotDropped) {
  KcoreServer server(SoakGraph());
  ASSERT_TRUE(server.Shutdown().ok());
  ServeRequest request;
  request.type = RequestType::kCoreOf;
  const auto response = server.Submit(request).get();
  EXPECT_TRUE(response.status.IsFailedPrecondition());
  EXPECT_EQ(server.stats().rejected, 1u);
}

// ---------------------------------------------------------------- updates

std::set<std::pair<VertexId, VertexId>> EdgeSet(const CsrGraph& g) {
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (v < u) edges.insert({v, u});
    }
  }
  return edges;
}

CsrGraph GraphOf(const std::set<std::pair<VertexId, VertexId>>& edges,
                 VertexId n) {
  EdgeList list;
  list.reserve(edges.size());
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return BuildUndirectedGraphWithVertexCount(list, n);
}

std::pair<VertexId, VertexId> FindAbsentPair(
    const std::set<std::pair<VertexId, VertexId>>& edges, VertexId n,
    uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    const auto a = static_cast<VertexId>(rng.UniformInt(n));
    const auto b = static_cast<VertexId>(rng.UniformInt(n));
    if (a == b) continue;
    const auto key = std::minmax(a, b);
    if (edges.count({key.first, key.second}) == 0) return key;
  }
}

TEST(ServerTest, UpdatesRefreshCacheAndAllReadPathsServeTheNewGraph) {
  // The staleness regression this PR guards against: a warm cached
  // decomposition must never answer a point query for a graph that an
  // update batch has since replaced.
  const CsrGraph graph = SoakGraph();
  KcoreServer server(graph);

  ServeRequest full;
  full.type = RequestType::kFullDecompose;
  ASSERT_TRUE(server.Submit(full).get().status.ok());  // warm the cache

  auto edges = EdgeSet(graph);
  const std::vector<uint32_t> before = RunBz(graph).core;
  const auto [a, b] = FindAbsentPair(edges, graph.NumVertices(), 3);
  const VertexId ru = 0;
  const VertexId rv = graph.Neighbors(0)[0];

  ServeRequest update;
  update.type = RequestType::kApplyUpdates;
  update.updates = {EdgeUpdate::Insert(a, b), EdgeUpdate::Remove(ru, rv)};
  auto uresp = server.Submit(update).get();
  ASSERT_TRUE(uresp.status.ok()) << uresp.status.ToString();

  edges.insert(std::minmax(a, b));
  edges.erase(std::minmax(ru, rv));
  const std::vector<uint32_t> oracle =
      RunBz(GraphOf(edges, graph.NumVertices())).core;
  EXPECT_EQ(uresp.core, oracle);
  EXPECT_EQ(uresp.update_epoch, 1u);
  std::vector<VertexId> expect_changed;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (before[v] != oracle[v]) expect_changed.push_back(v);
  }
  EXPECT_EQ(uresp.update_changed, expect_changed);

  // Point query: must answer from the NEW graph, and from cache — the
  // committed batch refreshed the snapshot without a re-decomposition.
  ServeRequest point;
  point.type = RequestType::kCoreOf;
  point.v = expect_changed.empty() ? 0 : expect_changed[0];
  auto presp = server.Submit(point).get();
  ASSERT_TRUE(presp.status.ok());
  EXPECT_EQ(presp.core_of, oracle[point.v]);
  EXPECT_TRUE(presp.metrics.cache_hit);

  // Heavy reads decompose the updated serving graph, not the original.
  auto fresp = server.Submit(full).get();
  ASSERT_TRUE(fresp.status.ok());
  EXPECT_EQ(fresp.core, oracle);

  ServeRequest single;
  single.type = RequestType::kSingleK;
  single.k = 2;
  auto sresp = server.Submit(single).get();
  ASSERT_TRUE(sresp.status.ok());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_EQ(sresp.single_k.in_core[v] != 0, oracle[v] >= 2) << v;
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.update_edges, 2u);
  EXPECT_EQ(stats.graph_epoch, 1u);
}

TEST(ServerTest, UpdateQueueShedsWhenFullAndDrainsOnShutdown) {
  const CsrGraph graph = SoakGraph();
  ServerOptions options;
  options.start_paused = true;
  options.update_queue_capacity = 1;
  KcoreServer server(graph, options);

  const auto edges = EdgeSet(graph);
  const auto [a, b] = FindAbsentPair(edges, graph.NumVertices(), 5);
  ServeRequest update;
  update.type = RequestType::kApplyUpdates;
  update.updates = {EdgeUpdate::Insert(a, b)};

  auto admitted = server.Submit(update);
  std::vector<std::future<ServeResponse>> shed;
  shed.push_back(server.Submit(update));
  shed.push_back(server.Submit(update));
  for (auto& f : shed) {
    auto response = f.get();
    EXPECT_TRUE(response.status.IsResourceExhausted());
    EXPECT_TRUE(response.metrics.shed);
    EXPECT_GT(response.metrics.retry_after_ms, 0.0);
  }
  EXPECT_EQ(server.stats().shed, 2u);

  // Shutdown drains the admitted update; it commits, nothing is dropped.
  ASSERT_TRUE(server.Shutdown().ok());
  auto response = admitted.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.update_epoch, 1u);
  auto with_edge = edges;
  with_edge.insert({a, b});
  EXPECT_EQ(response.core, RunBz(GraphOf(with_edge,
                                         graph.NumVertices())).core);
}

TEST(ServerTest, UpdatesDegradeExactViaHostPathWhenDeviceLost) {
  // Device loss on every GPU batch: the first update trips the breaker and
  // retries on the SAME engine's host path; later updates route straight to
  // it. Every committed answer must still bit-match the oracle, and the
  // epoch history must stay linear across the degradation.
  const CsrGraph graph = SoakGraph();
  ServerOptions options;
  options.breaker_trip_threshold = 1;
  options.breaker_cooldown_requests = 100;  // stay open for this test
  options.engine_config.device.fault_spec = "device_lost@launch=1";
  KcoreServer server(graph, options);

  auto edges = EdgeSet(graph);
  for (uint64_t i = 0; i < 3; ++i) {
    const auto [a, b] = FindAbsentPair(edges, graph.NumVertices(), 40 + i);
    ServeRequest update;
    update.type = RequestType::kApplyUpdates;
    update.updates = {EdgeUpdate::Insert(a, b)};
    auto response = server.Submit(update).get();
    ASSERT_TRUE(response.status.ok()) << "update " << i << ": "
                                      << response.status.ToString();
    EXPECT_TRUE(response.metrics.degraded) << "update " << i;
    EXPECT_EQ(response.update_epoch, i + 1) << "update " << i;
    if (i == 0) {
      EXPECT_EQ(response.metrics.retries, 1u);  // primary attempted, died
    } else {
      EXPECT_EQ(response.metrics.retries, 0u);  // breaker open: host direct
      EXPECT_EQ(response.metrics.breaker, BreakerState::kOpen);
    }
    edges.insert({a, b});
    EXPECT_EQ(response.core,
              RunBz(GraphOf(edges, graph.NumVertices())).core)
        << "update " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, BreakerState::kOpen);
  EXPECT_EQ(stats.updates_applied, 3u);
  EXPECT_EQ(stats.graph_epoch, 3u);
}

TEST(ServerTest, InvalidUpdateBatchFailsWithoutTrippingBreakerOrEpoch) {
  // Validation rejections are the CALLER's fault on any engine: they must
  // surface unchanged, leave the committed epoch alone, and not count as
  // primary-engine failures toward the breaker.
  const CsrGraph graph = SoakGraph();
  KcoreServer server(graph);

  ServeRequest bad;
  bad.type = RequestType::kApplyUpdates;
  bad.updates = {EdgeUpdate::Insert(0, graph.Neighbors(0)[0])};  // present
  auto response = server.Submit(bad).get();
  EXPECT_TRUE(response.status.IsFailedPrecondition())
      << response.status.ToString();

  ServeRequest absent;
  absent.type = RequestType::kApplyUpdates;
  absent.updates = {EdgeUpdate::Remove(
      FindAbsentPair(EdgeSet(graph), graph.NumVertices(), 9).first,
      FindAbsentPair(EdgeSet(graph), graph.NumVertices(), 9).second)};
  EXPECT_TRUE(server.Submit(absent).get().status.IsNotFound());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, BreakerState::kClosed);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.graph_epoch, 0u);
  EXPECT_EQ(stats.failed, 2u);

  // The graph is untouched: a fresh read still matches the original oracle.
  ServeRequest full;
  full.type = RequestType::kFullDecompose;
  auto fresp = server.Submit(full).get();
  ASSERT_TRUE(fresp.status.ok());
  EXPECT_EQ(fresp.core, RunBz(graph).core);
}

TEST(ServerTest, UpdatesRejectedOnEngineWithoutUpdateSupport) {
  // The CPU engines maintain update state host-side (they are the degraded
  // path), so the unsupported kinds are the multi-device drivers.
  ServerOptions options;
  options.engine = EngineKind::kVetga;
  KcoreServer server(SoakGraph(), options);
  ServeRequest update;
  update.type = RequestType::kApplyUpdates;
  update.updates = {EdgeUpdate::Insert(0, 2)};
  auto response = server.Submit(update).get();
  EXPECT_TRUE(response.status.IsFailedPrecondition())
      << response.status.ToString();
  EXPECT_EQ(server.stats().updates_applied, 0u);
}

// ------------------------------------------------------------------- soak

TEST(SoakTest, ShortSeededSoakUnderDeviceLossIsClean) {
  SoakOptions options;
  options.num_requests = 200;
  options.seed = 17;
  options.cancel_fraction = 0.05;
  options.deadline_fraction = 0.05;
  options.server.engine_config.device.fault_spec = "device_lost@launch=4";
  auto report = RunSoak(SoakGraph(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->unresolved, 0u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->completed, 0u);
  EXPECT_GT(report->degraded, 0u);  // the fault plan must have engaged
  EXPECT_EQ(report->completed + report->shed + report->cancelled +
                report->deadline_exceeded + report->failed,
            report->requests);
  const std::string json = SoakReportJson("test", SoakGraph(), options, *report);
  EXPECT_NE(json.find("\"bench\": \"serving\""), std::string::npos);
  EXPECT_NE(json.find("device_lost@launch=4"), std::string::npos);
}

TEST(SoakTest, MutatingSoakCommitsUpdatesAndStaysClean) {
  SoakOptions options;
  options.num_requests = 150;
  options.seed = 31;
  options.update_fraction = 0.15;
  options.update_batch = 4;
  auto report = RunSoak(SoakGraph(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Clean());
  EXPECT_GT(report->updates, 0u);
  EXPECT_EQ(report->updates_committed, report->updates);
  EXPECT_GT(report->update_edges, 0u);
  EXPECT_EQ(report->server.graph_epoch, report->updates_committed);
  const std::string json = SoakReportJson("test", SoakGraph(), options,
                                          *report);
  EXPECT_NE(json.find("\"update_fraction\": 0.15"), std::string::npos);
  EXPECT_NE(json.find("\"updates\""), std::string::npos);
}

TEST(SoakTest, FaultFreeSoakNeverDegrades) {
  SoakOptions options;
  options.num_requests = 120;
  options.seed = 23;
  options.cancel_fraction = 0.0;
  options.deadline_fraction = 0.0;
  auto report = RunSoak(SoakGraph(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Clean());
  EXPECT_EQ(report->degraded, 0u);
  EXPECT_EQ(report->server.breaker_trips, 0u);
  EXPECT_EQ(report->completed, report->requests);
}

}  // namespace
}  // namespace kcore
