#ifndef KCORE_SERVE_SERVER_H_
#define KCORE_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/timer.h"
#include "cusim/annotations.h"
#include "graph/csr_graph.h"
#include "graph/edge_update.h"
#include "perf/decompose_result.h"
#include "perf/trace.h"
#include "serve/engine.h"

namespace kcore {

/// What a request asks of the server.
enum class RequestType {
  /// Full decomposition: responds with core[v] for every vertex (and
  /// refreshes the server's cached decomposition).
  kFullDecompose,
  /// Direct k-core mining: membership + vertex list of the k-core.
  kSingleK,
  /// Point query: the core number of one vertex (cached decomposition).
  kCoreOf,
  /// Point query: the `limit` vertices of highest core number (cached
  /// decomposition; ties broken by ascending vertex id).
  kTopK,
  /// Edge-update batch: commits a new graph epoch on the primary engine's
  /// persistent incremental state and responds with the new epoch, the
  /// changed vertices, and the full coreness snapshot (in `core`).
  kApplyUpdates,
};

/// Admission classes. Point queries answer from the cached decomposition in
/// microseconds; update batches mutate the serving graph on the resident
/// incremental state (milliseconds); heavy requests run a full engine pass.
/// Separate bounded queues keep a burst of one class from starving the
/// others.
enum class RequestClass { kPoint, kUpdate, kHeavy };

/// Circuit-breaker state over the primary engine (DESIGN.md §12).
enum class BreakerState {
  kClosed,    ///< Primary engine healthy; requests run on it.
  kOpen,      ///< Tripped: requests answered by the CPU fallback (degraded).
  kHalfOpen,  ///< Cooldown elapsed: the next engine request probes primary.
};

KCORE_HOST_ONLY const char* BreakerStateName(BreakerState state);

/// One queued unit of work.
struct ServeRequest {
  RequestType type = RequestType::kCoreOf;
  /// kSingleK: the k to mine (>= 1).
  uint32_t k = 1;
  /// kCoreOf: the vertex to look up.
  VertexId v = 0;
  /// kTopK: how many vertices to return.
  uint32_t limit = 10;
  /// kApplyUpdates: the batch to commit (sequential semantics; the whole
  /// batch is rejected if any update is invalid and nothing is applied).
  std::vector<EdgeUpdate> updates;
  /// Expired requests are answered DeadlineExceeded — at admission, at
  /// dispatch, or at the engine's next round boundary, whichever comes
  /// first. Default = no deadline.
  Deadline deadline;
  /// Cooperative cancellation; not owned, must outlive the response.
  /// Cancelled requests are answered Cancelled on the same schedule.
  const CancelToken* cancel = nullptr;
  /// Non-null receives the engine run's simprof timeline (also for
  /// cancelled/expired runs — see EngineRunContext::trace). Not owned.
  Trace* trace = nullptr;
};

/// Per-request execution report, attached to every response — including
/// shed and failed ones (ISSUE: no request is silently dropped; every
/// submission is answered and accounted).
struct ServeMetrics {
  /// Admission-to-dispatch wall time. 0 for requests shed at admission.
  double queue_ms = 0.0;
  /// Dispatch-to-response wall time (engine + verification + fallback).
  double run_ms = 0.0;
  /// Fallback re-executions after a primary-engine failure (a request that
  /// dies on the GPU is immediately retried on the CPU, so it still gets an
  /// exact answer).
  uint32_t retries = 0;
  /// Answered by the CPU fallback path (breaker open, or the in-request
  /// retry after a primary failure). The answer is still exact.
  bool degraded = false;
  /// Rejected at admission by backpressure (status ResourceExhausted).
  bool shed = false;
  /// Point query answered from the warm cached decomposition.
  bool cache_hit = false;
  /// Load-shedding hint: suggested client backoff before resubmitting.
  /// Only set on shed responses.
  double retry_after_ms = 0.0;
  /// Admission order (1-based, monotonically increasing across classes).
  uint64_t sequence = 0;
  /// Dispatch order (1-based; 0 = never dispatched, i.e. shed).
  uint64_t run_order = 0;
  /// Breaker state observed at dispatch.
  BreakerState breaker = BreakerState::kClosed;
};

/// The answer to one request. `status` gates payload validity: on !ok()
/// only `metrics` is meaningful.
struct ServeResponse {
  Status status = Status::OK();
  /// kFullDecompose: core[v] per vertex.
  std::vector<uint32_t> core;
  /// kSingleK payload.
  SingleKCoreResult single_k;
  /// kCoreOf payload.
  uint32_t core_of = 0;
  /// kTopK payload: (vertex, core) pairs, core descending, id ascending.
  std::vector<std::pair<VertexId, uint32_t>> top;
  /// kApplyUpdates payload: the committed graph epoch after the batch and
  /// the vertices whose core number changed (ascending). The full post-batch
  /// coreness snapshot rides in `core`.
  uint64_t update_epoch = 0;
  std::vector<VertexId> update_changed;
  ServeMetrics metrics;
};

/// Aggregate serving statistics (all-time since construction).
struct ServerStats {
  uint64_t admitted = 0;   ///< Requests accepted into a queue.
  uint64_t completed = 0;  ///< Responses with status OK.
  uint64_t shed = 0;       ///< Rejected by backpressure at admission.
  uint64_t rejected = 0;   ///< Submitted after shutdown (FailedPrecondition).
  uint64_t cancelled = 0;  ///< Responses with status Cancelled.
  uint64_t deadline_exceeded = 0;  ///< Responses with DeadlineExceeded.
  uint64_t failed = 0;     ///< Responses with any other error status.
  uint64_t degraded = 0;   ///< OK responses answered by the CPU fallback.
  uint64_t cache_hits = 0;       ///< Point queries served from warm cache.
  uint64_t gpu_attempts = 0;     ///< Primary-engine runs started.
  uint64_t gpu_failures = 0;     ///< Primary-engine runs that failed.
  uint64_t breaker_trips = 0;    ///< Closed/HalfOpen -> Open transitions.
  uint64_t breaker_probes = 0;   ///< HalfOpen probe attempts.
  uint64_t breaker_recoveries = 0;  ///< HalfOpen -> Closed transitions.
  uint64_t updates_applied = 0;  ///< Committed kApplyUpdates batches.
  uint64_t update_edges = 0;     ///< Edge updates across committed batches.
  uint64_t graph_epoch = 0;      ///< Committed serving-graph epoch.
  BreakerState breaker = BreakerState::kClosed;
  uint64_t point_queue_depth = 0;  ///< Snapshot at stats() time.
  uint64_t update_queue_depth = 0;  ///< Snapshot at stats() time.
  uint64_t heavy_queue_depth = 0;  ///< Snapshot at stats() time.
};

/// Server tuning knobs.
struct ServerOptions {
  /// Primary engine requests run on while the breaker is closed.
  EngineKind engine = EngineKind::kGpu;
  /// Configuration handed to the primary engine. The server turns off
  /// engine-internal CPU fallback (`resilience.cpu_fallback` on gpu,
  /// multi_gpu and cluster; `cpu_fallback` and `repeel.resilience` on
  /// incremental): it would hide permanent device loss from the breaker,
  /// leaving it closed while every request quietly degrades. The breaker IS
  /// the fallback policy at this layer; transient-op retries inside the
  /// engine stay on.
  EngineConfig engine_config;

  /// Bounded queue capacities; a Submit beyond capacity is shed
  /// immediately with ResourceExhausted and a retry-after hint.
  uint64_t point_queue_capacity = 1024;
  uint64_t update_queue_capacity = 256;
  uint64_t heavy_queue_capacity = 128;
  /// Anti-starvation: after this many consecutive point dispatches with
  /// lower-priority work waiting, one update/heavy request is dispatched.
  /// Point queries otherwise always go first (they are microseconds
  /// against the cache).
  uint32_t point_burst_limit = 16;
  /// Likewise one tier down: after this many consecutive update dispatches
  /// with heavy work waiting, one heavy request runs. Updates otherwise go
  /// before heavy requests (localized re-peel vs full decomposition).
  uint32_t update_burst_limit = 4;

  /// Consecutive primary-engine failures that trip the breaker open.
  uint32_t breaker_trip_threshold = 3;
  /// Requests served while open before the breaker goes half-open and
  /// probes the primary engine again. Request-count cooldown keeps the
  /// state machine deterministic under test (wall-clock cooldowns flake).
  uint32_t breaker_cooldown_requests = 8;

  /// Construct with the runner paused: requests queue but do not dispatch
  /// until Resume() (or Shutdown(), which drains). Lets tests fill queues
  /// deterministically; production servers leave this false.
  bool start_paused = false;

  /// Optional per-attempt fault-plan override for the primary engine
  /// (attempt = 0-based count of primary runs + probes). Non-null plans
  /// replace EngineConfig::device.fault_spec for that run; empty string =
  /// healthy device. Lets tests script "engine dies twice, then recovers"
  /// without wall-clock coupling. nullptr = use the configured plan.
  std::function<std::string(uint64_t attempt)> fault_plan_fn;
};

/// A long-lived k-core serving loop over one graph (ISSUE 8's tentpole):
/// bounded admission with load shedding, two-class priority dispatch,
/// deadline/cancellation enforcement down to engine round boundaries, and a
/// circuit breaker that degrades to exact CPU answers when the primary
/// engine keeps dying — the state machine DESIGN.md §12 documents
/// (admit -> queue -> run -> degrade/shed/cancel -> drain).
///
/// Threading: Submit/stats are thread-safe; one internal runner thread owns
/// every engine run (the engines below share the process-default thread
/// pool, which handles one batch at a time). Shutdown stops admission,
/// drains the queues, and joins the runner; the destructor calls it.
class KcoreServer {
 public:
  KCORE_HOST_ONLY explicit KcoreServer(CsrGraph graph,
                                       ServerOptions options = {});
  KCORE_HOST_ONLY ~KcoreServer();

  KcoreServer(const KcoreServer&) = delete;
  KcoreServer& operator=(const KcoreServer&) = delete;

  /// Admits `request` or sheds it. ALWAYS returns a future that becomes
  /// ready: with the answer, with Cancelled/DeadlineExceeded, with
  /// ResourceExhausted (shed; metrics.retry_after_ms set), or with
  /// FailedPrecondition after shutdown. Thread-safe.
  [[nodiscard]] KCORE_HOST_ONLY std::future<ServeResponse> Submit(
      ServeRequest request);

  /// Releases a start_paused runner. No-op otherwise.
  KCORE_HOST_ONLY void Resume();

  /// Stops admission, drains every queued request (each still runs and
  /// resolves its future — the clean-shutdown contract), and joins the
  /// runner. Idempotent; returns OK on the first call, FailedPrecondition
  /// afterwards.
  KCORE_HOST_ONLY Status Shutdown();

  KCORE_HOST_ONLY ServerStats stats() const;

  const CsrGraph& graph() const { return graph_; }

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    WallTimer queued;
    uint64_t sequence = 0;
  };

  KCORE_HOST_ONLY void RunnerLoop();
  KCORE_HOST_ONLY bool PopNext(Pending* out);
  KCORE_HOST_ONLY void Dispatch(Pending pending);
  KCORE_HOST_ONLY void Answer(Pending pending, ServeResponse response);

  /// Runs `fn` (a primary-engine invocation) under the breaker policy,
  /// falling back to `fallback` for an exact degraded answer. See .cc.
  template <typename Result>
  KCORE_HOST_ONLY StatusOr<Result> RunWithBreaker(
      const CancelContext& cancel, Trace* trace, ServeMetrics* metrics,
      const std::function<StatusOr<Result>(Engine*, const EngineRunContext&)>&
          fn);

  /// Runs an update batch under the breaker policy. Unlike RunWithBreaker,
  /// the degraded path is the SAME primary engine's exact host maintenance
  /// path (EngineRunContext::prefer_host) — routing updates to a second
  /// engine would fork the committed epoch history. See .cc.
  KCORE_HOST_ONLY StatusOr<UpdateResult> RunUpdate(
      const CancelContext& cancel, Trace* trace, ServeMetrics* metrics,
      std::span<const EdgeUpdate> batch);

  /// The graph heavy requests and the fallback run against: the original
  /// construction graph until the first committed update batch, the
  /// materialized committed graph afterwards. Runner-thread only.
  KCORE_HOST_ONLY const CsrGraph& ServingGraph() const {
    return graph_epoch_ == 0 ? graph_ : updated_graph_;
  }

  /// Ensures cache_core_ holds a decomposition of the CURRENT graph epoch
  /// (running one if cold or stale — a committed update invalidates it).
  KCORE_HOST_ONLY Status EnsureCache(const CancelContext& cancel,
                                     Trace* trace, ServeMetrics* metrics);

  /// Breaker bookkeeping; all called with mu_ held.
  KCORE_HOST_ONLY bool AllowPrimaryLocked() const;
  KCORE_HOST_ONLY void OnPrimarySuccessLocked();
  KCORE_HOST_ONLY void OnPrimaryFailureLocked();
  KCORE_HOST_ONLY void OnFallbackServedLocked();

  const CsrGraph graph_;
  ServerOptions options_;
  std::unique_ptr<Engine> primary_;
  std::unique_ptr<Engine> fallback_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Pending> point_queue_;
  std::deque<Pending> update_queue_;
  std::deque<Pending> heavy_queue_;
  bool paused_ = false;
  bool shutting_down_ = false;
  bool runner_exited_ = false;
  uint32_t point_burst_ = 0;
  uint32_t update_burst_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t next_run_order_ = 0;
  double last_heavy_run_ms_ = 1.0;   // retry-after estimator seeds
  double last_update_run_ms_ = 1.0;

  // Breaker state (guarded by mu_).
  BreakerState breaker_ = BreakerState::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint32_t open_served_ = 0;

  ServerStats stats_;  // guarded by mu_

  // Runner-thread-only state (no lock needed).
  std::vector<uint32_t> cache_core_;
  bool cache_warm_ = false;
  /// Graph epoch the cached decomposition was computed at; a committed
  /// update advances graph_epoch_, making an older cache stale (the fix for
  /// point queries answering from a pre-update decomposition).
  uint64_t cache_epoch_ = 0;
  uint64_t graph_epoch_ = 0;
  /// Materialized committed graph after the first update batch (see
  /// ServingGraph()); empty and unused before that.
  CsrGraph updated_graph_;

  std::thread runner_;
};

}  // namespace kcore

#endif  // KCORE_SERVE_SERVER_H_
