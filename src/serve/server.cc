#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace kcore {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

namespace {

RequestClass ClassOf(RequestType type) {
  switch (type) {
    case RequestType::kCoreOf:
    case RequestType::kTopK:
      return RequestClass::kPoint;
    case RequestType::kApplyUpdates:
      return RequestClass::kUpdate;
    default:
      return RequestClass::kHeavy;
  }
}

/// An engine failure (trips the breaker, triggers the in-request CPU retry)
/// as opposed to the request's own outcome (cancellation, expiry, bad
/// arguments), which must surface unchanged and leave the breaker alone.
bool IsEngineFault(const Status& status) {
  return !status.ok() && !status.IsCancelled() &&
         !status.IsDeadlineExceeded() && !status.IsInvalidArgument();
}

/// Same split for update batches, whose own invalid-batch outcomes use two
/// more codes: FailedPrecondition (inserting a present edge) and NotFound
/// (removing an absent one). Those reject the batch on ANY engine — retrying
/// on the host path would just reject again — so they surface unchanged.
bool IsUpdateFault(const Status& status) {
  return IsEngineFault(status) && !status.IsFailedPrecondition() &&
         !status.IsNotFound();
}

}  // namespace

KcoreServer::KcoreServer(CsrGraph graph, ServerOptions options)
    : graph_(std::move(graph)), options_(std::move(options)) {
  // Engine-internal CPU fallback would swallow permanent device loss and
  // starve the breaker of its failure signal; the server owns degradation.
  options_.engine_config.gpu.resilience.cpu_fallback = false;
  options_.engine_config.multi_gpu.resilience.cpu_fallback = false;
  options_.engine_config.cluster.resilience.cpu_fallback = false;
  options_.engine_config.incremental.cpu_fallback = false;
  options_.engine_config.incremental.repeel.resilience.cpu_fallback = false;
  primary_ = MakeEngine(options_.engine, options_.engine_config);
  fallback_ = MakeEngine(EngineKind::kBz);
  paused_ = options_.start_paused;
  runner_ = std::thread([this] { RunnerLoop(); });
}

KcoreServer::~KcoreServer() { (void)Shutdown(); }

std::future<ServeResponse> KcoreServer::Submit(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  const RequestClass cls = ClassOf(request.type);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      ++stats_.rejected;
      ServeResponse response;
      response.status =
          Status::FailedPrecondition("kcore_server is shut down");
      promise.set_value(std::move(response));
      return future;
    }
    std::deque<Pending>* queue = &heavy_queue_;
    uint64_t capacity = options_.heavy_queue_capacity;
    const char* label = "heavy";
    double per_request_ms = last_heavy_run_ms_;
    if (cls == RequestClass::kPoint) {
      queue = &point_queue_;
      capacity = options_.point_queue_capacity;
      label = "point";
      per_request_ms = 1.0;
    } else if (cls == RequestClass::kUpdate) {
      queue = &update_queue_;
      capacity = options_.update_queue_capacity;
      label = "update";
      per_request_ms = last_update_run_ms_;
    }
    if (queue->size() >= capacity) {
      // Backpressure: shed NOW with a backoff hint instead of letting the
      // queue grow without bound. A shed is still a response — nothing is
      // silently dropped.
      ++stats_.shed;
      ServeResponse response;
      response.metrics.shed = true;
      response.metrics.retry_after_ms =
          cls == RequestClass::kPoint
              ? 1.0
              : per_request_ms * static_cast<double>(queue->size());
      response.status = Status::ResourceExhausted(
          StrFormat("%s queue full (%llu queued); retry in ~%.1f ms", label,
                    static_cast<unsigned long long>(queue->size()),
                    response.metrics.retry_after_ms));
      promise.set_value(std::move(response));
      return future;
    }
    Pending pending;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    pending.sequence = ++next_sequence_;
    ++stats_.admitted;
    queue->push_back(std::move(pending));
  }
  work_cv_.notify_one();
  return future;
}

void KcoreServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

Status KcoreServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("kcore_server already shut down");
    }
    shutting_down_ = true;
    paused_ = false;  // drain even a paused server
  }
  work_cv_.notify_all();
  if (runner_.joinable()) runner_.join();
  return Status::OK();
}

ServerStats KcoreServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats snapshot = stats_;
  snapshot.breaker = breaker_;
  snapshot.point_queue_depth = point_queue_.size();
  snapshot.update_queue_depth = update_queue_.size();
  snapshot.heavy_queue_depth = heavy_queue_.size();
  return snapshot;
}

bool KcoreServer::PopNext(Pending* out) {
  // Caller holds mu_. Three-tier priority: point (microseconds against the
  // cache) -> update (localized re-peel) -> heavy (full engine pass), each
  // tier with a burst limit so a flood of one class cannot starve the
  // classes below it forever.
  const bool below_point = !update_queue_.empty() || !heavy_queue_.empty();
  if (!point_queue_.empty() &&
      (!below_point || point_burst_ < options_.point_burst_limit)) {
    ++point_burst_;
    *out = std::move(point_queue_.front());
    point_queue_.pop_front();
    return true;
  }
  point_burst_ = 0;
  if (!update_queue_.empty() &&
      (heavy_queue_.empty() ||
       update_burst_ < options_.update_burst_limit)) {
    ++update_burst_;
    *out = std::move(update_queue_.front());
    update_queue_.pop_front();
    return true;
  }
  update_burst_ = 0;
  if (!heavy_queue_.empty()) {
    *out = std::move(heavy_queue_.front());
    heavy_queue_.pop_front();
    return true;
  }
  return false;
}

void KcoreServer::RunnerLoop() {
  while (true) {
    Pending pending;
    bool have = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutting_down_ ||
               (!paused_ && (!point_queue_.empty() ||
                             !update_queue_.empty() ||
                             !heavy_queue_.empty()));
      });
      have = PopNext(&pending);
      if (!have && shutting_down_) {
        runner_exited_ = true;
        return;
      }
    }
    if (have) Dispatch(std::move(pending));
  }
}

void KcoreServer::Answer(Pending pending, ServeResponse response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Status& status = response.status;
    if (status.ok()) {
      ++stats_.completed;
      if (response.metrics.degraded) ++stats_.degraded;
      if (response.metrics.cache_hit) ++stats_.cache_hits;
    } else if (status.IsCancelled()) {
      ++stats_.cancelled;
    } else if (status.IsDeadlineExceeded()) {
      ++stats_.deadline_exceeded;
    } else {
      ++stats_.failed;
    }
  }
  pending.promise.set_value(std::move(response));
}

template <typename Result>
StatusOr<Result> KcoreServer::RunWithBreaker(
    const CancelContext& cancel, Trace* trace, ServeMetrics* metrics,
    const std::function<StatusOr<Result>(Engine*, const EngineRunContext&)>&
        fn) {
  EngineRunContext ctx;
  ctx.cancel = &cancel;
  ctx.trace = trace;

  bool try_primary = false;
  bool probing = false;
  uint64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    try_primary = AllowPrimaryLocked();
    probing = breaker_ == BreakerState::kHalfOpen;
    if (try_primary) {
      attempt = stats_.gpu_attempts++;
      if (probing) ++stats_.breaker_probes;
    }
  }
  if (try_primary) {
    std::string fault_override;
    if (options_.fault_plan_fn) {
      fault_override = options_.fault_plan_fn(attempt);
      ctx.fault_spec_override = &fault_override;
    }
    bool primary_ok = true;
    if (probing) {
      // Half-open: health-check the engine pool before risking the real
      // request on it. A dead probe re-opens the breaker at the cost of
      // one launch, not one wasted half-run.
      if (Status health = primary_->HealthCheck(ctx); !health.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimaryFailureLocked();
        primary_ok = false;
      }
    }
    if (primary_ok) {
      auto result = fn(primary_.get(), ctx);
      if (result.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimarySuccessLocked();
        return result;
      }
      if (!IsEngineFault(result.status())) return result;
      {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimaryFailureLocked();
      }
      // The request is immediately retried on the exact CPU path below —
      // an engine death costs latency, never a dropped or wrong answer.
      ++metrics->retries;
    }
  }
  metrics->degraded = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    OnFallbackServedLocked();
  }
  KCORE_RETURN_IF_ERROR(cancel.Check("serve fallback entry"));
  EngineRunContext fallback_ctx;
  fallback_ctx.cancel = &cancel;
  fallback_ctx.trace = trace;
  return fn(fallback_.get(), fallback_ctx);
}

StatusOr<UpdateResult> KcoreServer::RunUpdate(
    const CancelContext& cancel, Trace* trace, ServeMetrics* metrics,
    std::span<const EdgeUpdate> batch) {
  if (!primary_->supports_updates()) {
    return Status::FailedPrecondition(
        StrFormat("%s engine does not maintain an updatable decomposition",
                  primary_->name()));
  }
  EngineRunContext ctx;
  ctx.cancel = &cancel;
  ctx.trace = trace;

  bool try_primary = false;
  bool probing = false;
  uint64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    try_primary = AllowPrimaryLocked();
    probing = breaker_ == BreakerState::kHalfOpen;
    if (try_primary) {
      attempt = stats_.gpu_attempts++;
      if (probing) ++stats_.breaker_probes;
    }
  }
  if (try_primary) {
    std::string fault_override;
    if (options_.fault_plan_fn) {
      fault_override = options_.fault_plan_fn(attempt);
      ctx.fault_spec_override = &fault_override;
    }
    bool primary_ok = true;
    if (probing) {
      if (Status health = primary_->HealthCheck(ctx); !health.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimaryFailureLocked();
        primary_ok = false;
      }
    }
    if (primary_ok) {
      auto result = primary_->ApplyUpdates(graph_, batch, ctx);
      if (result.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimarySuccessLocked();
        return result;
      }
      if (!IsUpdateFault(result.status())) return result;
      {
        std::lock_guard<std::mutex> lock(mu_);
        OnPrimaryFailureLocked();
      }
      // Retried below on the same engine's exact host path — an engine
      // death costs latency, never a dropped batch or a forked epoch.
      ++metrics->retries;
    }
  }
  // Degraded path: the SAME engine's host maintenance algorithm against the
  // SAME committed state. Routing updates to the fallback_ engine (as
  // RunWithBreaker does for reads) would create a second state-holder whose
  // epoch history diverges from the primary's the moment it commits.
  metrics->degraded = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    OnFallbackServedLocked();
  }
  KCORE_RETURN_IF_ERROR(cancel.Check("serve update fallback entry"));
  EngineRunContext host_ctx;
  host_ctx.cancel = &cancel;
  host_ctx.trace = trace;
  host_ctx.prefer_host = true;
  return primary_->ApplyUpdates(graph_, batch, host_ctx);
}

Status KcoreServer::EnsureCache(const CancelContext& cancel, Trace* trace,
                                ServeMetrics* metrics) {
  // A committed update advances graph_epoch_: a cache from an older epoch
  // answers point queries with pre-update core numbers, so it recomputes
  // here (the staleness regression the epoch tag exists to prevent).
  if (cache_warm_ && cache_epoch_ == graph_epoch_) {
    metrics->cache_hit = true;
    return Status::OK();
  }
  auto result = RunWithBreaker<DecomposeResult>(
      cancel, trace, metrics,
      [this](Engine* engine, const EngineRunContext& ctx) {
        return engine->Decompose(ServingGraph(), ctx);
      });
  if (!result.ok()) return result.status();
  cache_core_ = std::move(result->core);
  cache_warm_ = true;
  cache_epoch_ = graph_epoch_;
  return Status::OK();
}

void KcoreServer::Dispatch(Pending pending) {
  ServeResponse response;
  ServeMetrics& metrics = response.metrics;
  metrics.sequence = pending.sequence;
  metrics.queue_ms = pending.queued.ElapsedMillis();
  Trace* const trace = pending.request.trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics.run_order = ++next_run_order_;
    metrics.breaker = breaker_;
  }
  WallTimer run_timer;
  const CancelContext cancel{pending.request.cancel,
                             pending.request.deadline};
  const ServeRequest& request = pending.request;

  if (Status live = cancel.Check("serve dispatch"); !live.ok()) {
    // Expired or cancelled while queued: answered without touching an
    // engine (and without charging run time to the device).
    response.status = live;
  } else {
    switch (request.type) {
      case RequestType::kFullDecompose: {
        auto result = RunWithBreaker<DecomposeResult>(
            cancel, trace, &metrics,
            [this](Engine* engine, const EngineRunContext& ctx) {
              return engine->Decompose(ServingGraph(), ctx);
            });
        if (result.ok()) {
          response.core = std::move(result->core);
          cache_core_ = response.core;  // refresh the point-query cache
          cache_warm_ = true;
          cache_epoch_ = graph_epoch_;
        } else {
          response.status = result.status();
        }
        break;
      }
      case RequestType::kSingleK: {
        const uint32_t k = request.k;
        auto result = RunWithBreaker<SingleKCoreResult>(
            cancel, trace, &metrics,
            [this, k](Engine* engine, const EngineRunContext& ctx) {
              return engine->SingleK(ServingGraph(), k, ctx);
            });
        if (result.ok()) {
          response.single_k = std::move(*result);
        } else {
          response.status = result.status();
        }
        break;
      }
      case RequestType::kCoreOf: {
        if (request.v >= graph_.NumVertices()) {
          response.status = Status::InvalidArgument(
              StrFormat("core_of: vertex %u out of range [0, %u)", request.v,
                        graph_.NumVertices()));
          break;
        }
        response.status = EnsureCache(cancel, trace, &metrics);
        if (response.status.ok()) response.core_of = cache_core_[request.v];
        break;
      }
      case RequestType::kTopK: {
        response.status = EnsureCache(cancel, trace, &metrics);
        if (!response.status.ok()) break;
        const uint32_t limit = std::min<uint64_t>(
            request.limit, static_cast<uint64_t>(cache_core_.size()));
        response.top.reserve(cache_core_.size());
        for (VertexId v = 0; v < cache_core_.size(); ++v) {
          response.top.emplace_back(v, cache_core_[v]);
        }
        std::partial_sort(response.top.begin(),
                          response.top.begin() + limit, response.top.end(),
                          [](const auto& a, const auto& b) {
                            if (a.second != b.second)
                              return a.second > b.second;
                            return a.first < b.first;
                          });
        response.top.resize(limit);
        break;
      }
      case RequestType::kApplyUpdates: {
        auto result = RunUpdate(cancel, trace, &metrics, request.updates);
        if (!result.ok()) {
          response.status = result.status();
          break;
        }
        response.update_epoch = result->epoch;
        response.update_changed = std::move(result->changed);
        response.core = std::move(result->core);
        // Commit serving-side: materialize the engine's committed graph for
        // subsequent heavy requests and refresh the point cache straight
        // from the batch's snapshot (no recompute needed).
        auto graph = primary_->UpdatedGraph();
        if (!graph.ok()) {
          response.status = graph.status();
          break;
        }
        updated_graph_ = std::move(*graph);
        graph_epoch_ = result->epoch;
        cache_core_ = response.core;
        cache_warm_ = true;
        cache_epoch_ = graph_epoch_;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.updates_applied;
          stats_.update_edges += request.updates.size();
          stats_.graph_epoch = graph_epoch_;
        }
        break;
      }
    }
  }
  metrics.run_ms = run_timer.ElapsedMillis();
  if (response.status.ok()) {
    const RequestClass cls = ClassOf(request.type);
    if (cls == RequestClass::kHeavy) {
      std::lock_guard<std::mutex> lock(mu_);
      last_heavy_run_ms_ = std::max(0.1, metrics.run_ms);
    } else if (cls == RequestClass::kUpdate) {
      std::lock_guard<std::mutex> lock(mu_);
      last_update_run_ms_ = std::max(0.1, metrics.run_ms);
    }
  }
  Answer(std::move(pending), std::move(response));
}

bool KcoreServer::AllowPrimaryLocked() const {
  return breaker_ != BreakerState::kOpen;
}

void KcoreServer::OnPrimarySuccessLocked() {
  if (breaker_ == BreakerState::kHalfOpen) {
    breaker_ = BreakerState::kClosed;
    ++stats_.breaker_recoveries;
  }
  consecutive_failures_ = 0;
  stats_.breaker = breaker_;
}

void KcoreServer::OnPrimaryFailureLocked() {
  ++stats_.gpu_failures;
  ++consecutive_failures_;
  const bool trip =
      breaker_ == BreakerState::kHalfOpen ||
      (breaker_ == BreakerState::kClosed &&
       consecutive_failures_ >= options_.breaker_trip_threshold);
  if (trip) {
    breaker_ = BreakerState::kOpen;
    open_served_ = 0;
    ++stats_.breaker_trips;
  }
  stats_.breaker = breaker_;
}

void KcoreServer::OnFallbackServedLocked() {
  if (breaker_ == BreakerState::kOpen &&
      ++open_served_ >= options_.breaker_cooldown_requests) {
    breaker_ = BreakerState::kHalfOpen;
    stats_.breaker = breaker_;
  }
}

}  // namespace kcore
