// Serve workloads: a KcoreServer on the web-BerkStan stand-in under an
// open-loop Poisson stream, a closed-loop capacity phase on a fresh server,
// and an offline replay of the stream's engine work that measures the
// layers under the server.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/incremental_core.h"
#include "cpu/bz.h"
#include "graph/graph_builder.h"
#include "serve/server.h"

namespace kcore::kbench {
namespace {

// Open loop: independent clients at a fixed Poisson rate, about an eighth
// of the read capacity of a quiet host, so queueing stays bounded and the
// latency reflects the service path rather than an overloaded queue. At a
// quarter of it, a shared host that slowed the simulator 4x pushed the
// server past capacity and it shed requests.
constexpr double kRatePerSec = 150.0;
// Tail latency is taken per window (README.md, "Why best-of statistics");
// a window holds about 100 requests, so its p99 is its second-slowest.
constexpr int kWindows = 10;
// Share of --seconds spent in the open loop; the capacity phase takes the
// rest.
constexpr double kOpenLoopShare = 0.7;
// Closed loop: callers that wait for their reply, 32 at a time. Capacity is
// the OK answers per second of the best of kCapacitySlices equal time
// slices. The stream holds enough requests for kCapacityMaxRate.
constexpr size_t kCapacityOutstanding = 32;
constexpr size_t kCapacitySlices = 12;
constexpr double kCapacityMaxRate = 1500.0;
// Writes: share of request slots that carry an update batch, its size, and
// the share of its updates that insert an edge.
constexpr double kUpdateShare = 0.2;
constexpr size_t kUpdateBatchEdges = 8;
constexpr double kInsertShare = 0.55;
constexpr uint32_t kTopLimit = 10;
// A serving set-up takes milliseconds, so its median is taken over enough
// of them to span several contention bursts.
constexpr int kSetups = 9;

const char* const kServeGraph = "web-BerkStan";
const double kInf = std::numeric_limits<double>::infinity();

/// One request of the generated stream.
struct StreamRequest {
  RequestType type = RequestType::kCoreOf;
  uint32_t k = 1;
  VertexId v = 0;
  UpdateBatch updates;
  /// kApplyUpdates: position among the stream's update batches.
  uint64_t update_ordinal = 0;
  /// Open-loop arrival time after the stream starts.
  double sched_ms = 0.0;
};

ServeRequest ToServeRequest(const StreamRequest& s) {
  ServeRequest r;
  r.type = s.type;
  r.k = s.k;
  r.v = s.v;
  r.limit = kTopLimit;
  r.updates = s.updates;
  return r;
}

const char* ClassName(RequestType type) {
  switch (type) {
    case RequestType::kCoreOf:
    case RequestType::kTopK:
      return "point";
    case RequestType::kSingleK:
      return "single_k";
    case RequestType::kFullDecompose:
      return "full";
    case RequestType::kApplyUpdates:
      return "update";
  }
  return "unknown";
}

/// Host copy of the evolving edge set: draws update batches that are valid
/// under sequential semantics and builds the graph of each epoch.
class EdgeMirror {
 public:
  explicit EdgeMirror(const CsrGraph& graph) : n_(graph.NumVertices()) {
    for (VertexId v = 0; v < n_; ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        if (v < u) Insert(Key(v, u));
      }
    }
  }

  UpdateBatch NextBatch(Rng& rng) {
    UpdateBatch batch;
    std::unordered_set<uint64_t> touched;  // one update per edge per batch
    while (batch.size() < kUpdateBatchEdges) {
      if (edges_.empty() || rng.Bernoulli(kInsertShare)) {
        const auto a = static_cast<VertexId>(rng.UniformInt(n_));
        const auto b = static_cast<VertexId>(rng.UniformInt(n_));
        const uint64_t key = Key(a, b);
        if (a == b || present_.count(key) != 0 || touched.count(key) != 0) {
          continue;
        }
        Insert(key);
        touched.insert(key);
        batch.push_back(EdgeUpdate::Insert(a, b));
      } else {
        const size_t slot = rng.UniformInt(edges_.size());
        const uint64_t key = edges_[slot];
        if (touched.count(key) != 0) continue;
        edges_[slot] = edges_.back();
        edges_.pop_back();
        present_.erase(key);
        touched.insert(key);
        batch.push_back(EdgeUpdate::Remove(static_cast<VertexId>(key >> 32),
                                           static_cast<VertexId>(key)));
      }
    }
    return batch;
  }

  CsrGraph Graph() const {
    EdgeList list;
    list.reserve(edges_.size());
    for (uint64_t key : edges_) list.push_back({key >> 32, key & 0xffffffffu});
    return BuildUndirectedGraphWithVertexCount(list, n_);
  }

 private:
  static uint64_t Key(VertexId a, VertexId b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  }
  void Insert(uint64_t key) {
    edges_.push_back(key);
    present_.insert(key);
  }

  VertexId n_;
  std::vector<uint64_t> edges_;
  std::unordered_set<uint64_t> present_;
};

/// Everything generated from the seed before any clock starts.
struct Inputs {
  EdgeList edges;
  VertexId num_vertices = 0;
  std::vector<StreamRequest> stream;
  /// stream[0, open_loop) is the open-loop phase; the capacity phase runs
  /// a prefix of stream[0, capacity) on a fresh server for capacity_ms.
  size_t open_loop = 0;
  size_t capacity = 0;
  double open_loop_ms = 0.0;
  double capacity_ms = 0.0;
  int windows = kWindows;
  /// Writes: the set-up's warm-up batch (epoch 1).
  UpdateBatch warmup_batch;
  /// BZ core numbers of every epoch the stream can reach.
  std::vector<std::vector<uint32_t>> oracle;
  /// Epoch the measured stream starts from.
  uint64_t first_epoch = 0;
  double bz_ms = 0.0;
};

Inputs GenerateInputs(const RunConfig& config, bool writes) {
  Inputs in;
  // The roster graph itself; the seed draws the request stream and the
  // update batches. (Another graph instance per seed moves the update cost
  // enough to swamp the serving numbers.)
  const bench::DatasetSpec& spec = RosterSpec(kServeGraph);
  in.edges = GenerateRosterEdges(spec, /*seed=*/0);
  in.num_vertices = spec.generator.num_vertices;
  const CsrGraph graph =
      BuildUndirectedGraphWithVertexCount(in.edges, in.num_vertices);
  const double bz_start = NowMs();
  in.oracle.push_back(RunBz(graph).core);
  in.bz_ms = NowMs() - bz_start;
  const uint32_t k_max =
      *std::max_element(in.oracle[0].begin(), in.oracle[0].end());

  Rng rng(config.seed * 0x2545f4914f6cdd1dull + (writes ? 2 : 1));
  EdgeMirror mirror(graph);
  if (writes) {
    in.warmup_batch = mirror.NextBatch(rng);
    in.oracle.push_back(RunBz(mirror.Graph()).core);
    in.first_epoch = 1;
  }

  in.windows = config.smoke ? (config.traced() ? 2 : 1) : kWindows;
  in.open_loop_ms = config.smoke
                        ? 1000.0 * in.windows
                        : config.seconds * kOpenLoopShare * 1000.0;
  std::vector<double> arrivals;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.UniformReal()) / kRatePerSec * 1000.0;
    if (t >= in.open_loop_ms) break;
    arrivals.push_back(t);
  }
  in.open_loop = arrivals.size();
  in.capacity_ms = config.smoke
                       ? 1000.0
                       : config.seconds * (1.0 - kOpenLoopShare) * 1000.0;
  in.capacity = static_cast<size_t>(in.capacity_ms / 1000.0 * kCapacityMaxRate);
  const size_t total = std::max(in.open_loop, in.capacity);

  uint64_t updates = 0;
  for (size_t i = 0; i < total; ++i) {
    StreamRequest req;
    req.sched_ms = i < arrivals.size() ? arrivals[i] : 0.0;
    const double mix = rng.UniformReal();
    if (writes && rng.Bernoulli(kUpdateShare)) {
      req.type = RequestType::kApplyUpdates;
      req.updates = mirror.NextBatch(rng);
      req.update_ordinal = updates++;
      in.oracle.push_back(RunBz(mirror.Graph()).core);
    } else if (mix < 0.30) {
      req.type = RequestType::kCoreOf;
      req.v = static_cast<VertexId>(rng.UniformInt(in.num_vertices));
    } else if (mix < 0.60) {
      req.type = RequestType::kTopK;
    } else if (mix < 0.85) {
      req.type = RequestType::kSingleK;
      req.k = static_cast<uint32_t>(rng.UniformRange(1, k_max));
    } else {
      req.type = RequestType::kFullDecompose;
    }
    in.stream.push_back(std::move(req));
  }
  return in;
}

/// What happened to one submitted request.
struct Outcome {
  ServeResponse response;
  double t_call = 0.0;  ///< Submit called.
  double t_ret = 0.0;   ///< Submit returned.
  /// Epochs the answer may reflect: from the epoch known committed when the
  /// request was submitted to the last update submitted before its answer
  /// was seen.
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Open-loop latency: from when the request was due to when it was
/// answered, assembled from the server's own queue and run times so it does
/// not depend on how fast the collector polls. Admission and queueing
/// overlap (the queue timer starts inside Submit), hence the max.
double QueuedMs(const Outcome& o) {
  return std::max(o.t_ret - o.t_call, o.response.metrics.queue_ms);
}
double LatencyMs(const Outcome& o, double due_ms) {
  if (!o.response.status.ok()) return kInf;
  return (o.t_call - due_ms) + QueuedMs(o) + o.response.metrics.run_ms;
}

class Oracle {
 public:
  explicit Oracle(const Inputs& in) : in_(in) {}

  /// True when the answer matches the oracle at an epoch it could have
  /// observed (updates: exactly the epoch they commit).
  bool Matches(const StreamRequest& req, const Outcome& o) {
    const ServeResponse& r = o.response;
    if (req.type == RequestType::kApplyUpdates) {
      const uint64_t epoch = in_.first_epoch + req.update_ordinal + 1;
      return r.update_epoch == epoch && r.core == in_.oracle[epoch];
    }
    for (uint64_t e = o.lo; e <= o.hi && e < in_.oracle.size(); ++e) {
      if (MatchesEpoch(req, r, e)) return true;
    }
    return false;
  }

  bool MatchesEpoch(const StreamRequest& req, const ServeResponse& r,
                    uint64_t epoch) {
    const std::vector<uint32_t>& core = in_.oracle[epoch];
    switch (req.type) {
      case RequestType::kCoreOf:
        return r.core_of == core[req.v];
      case RequestType::kTopK:
        return r.top == Top(epoch);
      case RequestType::kSingleK:
        return r.single_k.vertices == KCore(core, req.k);
      case RequestType::kFullDecompose:
        return r.core == core;
      case RequestType::kApplyUpdates:
        return false;
    }
    return false;
  }

  static std::vector<uint32_t> KCore(const std::vector<uint32_t>& core,
                                     uint32_t k) {
    std::vector<uint32_t> members;
    for (VertexId v = 0; v < core.size(); ++v) {
      if (core[v] >= k) members.push_back(v);
    }
    return members;
  }

 private:
  const std::vector<std::pair<VertexId, uint32_t>>& Top(uint64_t epoch) {
    auto it = top_.find(epoch);
    if (it != top_.end()) return it->second;
    const std::vector<uint32_t>& core = in_.oracle[epoch];
    std::vector<std::pair<VertexId, uint32_t>> top;
    for (VertexId v = 0; v < core.size(); ++v) top.emplace_back(v, core[v]);
    const size_t limit = std::min<size_t>(kTopLimit, top.size());
    std::partial_sort(top.begin(), top.begin() + limit, top.end(),
                      [](const auto& a, const auto& b) {
                        return a.second != b.second ? a.second > b.second
                                                    : a.first < b.first;
                      });
    top.resize(limit);
    return top_.emplace(epoch, std::move(top)).first->second;
  }

  const Inputs& in_;
  std::map<uint64_t, std::vector<std::pair<VertexId, uint32_t>>> top_;
};

/// Futures handed from the open-loop generator to the collector, in
/// submission order.
class FutureQueue {
 public:
  void Push(size_t index, std::future<ServeResponse> future) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.emplace_back(index, std::move(future));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  bool Pop(size_t* index, std::future<ServeResponse>* future) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *index = items_.front().first;
    *future = std::move(items_.front().second);
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, std::future<ServeResponse>>> items_;
  bool closed_ = false;  // guarded by mu_
};

class ServeRun {
 public:
  ServeRun(const RunConfig& config, bool writes, ThreadPool* pool,
           Tracer* tracer, Report* report)
      : config_(config),
        writes_(writes),
        tracer_(tracer),
        report_(report),
        in_(GenerateInputs(config, writes)),
        oracle_(in_) {
    options_.engine_config.device.pool = pool;
  }

  Status Run();

 private:
  /// CSR build, server construction and one warm-up request (writes: the
  /// warm-up batch, which also seeds the incremental state).
  StatusOr<std::unique_ptr<KcoreServer>> SetUp(Tracer* tracer,
                                               double* build_ms);
  void OpenLoop(KcoreServer* server);
  void Capacity(KcoreServer* server);
  Status Replay();
  void Check(const std::vector<Outcome>& outcomes);
  void Summarize(const std::vector<double>& setup_s,
                 const std::vector<double>& build_ms);

  double DueMs(size_t i) const { return open_start_ms_ + in_.stream[i].sched_ms; }
  int WindowOf(size_t i) const {
    const double width = in_.open_loop_ms / in_.windows;
    return std::min(in_.windows - 1,
                    static_cast<int>(in_.stream[i].sched_ms / width));
  }
  bool TracedWindow(int window) const {
    return config_.traced() && window % 2 == 1;
  }

  const RunConfig& config_;
  const bool writes_;
  Tracer* tracer_;
  Report* report_;
  ServerOptions options_;
  const Inputs in_;
  Oracle oracle_;

  double open_start_ms_ = 0.0;
  std::vector<Outcome> open_;
  std::vector<Outcome> closed_;
  double capacity_rps_ = 0.0;
  ServerStats stats_open_;
  ServerStats stats_closed_;

  // Replay of the open-loop stream's engine work.
  std::vector<double> decompose_ms_;
  std::vector<double> decompose_modeled_ms_;
  std::vector<double> single_k_ms_;
  std::vector<double> apply_ms_;
  std::vector<double> current_graph_ms_;
  std::vector<double> apply_modeled_ms_;
  std::vector<double> affected_;
  uint64_t full_repeels_ = 0;
  uint64_t compactions_ = 0;
  EngineTotals replay_;       // every replayed engine call
  EngineTotals replay_peel_;  // the full and single-k ones
};

StatusOr<std::unique_ptr<KcoreServer>> ServeRun::SetUp(Tracer* tracer,
                                                       double* build_ms) {
  ScopedSpan setup(tracer, "setup");
  const double build_start = NowMs();
  ScopedSpan build(tracer, "graph.build", setup.id());
  CsrGraph graph =
      BuildUndirectedGraphWithVertexCount(in_.edges, in_.num_vertices);
  build.Close();
  *build_ms = NowMs() - build_start;
  auto server = std::make_unique<KcoreServer>(std::move(graph), options_);
  StreamRequest warmup;
  warmup.type = writes_ ? RequestType::kApplyUpdates
                        : RequestType::kFullDecompose;
  warmup.updates = in_.warmup_batch;
  ServeResponse response = server->Submit(ToServeRequest(warmup)).get();
  const bool ok =
      response.status.ok() &&
      response.core == in_.oracle[in_.first_epoch] &&
      (!writes_ || response.update_epoch == in_.first_epoch);
  if (!ok) {
    return Status::Internal("serve warm-up request failed or disagreed with "
                            "BZ: " + response.status.ToString());
  }
  return server;
}

void ServeRun::OpenLoop(KcoreServer* server) {
  open_.assign(in_.open_loop, Outcome{});
  std::atomic<uint64_t> updates_submitted{0};
  std::atomic<uint64_t> updates_seen{0};
  FutureQueue queue;
  // The collector waits on answers in submission order. A request answered
  // early but seen late only widens its epoch range; its latency comes from
  // the server's own timers.
  std::thread collector([&] {
    size_t i = 0;
    std::future<ServeResponse> future;
    while (queue.Pop(&i, &future)) {
      Outcome& o = open_[i];
      o.response = future.get();
      o.hi = in_.first_epoch + updates_submitted.load();
      const StreamRequest& req = in_.stream[i];
      if (req.type == RequestType::kApplyUpdates && o.response.status.ok()) {
        updates_seen.fetch_add(1);
      }
      if (!TracedWindow(WindowOf(i))) continue;
      const double queued = QueuedMs(o);
      const double run = o.response.metrics.run_ms;
      const int root = tracer_->Add(
          "serve.request", -1, DueMs(i), o.t_call + queued + run,
          {{"type", JsonQuote(ClassName(req.type))},
           {"ok", o.response.status.ok() ? "true" : "false"}});
      tracer_->Add("serve.admit", root, o.t_call, o.t_ret);
      tracer_->Add("serve.queue", root, o.t_ret, o.t_call + queued);
      tracer_->Add("serve.run", root, o.t_call + queued,
                   o.t_call + queued + run);
    }
  });
  open_start_ms_ = NowMs() + 20.0;
  for (size_t i = 0; i < in_.open_loop; ++i) {
    SleepUntilMs(DueMs(i));
    Outcome& o = open_[i];
    o.t_call = NowMs();
    if (in_.stream[i].type == RequestType::kApplyUpdates) {
      updates_submitted.fetch_add(1);
    }
    o.lo = in_.first_epoch + updates_seen.load();
    std::future<ServeResponse> future =
        server->Submit(ToServeRequest(in_.stream[i]));
    o.t_ret = NowMs();
    queue.Push(i, std::move(future));
  }
  queue.Close();
  collector.join();
  stats_open_ = server->stats();
}

void ServeRun::Capacity(KcoreServer* server) {
  closed_.assign(in_.capacity, Outcome{});
  std::deque<std::pair<size_t, std::future<ServeResponse>>> outstanding;
  uint64_t updates_submitted = 0;
  uint64_t updates_seen = 0;
  const double slice_ms = in_.capacity_ms / kCapacitySlices;
  std::vector<uint64_t> ok_in_slice(kCapacitySlices, 0);
  size_t next = 0;
  const double start = NowMs();
  const auto open = [&] { return NowMs() - start < in_.capacity_ms; };
  while (!outstanding.empty() || (next < in_.capacity && open())) {
    while (next < in_.capacity && outstanding.size() < kCapacityOutstanding &&
           open()) {
      Outcome& o = closed_[next];
      o.t_call = NowMs();
      if (in_.stream[next].type == RequestType::kApplyUpdates) {
        ++updates_submitted;
      }
      o.lo = in_.first_epoch + updates_seen;
      outstanding.emplace_back(
          next, server->Submit(ToServeRequest(in_.stream[next])));
      o.t_ret = NowMs();
      ++next;
    }
    if (outstanding.empty()) break;
    auto [i, future] = std::move(outstanding.front());
    outstanding.pop_front();
    Outcome& o = closed_[i];
    o.response = future.get();
    o.hi = in_.first_epoch + updates_submitted;
    if (o.response.status.ok()) {
      const auto slice = static_cast<size_t>((NowMs() - start) / slice_ms);
      if (slice < kCapacitySlices) ++ok_in_slice[slice];
      if (in_.stream[i].type == RequestType::kApplyUpdates) ++updates_seen;
    }
  }
  closed_.resize(next);
  capacity_rps_ = *std::max_element(ok_in_slice.begin(), ok_in_slice.end()) /
                  (slice_ms / 1000.0);
  stats_closed_ = server->stats();
}

void ServeRun::Check(const std::vector<Outcome>& outcomes) {
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ++report_->attempted;
    const Outcome& o = outcomes[i];
    if (!o.response.status.ok()) {
      ++report_->failed;
      std::fprintf(stderr, "request %zu (%s): %s\n", i,
                   ClassName(in_.stream[i].type),
                   o.response.status.ToString().c_str());
    } else if (!oracle_.Matches(in_.stream[i], o)) {
      ++report_->failed;
      ++report_->mismatches;
      std::fprintf(stderr, "request %zu (%s): answer differs from BZ\n", i,
                   ClassName(in_.stream[i].type));
    }
  }
}

Status ServeRun::Replay() {
  // The open-loop stream's engine work, one call at a time through the same
  // engine configuration the server runs, with an IncrementalCoreEngine of
  // its own standing in for the server's update state.
  std::unique_ptr<Engine> engine =
      MakeEngine(EngineKind::kGpu, options_.engine_config);
  CsrGraph current =
      BuildUndirectedGraphWithVertexCount(in_.edges, in_.num_vertices);
  std::unique_ptr<IncrementalCoreEngine> incremental;
  if (writes_) {
    KCORE_ASSIGN_OR_RETURN(
        incremental,
        IncrementalCoreEngine::Create(
            current, options_.engine_config.incremental,
            options_.engine_config.device, &in_.oracle[0]));
    KCORE_RETURN_IF_ERROR(incremental->ApplyUpdates(in_.warmup_batch).status());
    current = incremental->CurrentGraph();
  }
  uint64_t epoch = in_.first_epoch;
  const auto record_peel = [&](const Metrics& m, double wall) {
    replay_.Add(m, wall);
    replay_peel_.Add(m, wall);
  };
  const auto fail = [&](const char* what, bool error) {
    ++report_->failed;
    if (!error) ++report_->mismatches;
    std::fprintf(stderr, "replay %s: %s\n", what,
                 error ? "failed" : "answer differs from BZ");
  };

  for (size_t i = 0; i < in_.open_loop; ++i) {
    const StreamRequest& req = in_.stream[i];
    if (req.type == RequestType::kCoreOf || req.type == RequestType::kTopK) {
      continue;
    }
    ++report_->attempted;
    const double start = NowMs();
    if (req.type == RequestType::kFullDecompose) {
      ScopedSpan span(tracer_, "engine.decompose");
      auto result = engine->Decompose(current, EngineRunContext{});
      const double wall = NowMs() - start;
      if (!result.ok()) {
        fail("decompose", true);
        continue;
      }
      span.Close(MetricsArgs(result->metrics));
      decompose_ms_.push_back(wall);
      decompose_modeled_ms_.push_back(result->metrics.modeled_ms);
      record_peel(result->metrics, wall);
      if (result->core != in_.oracle[epoch]) fail("decompose", false);
    } else if (req.type == RequestType::kSingleK) {
      ScopedSpan span(tracer_, "engine.single_k");
      auto result = engine->SingleK(current, req.k, EngineRunContext{});
      const double wall = NowMs() - start;
      if (!result.ok()) {
        fail("single_k", true);
        continue;
      }
      span.Close(MetricsArgs(result->metrics));
      single_k_ms_.push_back(wall);
      record_peel(result->metrics, wall);
      if (result->vertices != Oracle::KCore(in_.oracle[epoch], req.k)) {
        fail("single_k", false);
      }
    } else {
      ScopedSpan span(tracer_, "incremental.apply");
      auto result = incremental->ApplyUpdates(req.updates);
      const double wall = NowMs() - start;
      if (!result.ok()) {
        fail("apply", true);
        continue;
      }
      span.Close(MetricsArgs(result->metrics));
      ++epoch;
      apply_ms_.push_back(wall);
      apply_modeled_ms_.push_back(result->metrics.modeled_ms);
      affected_.push_back(static_cast<double>(result->affected));
      full_repeels_ += result->full_repeel ? 1 : 0;
      compactions_ += result->compacted ? 1 : 0;
      replay_.Add(result->metrics, wall);
      if (result->core != in_.oracle[epoch]) fail("apply", false);
      ScopedSpan materialize(tracer_, "incremental.current_graph");
      const double graph_start = NowMs();
      current = incremental->CurrentGraph();
      current_graph_ms_.push_back(NowMs() - graph_start);
    }
  }
  return Status::OK();
}

Status ServeRun::Run() {
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::unique_ptr<KcoreServer> server;
  for (int rep = 0; rep < (config_.smoke ? 1 : kSetups); ++rep) {
    server.reset();
    const double start = NowMs();
    double built = 0.0;
    KCORE_ASSIGN_OR_RETURN(server, SetUp(tracer_, &built));
    setup_s.push_back((NowMs() - start) / 1000.0);
    build_ms.push_back(built);
  }
  OpenLoop(server.get());
  KCORE_RETURN_IF_ERROR(server->Shutdown());

  // The capacity phase gets a fresh server; its set-up is not measured.
  Tracer untraced(false);
  double unused = 0.0;
  KCORE_ASSIGN_OR_RETURN(server, SetUp(&untraced, &unused));
  Capacity(server.get());
  KCORE_RETURN_IF_ERROR(server->Shutdown());
  server.reset();

  Check(open_);
  Check(closed_);
  KCORE_RETURN_IF_ERROR(Replay());
  Summarize(setup_s, build_ms);
  return Status::OK();
}

void ServeRun::Summarize(const std::vector<double>& setup_s,
                         const std::vector<double>& build_ms) {
  Report& r = *report_;
  std::vector<std::vector<double>> window_latency(in_.windows);
  std::map<std::string, std::vector<double>> class_latency;
  std::vector<double> lag;
  std::vector<double> admit_us;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  uint64_t point_ok = 0;
  uint64_t cache_hits = 0;
  std::vector<double> full_latency[2];  // [traced window]
  for (size_t i = 0; i < in_.open_loop; ++i) {
    const Outcome& o = open_[i];
    const double latency = LatencyMs(o, DueMs(i));
    window_latency[WindowOf(i)].push_back(latency);
    if (in_.stream[i].type == RequestType::kFullDecompose) {
      full_latency[TracedWindow(WindowOf(i))].push_back(latency);
    }
    class_latency[ClassName(in_.stream[i].type)].push_back(latency);
    lag.push_back(o.t_call - DueMs(i));
    admit_us.push_back((o.t_ret - o.t_call) * 1000.0);
    if (!o.response.status.ok()) continue;
    queue_ms.push_back(o.response.metrics.queue_ms);
    run_ms.push_back(o.response.metrics.run_ms);
    if (std::string(ClassName(in_.stream[i].type)) == "point") {
      ++point_ok;
      cache_hits += o.response.metrics.cache_hit ? 1 : 0;
    }
  }
  // Best-of statistics, like the fastest call of the peel workloads
  // (README.md, "Why best-of statistics"). wall_ms is the 10th-percentile
  // latency of the full decompositions: the serving path with little queued
  // ahead. (A median over every request sits on the knee between cache hits
  // and engine runs, where it jumps 3x within a few percentiles.) tail_ms is
  // the p95 of the least disturbed window; a window's p99 depends on whether
  // two full decompositions collided in it.
  double best_p95[2] = {kInf, kInf};  // [traced window]
  for (int w = 0; w < in_.windows; ++w) {
    double& best = best_p95[TracedWindow(w)];
    best = std::min(best, Percentile(window_latency[w], 0.95));
  }
  const double full_p10 = Percentile(full_latency[0], 0.10);

  // End to end, all on the wall clock except modeled_ms.
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("wall_ms", full_p10, "ms");
  r.Add("tail_ms", best_p95[0], "ms");
  r.Add("modeled_ms", Median(decompose_modeled_ms_), "ms");
  // Full and single-k decompositions only: a batch that takes the escape
  // hatch re-peels on top of the incremental state, and whether a stream has
  // one (under 1% of batches do) is up to the seed.
  r.Add("peak_device_mb",
        static_cast<double>(replay_peel_.peak_device_bytes) /
            (1024.0 * 1024.0),
        "MB");
  r.Add("throughput_per_s", capacity_rps_, "1/s");
  r.Add("serve.requests_open_loop", static_cast<double>(in_.open_loop),
        "count");
  r.Add("serve.requests_capacity", static_cast<double>(closed_.size()),
        "count");

  // Per layer.
  r.Add("graph.build_ms", Median(build_ms), "ms");
  r.Add("cpu.bz_wall_ms", in_.bz_ms, "ms");
  AddCusimMetrics(replay_, &r);
  AddGpuPeelMetrics(replay_peel_, &r);

  r.Add("serve.admit_us.p99", Percentile(admit_us, 0.99), "us");
  r.Add("serve.queue_ms.p50", Percentile(queue_ms, 0.50), "ms");
  r.Add("serve.queue_ms.p99", Percentile(queue_ms, 0.99), "ms");
  r.Add("serve.run_ms.p50", Percentile(run_ms, 0.50), "ms");
  r.Add("serve.run_ms.p99", Percentile(run_ms, 0.99), "ms");
  for (const auto& [name, latencies] : class_latency) {
    r.Add("serve." + name + ".p99_ms", Percentile(latencies, 0.99), "ms");
  }
  r.Add("serve.cache_hit_frac",
        point_ok == 0 ? 0.0 : static_cast<double>(cache_hits) / point_ok,
        "fraction");
  r.Add("serve.shed",
        static_cast<double>(stats_open_.shed + stats_closed_.shed), "count");
  r.Add("serve.degraded",
        static_cast<double>(stats_open_.degraded + stats_closed_.degraded),
        "count");
  r.Add("serve.breaker_trips",
        static_cast<double>(stats_open_.breaker_trips +
                            stats_closed_.breaker_trips),
        "count");
  r.Add("serve.generator_lag_ms.p99", Percentile(lag, 0.99), "ms");
  r.Add("engine.decompose_ms.p50", Percentile(decompose_ms_, 0.50), "ms");
  r.Add("engine.single_k_ms.p50", Percentile(single_k_ms_, 0.50), "ms");
  if (writes_) {
    r.Add("incremental.apply_ms.p50", Percentile(apply_ms_, 0.50), "ms");
    r.Add("incremental.apply_ms.p99", Percentile(apply_ms_, 0.99), "ms");
    r.Add("incremental.current_graph_ms.p50",
          Percentile(current_graph_ms_, 0.50), "ms");
    r.Add("incremental.affected.mean", Mean(affected_), "count");
    r.Add("incremental.full_repeel_frac",
          apply_ms_.empty() ? 0.0
                            : static_cast<double>(full_repeels_) /
                                  static_cast<double>(apply_ms_.size()),
          "fraction");
    r.Add("incremental.compactions", static_cast<double>(compactions_),
          "count");
    r.Add("incremental.modeled_ms.mean", Mean(apply_modeled_ms_), "ms");
  }
  if (config_.traced()) {
    r.Add("trace_overhead_frac",
          Percentile(full_latency[1], 0.10) / full_p10 - 1.0, "fraction");
  }
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return name == "serve-read" || name == "serve-write";
}

Status RunServeWorkload(const RunConfig& config, ThreadPool* pool,
                        Tracer* tracer, Report* report) {
  if (!IsServeWorkload(config.workload)) {
    return Status::InvalidArgument("unknown serve workload " +
                                   config.workload);
  }
  return ServeRun(config, config.workload == "serve-write", pool, tracer,
                  report)
      .Run();
}

}  // namespace kcore::kbench
