#include "serve/engine.h"

#include <utility>

#include "common/strings.h"
#include "core/gpu_peel.h"
#include "cpu/bz.h"
#include "cpu/dynamic_core.h"
#include "cpu/mpm.h"
#include "cpu/park.h"
#include "cpu/pkc.h"
#include "cpu/xiang.h"

namespace kcore {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kGpu:
      return "gpu";
    case EngineKind::kMultiGpu:
      return "multigpu";
    case EngineKind::kCluster:
      return "cluster";
    case EngineKind::kVetga:
      return "vetga";
    case EngineKind::kBz:
      return "bz";
    case EngineKind::kPkc:
      return "pkc";
    case EngineKind::kPark:
      return "park";
    case EngineKind::kMpm:
      return "mpm";
  }
  return "unknown";
}

bool ParseEngineKind(const std::string& token, EngineKind* out) {
  for (EngineKind kind :
       {EngineKind::kGpu, EngineKind::kMultiGpu, EngineKind::kCluster,
        EngineKind::kVetga, EngineKind::kBz, EngineKind::kPkc,
        EngineKind::kPark, EngineKind::kMpm}) {
    if (token == EngineKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

StatusOr<SingleKCoreResult> Engine::SingleK(const CsrGraph& graph, uint32_t k,
                                            const EngineRunContext& ctx) {
  if (k < 1) {
    return Status::InvalidArgument("single-k mining requires k >= 1");
  }
  if (ctx.cancel != nullptr) {
    KCORE_RETURN_IF_ERROR(ctx.cancel->Check("single-k CPU entry"));
  }
  return XiangSingleKCore(graph, k);
}

Status Engine::HealthCheck(const EngineRunContext&) { return Status::OK(); }

StatusOr<UpdateResult> Engine::ApplyUpdates(const CsrGraph&,
                                            std::span<const EdgeUpdate>,
                                            const EngineRunContext&) {
  return Status::FailedPrecondition(StrFormat(
      "%s engine does not maintain an updatable decomposition", name()));
}

StatusOr<CsrGraph> Engine::UpdatedGraph() const {
  return Status::FailedPrecondition(StrFormat(
      "%s engine holds no update state (no ApplyUpdates batch applied)",
      name()));
}

namespace {

/// Resolves the device options for one run: the configured template with the
/// context's fault-plan override applied.
sim::DeviceOptions RunDeviceOptions(const sim::DeviceOptions& base,
                                    const EngineRunContext& ctx) {
  sim::DeviceOptions options = base;
  if (ctx.fault_spec_override != nullptr) {
    options.fault_spec = *ctx.fault_spec_override;
  }
  if (ctx.trace != nullptr) options.profile = true;
  return options;
}

/// Single-GPU peeling engine. Each run gets a fresh device so fault plans
/// attach per request and a latched DeviceLost cannot poison later runs.
class GpuEngine : public Engine {
 public:
  explicit GpuEngine(EngineConfig config) : config_(std::move(config)) {}

  EngineKind kind() const override { return EngineKind::kGpu; }
  bool uses_device() const override { return true; }

  StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                      const EngineRunContext& ctx) override {
    sim::Device device(RunDeviceOptions(config_.device, ctx));
    GpuPeelOptions options = config_.gpu;
    options.cancel = ctx.cancel;
    GpuPeelDecomposer decomposer(&device, options);
    auto result = decomposer.Decompose(graph);
    // Export the timeline ok-or-not: the cancellation tests inspect the
    // spans of runs that did NOT finish.
    if (ctx.trace != nullptr && device.profiler() != nullptr) {
      ctx.trace->Append(device.profiler()->trace());
    }
    return result;
  }

  StatusOr<SingleKCoreResult> SingleK(const CsrGraph& graph, uint32_t k,
                                      const EngineRunContext& ctx) override {
    sim::Device device(RunDeviceOptions(config_.device, ctx));
    GpuPeelOptions options = config_.gpu;
    options.cancel = ctx.cancel;
    auto result = GpuSingleKCore(graph, k, options, &device);
    if (ctx.trace != nullptr && device.profiler() != nullptr) {
      ctx.trace->Append(device.profiler()->trace());
    }
    return result;
  }

  Status HealthCheck(const EngineRunContext& ctx) override {
    // Once update state exists, probe ITS device: the breaker's half-open
    // probe must see the health of the state-holding device, not of a
    // throwaway one (a re-attach under the current fault plan happens here
    // if the previous batch lost the device).
    if (incremental_ != nullptr) {
      incremental_->set_device_options(RunDeviceOptions(config_.device, ctx));
      return incremental_->HealthCheck();
    }
    sim::Device device(RunDeviceOptions(config_.device, ctx));
    return device.HealthCheck("serve_probe");
  }

  bool supports_updates() const override { return true; }

  StatusOr<UpdateResult> ApplyUpdates(const CsrGraph& initial,
                                      std::span<const EdgeUpdate> batch,
                                      const EngineRunContext& ctx) override {
    // The documented departure from fresh-device-per-run: incremental
    // maintenance only beats a fresh peel when CSR + coreness stay resident
    // across batches, so the engine lives for the server's lifetime. Fault
    // plans still attach per request — the run's device options take effect
    // at the next (re)attach, and a latched DeviceLost forces exactly such
    // a re-attach before the next GPU batch.
    const sim::DeviceOptions run_device = RunDeviceOptions(config_.device, ctx);
    if (incremental_ == nullptr) {
      auto created =
          IncrementalCoreEngine::Create(initial, config_.incremental,
                                        run_device);
      if (!created.ok()) return created.status();
      incremental_ = std::move(*created);
      trace_exported_ = 0;
    }
    incremental_->set_device_options(run_device);
    incremental_->set_cancel(ctx.cancel);
    // A re-attach replaces the device and resets its profiler trace, so the
    // per-batch export cursor restarts from the top of the new trace.
    if (incremental_->needs_reattach()) trace_exported_ = 0;
    StatusOr<UpdateResult> result =
        ctx.prefer_host ? incremental_->ApplyUpdatesCpu(batch)
                        : incremental_->ApplyUpdates(batch);
    incremental_->set_cancel(nullptr);
    if (ctx.trace != nullptr && incremental_->device() != nullptr &&
        incremental_->device()->profiler() != nullptr) {
      const Trace& full = incremental_->device()->profiler()->trace();
      // Mid-batch recovery can also have replaced the device; a cursor past
      // the end means "new trace" and the slice restarts at zero.
      if (trace_exported_ > full.num_events()) trace_exported_ = 0;
      ctx.trace->AppendFrom(full, trace_exported_);
      trace_exported_ = full.num_events();
    }
    return result;
  }

  StatusOr<CsrGraph> UpdatedGraph() const override {
    if (incremental_ == nullptr) {
      return Status::FailedPrecondition(
          "gpu engine holds no update state (no ApplyUpdates batch applied)");
    }
    return incremental_->CurrentGraph();
  }

 private:
  EngineConfig config_;
  /// Persistent incremental-maintenance state (lazily seeded by the first
  /// ApplyUpdates); the single holder of the evolving serving graph.
  std::unique_ptr<IncrementalCoreEngine> incremental_;
  /// Events of the persistent device's profiler trace already exported to a
  /// request's Trace (per-batch slice cursor).
  size_t trace_exported_ = 0;
};

/// Sharded multi-GPU peeling engine.
class MultiGpuEngine : public Engine {
 public:
  explicit MultiGpuEngine(EngineConfig config) : config_(std::move(config)) {}

  EngineKind kind() const override { return EngineKind::kMultiGpu; }
  bool uses_device() const override { return true; }

  StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                      const EngineRunContext& ctx) override {
    MultiGpuOptions options = config_.multi_gpu;
    options.worker_device = RunDeviceOptions(options.worker_device, ctx);
    options.cancel = ctx.cancel;
    options.trace = ctx.trace;
    return RunMultiGpuPeel(graph, options);
  }

  Status HealthCheck(const EngineRunContext& ctx) override {
    sim::Device device(
        RunDeviceOptions(config_.multi_gpu.worker_device, ctx));
    return device.HealthCheck("serve_probe");
  }

 private:
  EngineConfig config_;
};

/// Simulated multi-node cluster engine.
class ClusterEngine : public Engine {
 public:
  explicit ClusterEngine(EngineConfig config) : config_(std::move(config)) {}

  EngineKind kind() const override { return EngineKind::kCluster; }
  bool uses_device() const override { return true; }

  StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                      const EngineRunContext& ctx) override {
    ClusterOptions options = config_.cluster;
    options.node_device = RunDeviceOptions(options.node_device, ctx);
    options.cancel = ctx.cancel;
    options.trace = ctx.trace;
    return RunClusterPeel(graph, options);
  }

  Status HealthCheck(const EngineRunContext& ctx) override {
    sim::Device device(RunDeviceOptions(config_.cluster.node_device, ctx));
    return device.HealthCheck("serve_probe");
  }

 private:
  EngineConfig config_;
};

/// Vector-primitive baseline engine.
class VetgaEngine : public Engine {
 public:
  explicit VetgaEngine(EngineConfig config) : config_(std::move(config)) {}

  EngineKind kind() const override { return EngineKind::kVetga; }
  bool uses_device() const override { return true; }

  StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                      const EngineRunContext& ctx) override {
    VetgaConfig config = config_.vetga;
    config.device = RunDeviceOptions(config.device, ctx);
    config.cancel = ctx.cancel;
    config.trace = ctx.trace;
    return RunVetga(graph, config);
  }

  Status HealthCheck(const EngineRunContext& ctx) override {
    sim::Device device(RunDeviceOptions(config_.vetga.device, ctx));
    return device.HealthCheck("serve_probe");
  }

 private:
  EngineConfig config_;
};

/// Host-algorithm engines share one wrapper: an entry cancellation check
/// (the host algorithms run to completion once started — they are fast
/// enough that round-boundary polling buys nothing) and no device.
class CpuEngine : public Engine {
 public:
  explicit CpuEngine(EngineKind kind) : kind_(kind) {}

  EngineKind kind() const override { return kind_; }
  bool uses_device() const override { return false; }

  StatusOr<DecomposeResult> Decompose(const CsrGraph& graph,
                                      const EngineRunContext& ctx) override {
    if (ctx.cancel != nullptr) {
      KCORE_RETURN_IF_ERROR(ctx.cancel->Check("cpu engine entry"));
    }
    switch (kind_) {
      case EngineKind::kBz:
        return RunBz(graph);
      case EngineKind::kPkc:
        return RunPkc(graph);
      case EngineKind::kPark:
        return RunParK(graph);
      case EngineKind::kMpm:
        return RunMpm(graph);
      default:
        return Status::Internal("CpuEngine built with a device engine kind");
    }
  }

  bool supports_updates() const override { return true; }

  StatusOr<UpdateResult> ApplyUpdates(const CsrGraph& initial,
                                      std::span<const EdgeUpdate> batch,
                                      const EngineRunContext& ctx) override {
    if (ctx.cancel != nullptr) {
      KCORE_RETURN_IF_ERROR(ctx.cancel->Check("cpu engine update entry"));
    }
    // Host engines share the exact traversal-locality maintenance path;
    // prefer_host is a no-op (this IS the host path).
    if (dynamic_ == nullptr) {
      dynamic_ = std::make_unique<DynamicKCore>(initial);
    }
    auto changed = dynamic_->ApplyBatch(batch);
    if (!changed.ok()) return changed.status();
    UpdateResult result;
    result.epoch = ++update_epoch_;
    result.changed = std::move(*changed);
    result.core = dynamic_->core();
    result.affected = dynamic_->last_update_evaluations();
    return result;
  }

  StatusOr<CsrGraph> UpdatedGraph() const override {
    if (dynamic_ == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "%s engine holds no update state (no ApplyUpdates batch applied)",
          name()));
    }
    return dynamic_->ToCsrGraph();
  }

 private:
  EngineKind kind_;
  /// Persistent host maintenance state (lazily seeded by ApplyUpdates).
  std::unique_ptr<DynamicKCore> dynamic_;
  uint64_t update_epoch_ = 0;
};

}  // namespace

std::unique_ptr<Engine> MakeEngine(EngineKind kind, EngineConfig config) {
  switch (kind) {
    case EngineKind::kGpu:
      return std::make_unique<GpuEngine>(std::move(config));
    case EngineKind::kMultiGpu:
      return std::make_unique<MultiGpuEngine>(std::move(config));
    case EngineKind::kCluster:
      return std::make_unique<ClusterEngine>(std::move(config));
    case EngineKind::kVetga:
      return std::make_unique<VetgaEngine>(std::move(config));
    case EngineKind::kBz:
    case EngineKind::kPkc:
    case EngineKind::kPark:
    case EngineKind::kMpm:
      return std::make_unique<CpuEngine>(kind);
  }
  return std::make_unique<CpuEngine>(EngineKind::kBz);
}

}  // namespace kcore
