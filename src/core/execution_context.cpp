#include "core/execution_context.hpp"

#include "util/log.hpp"

namespace mako {

ExecutionContext::ExecutionContext(ExecutionContextOptions options)
    : backend_(&GemmBackendRegistry::instance().resolve(options.backend)),
      precision_(options.precision),
      enable_quantization_(options.enable_quantization),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::global()),
      plans_(options.plans != nullptr ? options.plans
                                      : &EriPlanCache::process()),
      cancel_(options.cancel != nullptr ? options.cancel
                                        : &CancelToken::process()),
      faults_(&FaultInjector::instance()),
      metrics_(&obs::MetricsRegistry::global()),
      tracer_(&obs::Tracer::instance()),
      components_(std::make_shared<ComponentCache>()),
      comm_(make_communicator(
          CommSpec{options.ranks, std::move(options.cluster), {}})) {
  if (options.make_active) {
    GemmBackendRegistry::instance().set_active(*backend_);
  }
  if (enable_quantization_ && !backend_->capabilities().quantized) {
    log_info(
        "ExecutionContext: backend '%s' has no reduced-precision datapath; "
        "quantized work will run at FP64",
        backend_->name().c_str());
  }
}

ExecutionContext::ExecutionContext(const ExecutionContext& parent,
                                   CancelToken& cancel)
    : backend_(parent.backend_),
      precision_(parent.precision_),
      enable_quantization_(parent.enable_quantization_),
      pool_(parent.pool_),
      plans_(parent.plans_),
      cancel_(&cancel),
      faults_(parent.faults_),
      metrics_(parent.metrics_),
      tracer_(parent.tracer_),
      components_(parent.components_),
      comm_(parent.comm_) {}

const ExecutionContext& ExecutionContext::process() {
  // Leaky singleton; make_active=false so a bare run_scf never steals the
  // active-backend slot from an engine-owned context in the same process.
  static ExecutionContext* ctx = [] {
    ExecutionContextOptions options;
    options.make_active = false;
    return new ExecutionContext(std::move(options));
  }();
  return *ctx;
}

SimComm ExecutionContext::make_comm(int size, ClusterModel cluster,
                                    CommRetryPolicy retry) const {
  return SimComm(size, cluster, retry);
}

}  // namespace mako
