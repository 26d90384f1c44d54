#include "core/execution_context.hpp"

namespace mako {

ExecutionContext::ExecutionContext(ExecutionContextOptions options)
    : pool_(options.pool != nullptr ? options.pool : &ThreadPool::global()),
      plans_(options.plans != nullptr ? options.plans
                                      : &EriPlanCache::process()),
      cancel_(options.cancel != nullptr ? options.cancel
                                        : &CancelToken::process()),
      faults_(&FaultInjector::instance()),
      metrics_(&obs::MetricsRegistry::global()),
      tracer_(&obs::Tracer::instance()),
      components_(std::make_shared<ComponentCache>()),
      comm_(make_communicator(
          CommSpec{options.ranks, std::move(options.cluster), {}})) {}

ExecutionContext::ExecutionContext(const ExecutionContext& parent,
                                   CancelToken& cancel)
    : pool_(parent.pool_),
      plans_(parent.plans_),
      cancel_(&cancel),
      faults_(parent.faults_),
      metrics_(parent.metrics_),
      tracer_(parent.tracer_),
      components_(parent.components_),
      comm_(parent.comm_) {}

const ExecutionContext& ExecutionContext::process() {
  static ExecutionContext* ctx = new ExecutionContext();  // leaky singleton
  return *ctx;
}

SimComm ExecutionContext::make_comm(int size, ClusterModel cluster,
                                    CommRetryPolicy retry) const {
  return SimComm(size, cluster, retry);
}

}  // namespace mako
