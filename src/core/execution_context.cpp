#include "core/execution_context.hpp"

namespace mako {

ExecutionContext::ExecutionContext(ExecutionContextOptions options)
    : own_pool_(options.pool != nullptr
                    ? nullptr
                    : std::make_unique<ThreadPool>(default_pool_workers())),
      own_plans_(options.plans != nullptr ? nullptr
                                          : std::make_unique<EriPlanCache>()),
      pool_(options.pool != nullptr ? options.pool : own_pool_.get()),
      plans_(options.plans != nullptr ? options.plans : own_plans_.get()),
      cancel_(options.cancel != nullptr ? options.cancel
                                        : &CancelToken::process()),
      components_(std::make_shared<ComponentCache>()),
      comm_(std::make_shared<Communicator>(options.ranks)) {}

ExecutionContext::ExecutionContext(const ExecutionContext& parent,
                                   CancelToken& cancel)
    : pool_(parent.pool_),
      plans_(parent.plans_),
      cancel_(&cancel),
      components_(parent.components_),
      comm_(parent.comm_) {}

}  // namespace mako
