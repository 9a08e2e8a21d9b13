#include "core/wd_optimizer.h"

#include "common/mathutil.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/wr_optimizer.h"

namespace ucudnn::core {

WdKnapsack build_wd_knapsack(Benchmarker& benchmarker,
                             const std::vector<KernelRequest>& requests,
                             std::size_t total_limit, BatchSizePolicy policy) {
  WdKnapsack knapsack;
  knapsack.fronts.reserve(requests.size());
  knapsack.mckp.capacity = static_cast<std::int64_t>(total_limit);
  knapsack.mckp.groups.reserve(requests.size());
  for (const auto& request : requests) {
    // Identical kernels share benchmark results via the cache, e.g. ResNet's
    // replicated layers.
    auto front = desirable_configurations(
        benchmarker.run(request.type, request.problem, policy),
        request.problem.batch(), total_limit);
    check(!front.empty(), Status::kNotSupported,
          "no feasible configuration for kernel " + request.label);
    std::vector<ilp::MckpItem> group;
    group.reserve(front.size());
    for (const auto& config : front) {
      group.push_back(ilp::MckpItem{
          config.time_ms,
          static_cast<std::int64_t>(round_up(config.workspace, kWdAlignment))});
    }
    knapsack.mckp.groups.push_back(std::move(group));
    knapsack.fronts.push_back(std::move(front));
  }
  return knapsack;
}

WdPlan optimize_wd(Benchmarker& benchmarker,
                   const std::vector<KernelRequest>& requests,
                   std::size_t total_limit, BatchSizePolicy policy) {
  const WdKnapsack knapsack =
      build_wd_knapsack(benchmarker, requests, total_limit, policy);
  WdPlan plan;
  for (const auto& front : knapsack.fronts) plan.num_variables += front.size();

  Timer timer;
  const ilp::MckpResult result = ilp::solve_mckp(knapsack.mckp);
  plan.solve_ms = timer.elapsed_ms();
  check(result.feasible, Status::kNotSupported,
        "WD ILP infeasible for total workspace limit " +
            std::to_string(total_limit));

  // Lay out arena segments in request order.
  std::size_t cursor = 0;
  plan.assignments.reserve(requests.size());
  for (std::size_t g = 0; g < knapsack.fronts.size(); ++g) {
    WdAssignment assignment;
    assignment.config =
        knapsack.fronts[g][static_cast<std::size_t>(result.selection[g])];
    assignment.offset = cursor;
    cursor += round_up(assignment.config.workspace, kWdAlignment);
    plan.total_time_ms += assignment.config.time_ms;
    plan.assignments.push_back(std::move(assignment));
  }
  plan.total_workspace = cursor;
  check(plan.total_workspace <= total_limit, Status::kInternalError,
        "WD arena layout exceeds the limit");
  return plan;
}

}  // namespace ucudnn::core
