// Executor — phase two of the pipeline: run an ExecutionPlan.
//
// The executor walks a plan's segments, slicing operands by the precomputed
// offsets and applying the BackwardFilter beta-accumulation flag. All policy
// it needs at runtime is either baked into the plan or injected: when an
// algorithm keeps failing past the retry budget, the ReplanFn callback (wired
// by the facade to Planner::replan_tail) supplies splice-ready replacement
// segments for the unexecuted tail.
//
// Layering contract (tools/check_layering.py): the executor depends on the
// plan IR only — it must not include the planner.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/options.h"
#include "core/plan.h"
#include "core/types.h"
#include "mcudnn/mcudnn.h"

namespace ucudnn::core {

/// Re-plans the not-yet-executed tail after `algo` failed past the retry
/// budget: `done` samples are complete, `replans` is the per-execution
/// ordinal (1-based). Returns segments covering the remaining batch, with
/// offsets continuing from `done`. Throws when the failure is systemic.
using ReplanFn = std::function<std::vector<PlanSegment>(
    int algo, std::int64_t done, int replans)>;

/// Per-segment measurement sink (execution reports): `index` is the position
/// in the — possibly re-planned — segment list, `segment` the schedule entry
/// that ran, `measured_ms` the cost of the completed execution (including
/// retries). On a simulated device that is the device-clock delta, so
/// virtual-mode measurements agree with the analytic model the planner's
/// estimates come from; on a measured device it is wall clock.
using MeasureFn = std::function<void(std::size_t index,
                                     const PlanSegment& segment,
                                     double measured_ms)>;

class Executor {
 public:
  /// `stats` is the facade-owned degradation ledger, shared with the Planner.
  Executor(mcudnn::Handle& handle, const Options& options,
           DegradationCounters& stats);

  /// Executes every segment of `plan` against the bound workspace. A failed
  /// mcudnn::convolution throws before touching any operand byte, so
  /// retrying (or splicing replacement segments for the remaining
  /// micro-batches) cannot change the values already produced. `measure`
  /// (optional) receives every completed segment's measured time.
  void run(const ExecutionPlan& plan, float alpha, const float* a,
           const float* b, float beta, float* out, void* ws,
           std::size_t ws_bytes, const ReplanFn& replan,
           const MeasureFn& measure = {});

 private:
  mcudnn::Handle& handle_;
  const Options& options_;
  DegradationCounters& stats_;
};

}  // namespace ucudnn::core
