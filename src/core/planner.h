// Planner — phase one of the paper's two-phase pipeline: turn a convolution
// problem into a ready-to-execute ExecutionPlan.
//
// The Planner owns everything decision-shaped that used to live inline in
// UcudnnHandle: WR optimization (per-kernel DP, §III-B), WD optimization
// (Pareto fronts + ILP over the recorded kernel set, §III-C/E), the whole
// graceful-degradation ladder (workspace-limit halving on OOM, WD->WR),
// the workspace buffers the plans bind to, and a keyed PlanCache so
// steady-state convolution() calls fetch a finished plan instead of
// re-deriving strides and walking the WR entry table.
//
// Layering contract (tools/check_layering.py): the planner may include the
// plan IR but never the executor; execution-time policy reaches back into
// the planner only through the callback the facade wires up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/benchmarker.h"
#include "core/options.h"
#include "core/plan.h"
#include "core/types.h"
#include "core/wd_optimizer.h"
#include "telemetry/metrics.h"

namespace ucudnn::core {

/// Default per-kernel workspace limit when neither the framework nor
/// UCUDNN_WORKSPACE_LIMIT provides one (Caffe's 8 MiB default).
inline constexpr std::size_t kDefaultPerKernelLimit = std::size_t{8} << 20;

/// RAII buffer of tracked device memory.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::shared_ptr<device::Device> dev, std::size_t bytes,
               const std::string& tag);
  ~DeviceBuffer();
  DeviceBuffer(DeviceBuffer&& other) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return bytes_; }

 private:
  std::shared_ptr<device::Device> dev_;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Cache of finished ExecutionPlans, keyed by
/// kernel-type x problem x workspace-limit x device x blacklist-epoch (the
/// key string is assembled by the Planner). Blacklisting an algorithm bumps
/// the epoch, which both drops every stored plan and changes the key of all
/// future lookups, so a stale schedule can never be fetched again — while
/// shared_ptr ownership keeps the plan a mid-flight execution still holds
/// alive until it finishes.
class PlanCache {
 public:
  /// Returns the cached plan or nullptr; counts a hit or a miss.
  /// Thread-safe: worker handles of the serving layer (ROADMAP item 1)
  /// share one PlanCache across threads.
  std::shared_ptr<const ExecutionPlan> lookup(const std::string& key);
  void insert(const std::string& key,
              std::shared_ptr<const ExecutionPlan> plan);

  /// Invalidates every cached plan and starts a new blacklist epoch.
  void bump_epoch();
  std::uint64_t epoch() const noexcept {
    return static_cast<std::uint64_t>(
        epoch_.value(std::memory_order_acquire));
  }

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  std::size_t size() const;

 private:
  mutable Mutex mutex_{"PlanCache"};
  std::map<std::string, std::shared_ptr<const ExecutionPlan>> plans_
      GUARDED_BY(mutex_);
  // Atomic cells, not guarded counters: epoch() is read on every plan-key
  // build and hits()/misses() feed execution reports — thin reads must not
  // take the map's lock. bump_epoch orders the clear before the epoch
  // publish. The registry sums each cell across caches (the epoch as the
  // total number of bumps).
  telemetry::OwnedGauge epoch_{"ucudnn.plan_cache.epoch"};
  telemetry::OwnedCounter hits_{"ucudnn.plan_cache.hits"};
  telemetry::OwnedCounter misses_{"ucudnn.plan_cache.misses"};
};

/// A plan plus its workspace binding resolved to the live buffer. The
/// pointer is only valid for the duration of the convolution call it was
/// fetched for (buffers may be reallocated by later degradation events).
struct PlannedConvolution {
  std::shared_ptr<const ExecutionPlan> plan;
  void* workspace = nullptr;
  std::size_t workspace_bytes = 0;
};

class Planner {
 public:
  /// `handle` and `options` are the facade's; `stats` is the facade-owned
  /// degradation ledger, shared with the Executor. The Benchmarker is built
  /// in place from `bench_handles` and `cache`.
  Planner(mcudnn::Handle& handle, Options& options,
          std::vector<mcudnn::Handle> bench_handles,
          std::shared_ptr<BenchmarkCache> cache, DegradationCounters& stats);

  /// Remembers the framework-provided workspace limit for a kernel
  /// (GetConvolution*Algorithm recording, done by the facade).
  void record_limit(ConvKernelType type, const kernels::ConvProblem& problem,
                    std::size_t limit);

  /// Returns a ready-to-run plan for the full mini-batch — from the
  /// PlanCache in steady state, otherwise by running WR/WD optimization
  /// (with the full degradation ladder) and lowering the result.
  /// `requests` is the facade's recorded kernel list (WD needs it).
  PlannedConvolution plan(ConvKernelType type,
                          const kernels::ConvProblem& problem,
                          const std::vector<KernelRequest>& requests);

  /// Retry-budget exhaustion policy, called back from the Executor via the
  /// facade: blacklists `algo` on this device, bumps the PlanCache epoch,
  /// queues the stale WR/WD state for deferred invalidation, re-benchmarks
  /// the unexecuted tail (counted in total_replan_benchmark_ms), re-runs the
  /// WR DP within the workspace already held, and returns splice-ready
  /// segments. `replans` is the per-execution re-plan ordinal; past the
  /// algorithm count the failure is systemic and kExecutionFailed is thrown.
  std::vector<PlanSegment> replan_tail(ConvKernelType type,
                                       const kernels::ConvProblem& problem,
                                       int algo, std::int64_t done,
                                       std::size_t ws_bytes, int replans);

  /// Drops WR entries / WD plans that reference blacklisted algorithms.
  /// Deferred to the next plan() entry (the facade calls this first) because
  /// the invalidating event happens mid-execution, while the stale plan's
  /// workspace pointer is still in use. `requests` pairs positionally with
  /// the frozen WD assignment list.
  void apply_pending_invalidations(const std::vector<KernelRequest>& requests);

  // --- WD control (§III-E) ---------------------------------------------

  /// Freezes `requests` and runs WD optimization now. Degrades per the
  /// ladder: arena OOM re-solves with a halved limit; an infeasible plan
  /// falls back to per-kernel WR.
  void finalize_wd(const std::vector<KernelRequest>& requests);
  bool wd_finalized() const noexcept { return wd_plan_.has_value(); }
  const WdPlan* wd_plan() const noexcept {
    return wd_plan_ ? &*wd_plan_ : nullptr;
  }
  bool wd_degraded_to_wr() const noexcept { return wd_degraded_to_wr_; }

  // --- introspection ----------------------------------------------------

  /// The configuration that will run / ran for this kernel (null before
  /// optimization).
  const Configuration* configuration_for(
      ConvKernelType type, const kernels::ConvProblem& problem,
      const std::vector<KernelRequest>& requests) const;

  /// Which optimizer produced the kernel's current division — "wr_dp" or
  /// "wd_mckp_dp", with degradation prefixes/suffixes such as
  /// "wd_infeasible->wr_dp" or "wr_dp(degraded)" (workspace OOM halving).
  /// Feeds execution reports.
  std::string provenance_for(ConvKernelType type,
                             const kernels::ConvProblem& problem,
                             const std::vector<KernelRequest>& requests) const;

  /// The per-kernel workspace limit the WR DP runs under: the
  /// UCUDNN_WORKSPACE_LIMIT override, else the framework-recorded limit,
  /// else the 8 MiB default.
  std::size_t effective_limit(ConvKernelType type,
                              const kernels::ConvProblem& problem) const;

  Benchmarker& benchmarker() noexcept { return benchmarker_; }
  const Benchmarker& benchmarker() const noexcept { return benchmarker_; }
  PlanCache& plan_cache() noexcept { return plan_cache_; }
  const PlanCache& plan_cache() const noexcept { return plan_cache_; }

  /// Wall time spent in DP/ILP optimization (excludes benchmarking).
  /// Atomic thin read of the cell the registry reports (summed across
  /// planners) as ucudnn.planner.optimize_ms.
  double total_optimize_ms() const noexcept {
    return total_optimize_ms_.value();
  }
  /// Wall time spent re-benchmarking inside tail re-plans. Kept separate
  /// from Benchmarker::total_benchmark_ms (which only counts cache misses)
  /// so the §IV-B1 overhead accounting cannot under-report the replan path.
  /// Reported process-wide as ucudnn.planner.replan_benchmark_ms.
  double total_replan_benchmark_ms() const noexcept {
    return total_replan_benchmark_ms_.value();
  }

 private:
  struct WrEntry {
    Configuration config;
    DeviceBuffer workspace;
    std::string provenance;  // "wr_dp", or "wr_dp(degraded)" after OOM halving
  };

  std::string wr_key(ConvKernelType type, const kernels::ConvProblem& problem,
                     std::size_t limit) const;
  std::string plan_key(ConvKernelType type,
                       const kernels::ConvProblem& problem,
                       std::size_t limit) const;
  WrEntry& wr_entry(ConvKernelType type, const kernels::ConvProblem& problem,
                    const std::vector<KernelRequest>& requests);
  const WdAssignment* wd_assignment(
      ConvKernelType type, const kernels::ConvProblem& problem,
      const std::vector<KernelRequest>& requests) const;
  PlannedConvolution resolve(std::shared_ptr<const ExecutionPlan> plan,
                             std::size_t limit);
  void note_wd_fallback(ConvKernelType type,
                        const kernels::ConvProblem& problem);

  mcudnn::Handle& handle_;
  Options& options_;
  DegradationCounters& stats_;
  Benchmarker benchmarker_;
  std::map<std::string, std::size_t> request_limits_;  // wr_key(limit=0) -> limit
  std::map<std::string, WrEntry> wr_entries_;
  DeviceBuffer shared_ws_;  // used when options_.share_wr_workspace
  std::optional<WdPlan> wd_plan_;
  DeviceBuffer wd_arena_;
  bool wd_degraded_to_wr_ = false;  // infeasible WD plan -> per-kernel WR
  PlanCache plan_cache_;
  std::vector<std::pair<ConvKernelType, int>> pending_invalidations_;
  // Warn-once ledger for WD "unrecorded kernel" fallbacks: first occurrence
  // per kernel logs, repeats only count (stats_.wd_unrecorded_fallbacks).
  std::map<std::string, std::uint64_t> wd_fallbacks_;
  // Atomic: a handle shared across threads must not lose timing updates
  // (the old plain doubles raced).
  telemetry::OwnedDoubleCounter total_optimize_ms_{
      "ucudnn.planner.optimize_ms"};
  telemetry::OwnedDoubleCounter total_replan_benchmark_ms_{
      "ucudnn.planner.replan_benchmark_ms"};
};

}  // namespace ucudnn::core
