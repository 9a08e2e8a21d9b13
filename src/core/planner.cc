#include "core/planner.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/wr_optimizer.h"
#include "kernels/registry.h"
#include "mcudnn/mcudnn.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& replans_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.planner.replans");
  return c;
}

}  // namespace

DeviceBuffer::DeviceBuffer(std::shared_ptr<device::Device> dev,
                           std::size_t bytes, const std::string& tag)
    : dev_(std::move(dev)), bytes_(bytes) {
  if (bytes_ > 0) ptr_ = dev_->allocate(bytes_, tag);
}

DeviceBuffer::~DeviceBuffer() {
  if (dev_ && ptr_ != nullptr) dev_->deallocate(ptr_);
}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : dev_(std::move(other.dev_)),
      ptr_(std::exchange(other.ptr_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    if (dev_ && ptr_ != nullptr) dev_->deallocate(ptr_);
    dev_ = std::move(other.dev_);
    ptr_ = std::exchange(other.ptr_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

std::shared_ptr<const ExecutionPlan> PlanCache::lookup(const std::string& key) {
  std::shared_ptr<const ExecutionPlan> found;
  {
    MutexLock lock(mutex_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) found = it->second;
  }
  if (found == nullptr) {
    misses_.add();
    return nullptr;
  }
  hits_.add();
  return found;
}

void PlanCache::insert(const std::string& key,
                       std::shared_ptr<const ExecutionPlan> plan) {
  MutexLock lock(mutex_);
  plans_[key] = std::move(plan);
}

void PlanCache::bump_epoch() {
  {
    // Entries under the old epoch are unreachable anyway (the epoch is part
    // of every key); dropping them just releases the memory eagerly. The
    // clear happens before the epoch store so a concurrent lookup under the
    // new epoch can never fetch a stale plan.
    MutexLock lock(mutex_);
    plans_.clear();
  }
  epoch_.add(1, std::memory_order_release);
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return plans_.size();
}

Planner::Planner(mcudnn::Handle& handle, Options& options,
                 std::vector<mcudnn::Handle> bench_handles,
                 std::shared_ptr<BenchmarkCache> cache,
                 DegradationCounters& stats)
    : handle_(handle),
      options_(options),
      stats_(stats),
      benchmarker_(std::move(bench_handles), std::move(cache)) {}

std::string Planner::wr_key(ConvKernelType type,
                            const kernels::ConvProblem& problem,
                            std::size_t limit) const {
  std::ostringstream os;
  os << to_string(type) << "|" << std::hex << problem.hash() << "|" << limit
     << "|" << to_string(options_.batch_size_policy);
  return os.str();
}

std::string Planner::plan_key(ConvKernelType type,
                              const kernels::ConvProblem& problem,
                              std::size_t limit) const {
  // WR plans are keyed by the full WR identity (type x problem x limit x
  // batch-size policy) plus the device, the blacklist epoch, and the
  // workspace-sharing mode; WD plans by the arena identity instead of the
  // per-kernel limit. Changing any component makes old plans unreachable.
  std::ostringstream os;
  const bool wd = options_.workspace_policy == WorkspacePolicy::kWD &&
                  !wd_degraded_to_wr_;
  if (wd) {
    os << "WD|" << to_string(type) << "|" << std::hex << problem.hash()
       << std::dec << "|" << options_.total_workspace_size << "|"
       << to_string(options_.batch_size_policy);
  } else {
    os << "WR|" << wr_key(type, problem, limit) << "|"
       << (options_.share_wr_workspace ? "shared" : "perKernel");
  }
  os << "|" << handle_.device().spec().name << "|e" << plan_cache_.epoch();
  return os.str();
}

void Planner::record_limit(ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           std::size_t limit) {
  request_limits_[wr_key(type, problem, 0)] = limit;
}

std::size_t Planner::effective_limit(ConvKernelType type,
                                     const kernels::ConvProblem& problem) const {
  if (options_.workspace_limit) return *options_.workspace_limit;
  const auto it = request_limits_.find(wr_key(type, problem, 0));
  if (it != request_limits_.end()) return it->second;
  return kDefaultPerKernelLimit;
}

Planner::WrEntry& Planner::wr_entry(ConvKernelType type,
                                    const kernels::ConvProblem& problem,
                                    const std::vector<KernelRequest>& requests) {
  const std::size_t limit = effective_limit(type, problem);
  const std::string key = wr_key(type, problem, limit);
  auto it = wr_entries_.find(key);
  if (it != wr_entries_.end()) return it->second;

  const MicroBenchmark bench =
      benchmarker_.run(type, problem, options_.batch_size_policy);
  const telemetry::ScopedSpan span("wr_dp", [&] { return key; });
  Timer timer;
  Configuration config = optimize_wr(bench, problem.batch(), limit);
  total_optimize_ms_.add(timer.elapsed_ms());
  bool degraded = false;
  UCUDNN_LOG_INFO << "WR " << to_string(type) << " " << problem.to_string()
                  << " limit=" << limit << " -> " << config.to_string(type)
                  << " time=" << config.time_ms
                  << "ms ws=" << config.workspace;

  // Tag workspace memory with the layer label when we know it.
  std::string tag = "workspace";
  for (const auto& request : requests) {
    if (request.matches(type, problem)) {
      tag = request.label + ":ws";
      break;
    }
  }
  DeviceBuffer ws;
  for (;;) {
    try {
      if (options_.share_wr_workspace) {
        // Sequential execution: one shared buffer, grown to the largest need.
        if (config.workspace > shared_ws_.size()) {
          shared_ws_ = DeviceBuffer(handle_.device_ptr(), config.workspace,
                                    "shared:ws");
        }
      } else {
        ws = DeviceBuffer(handle_.device_ptr(), config.workspace, tag);
      }
      break;
    } catch (const Error& e) {
      if (e.status() != Status::kAllocFailed || options_.fail_fast ||
          config.workspace == 0) {
        throw;
      }
      // Graceful degradation (§I: a resource shortfall must not abort the
      // run): re-optimize under a geometrically halved limit. Terminates
      // because the front always contains the zero-workspace configuration.
      const std::size_t degraded_limit = config.workspace / 2;
      degraded = true;
      stats_.degraded_allocations.add();
      UCUDNN_LOG_WARN << "workspace allocation of " << config.workspace
                      << " bytes failed for " << tag << " (" << e.what()
                      << "); re-optimizing with limit " << degraded_limit;
      Timer degrade_timer;
      config = optimize_wr(bench, problem.batch(), degraded_limit);
      total_optimize_ms_.add(degrade_timer.elapsed_ms());
    }
  }
  auto [inserted, ok] = wr_entries_.emplace(
      key, WrEntry{std::move(config), std::move(ws),
                   degraded ? "wr_dp(degraded)" : "wr_dp"});
  (void)ok;
  return inserted->second;
}

void Planner::finalize_wd(const std::vector<KernelRequest>& requests) {
  if (wd_finalized() || wd_degraded_to_wr_) return;
  check(options_.workspace_policy == WorkspacePolicy::kWD,
        Status::kBadParam, "finalize_wd requires UCUDNN_WORKSPACE_POLICY=wd");
  // The span keeps its catalog name. It times the whole WD solve: the
  // recorded kernels' Pareto fronts, the MCKP DP and the arena allocation.
  const telemetry::ScopedSpan span("wd_ilp", [&] {
    return std::to_string(requests.size()) + " kernels";
  });
  Timer timer;
  WdPlan plan;
  std::size_t limit = options_.total_workspace_size;
  for (;;) {
    try {
      plan = optimize_wd(benchmarker_, requests, limit,
                         options_.batch_size_policy);
    } catch (const Error& e) {
      total_optimize_ms_.add(timer.elapsed_ms());
      if (e.status() != Status::kNotSupported || options_.fail_fast) throw;
      // No feasible division at all: degrade to per-kernel WR, which plans
      // each kernel independently (and can itself degrade further).
      stats_.solver_fallbacks.add();
      wd_degraded_to_wr_ = true;
      UCUDNN_LOG_WARN << "WD plan infeasible (" << e.what()
                      << "); degrading to per-kernel WR";
      return;
    }
    try {
      wd_arena_ = DeviceBuffer(handle_.device_ptr(), plan.total_workspace,
                               "wd_arena");
      break;
    } catch (const Error& e) {
      if (e.status() != Status::kAllocFailed || options_.fail_fast ||
          plan.total_workspace == 0) {
        throw;
      }
      // The optimizer's limit was infeasible on the actual device: halve
      // what the plan really used and re-solve, down to the zero-workspace
      // division.
      stats_.degraded_allocations.add();
      limit = plan.total_workspace / 2;
      UCUDNN_LOG_WARN << "WD arena allocation of " << plan.total_workspace
                      << " bytes failed (" << e.what()
                      << "); re-optimizing with total limit " << limit;
    }
  }
  total_optimize_ms_.add(timer.elapsed_ms());
  UCUDNN_LOG_INFO << "WD finalized: " << requests.size() << " kernels, "
                  << plan.num_variables << " ILP variables, arena "
                  << plan.total_workspace << " bytes, solve "
                  << plan.solve_ms << " ms";
  wd_plan_ = std::move(plan);
}

const WdAssignment* Planner::wd_assignment(
    ConvKernelType type, const kernels::ConvProblem& problem,
    const std::vector<KernelRequest>& requests) const {
  if (!wd_plan_) return nullptr;
  // Kernels recorded after finalization (the unrecorded-fallback path) make
  // `requests` longer than the frozen assignment list — they have no slot.
  const std::size_t n =
      std::min(requests.size(), wd_plan_->assignments.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (requests[i].matches(type, problem)) {
      return &wd_plan_->assignments[i];
    }
  }
  return nullptr;
}

const Configuration* Planner::configuration_for(
    ConvKernelType type, const kernels::ConvProblem& problem,
    const std::vector<KernelRequest>& requests) const {
  if (options_.workspace_policy == WorkspacePolicy::kWD &&
      !wd_degraded_to_wr_) {
    const WdAssignment* assignment = wd_assignment(type, problem, requests);
    return assignment ? &assignment->config : nullptr;
  }
  const std::size_t limit = effective_limit(type, problem);
  const auto it = wr_entries_.find(wr_key(type, problem, limit));
  return it != wr_entries_.end() ? &it->second.config : nullptr;
}

std::string Planner::provenance_for(
    ConvKernelType type, const kernels::ConvProblem& problem,
    const std::vector<KernelRequest>& requests) const {
  std::string prefix;
  if (options_.workspace_policy == WorkspacePolicy::kWD) {
    if (!wd_degraded_to_wr_ && wd_assignment(type, problem, requests)) {
      return "wd_mckp_dp";
    }
    // WD was requested but this kernel runs WR: either the whole plan was
    // infeasible or the kernel was not recorded before finalization.
    prefix = wd_degraded_to_wr_ ? "wd_infeasible->" : "wd_unrecorded->";
  }
  const auto it =
      wr_entries_.find(wr_key(type, problem, effective_limit(type, problem)));
  const std::string wr = it != wr_entries_.end() &&
                                 !it->second.provenance.empty()
                             ? it->second.provenance
                             : std::string("wr_dp");
  return prefix + wr;
}

void Planner::apply_pending_invalidations(
    const std::vector<KernelRequest>& requests) {
  if (pending_invalidations_.empty()) return;
  for (const auto& [type, algo] : pending_invalidations_) {
    const std::string prefix = std::string(to_string(type)) + "|";
    for (auto it = wr_entries_.begin(); it != wr_entries_.end();) {
      const bool uses =
          it->first.compare(0, prefix.size(), prefix) == 0 &&
          std::any_of(it->second.config.micro.begin(),
                      it->second.config.micro.end(),
                      [&](const MicroConfig& m) { return m.algo == algo; });
      it = uses ? wr_entries_.erase(it) : std::next(it);
    }
    if (wd_plan_) {
      const std::size_t n =
          std::min(requests.size(), wd_plan_->assignments.size());
      for (std::size_t i = 0; i < n; ++i) {
        const auto& micro = wd_plan_->assignments[i].config.micro;
        if (requests[i].type == type &&
            std::any_of(micro.begin(), micro.end(),
                        [&](const MicroConfig& m) { return m.algo == algo; })) {
          // The whole arena layout depends on every assignment; re-plan from
          // scratch at the next finalize (the blacklist filter makes the new
          // plan avoid the algorithm).
          wd_plan_.reset();
          wd_arena_ = DeviceBuffer();
          break;
        }
      }
    }
  }
  pending_invalidations_.clear();
}

void Planner::note_wd_fallback(ConvKernelType type,
                               const kernels::ConvProblem& problem) {
  stats_.wd_unrecorded_fallbacks.add();
  const auto [it, first] =
      wd_fallbacks_.try_emplace(wr_key(type, problem, 0), 0);
  ++it->second;
  if (first) {
    UCUDNN_LOG_WARN << "WD: unrecorded kernel " << problem.to_string()
                    << ", falling back to WR (further occurrences counted "
                       "silently; see degradation stats)";
  }
}

PlannedConvolution Planner::resolve(std::shared_ptr<const ExecutionPlan> plan,
                                    std::size_t limit) {
  PlannedConvolution planned;
  switch (plan->binding.kind) {
    case WorkspaceKind::kNone:
      break;
    case WorkspaceKind::kPerKernel: {
      const auto it =
          wr_entries_.find(wr_key(plan->type, plan->problem, limit));
      // Epoch bumps always precede WR-entry erasure, so a cached plan can
      // only be fetched while its entry is still alive.
      check(it != wr_entries_.end(), Status::kInternalError,
            "cached plan without a live WR entry");
      planned.workspace = it->second.workspace.data();
      planned.workspace_bytes = it->second.workspace.size();
      break;
    }
    case WorkspaceKind::kSharedWr:
      // The shared buffer only grows; resolve against its live extent.
      planned.workspace = shared_ws_.data();
      planned.workspace_bytes = shared_ws_.size();
      break;
    case WorkspaceKind::kWdArena: {
      char* arena = static_cast<char*>(wd_arena_.data());
      planned.workspace =
          arena == nullptr ? nullptr : arena + plan->binding.offset;
      planned.workspace_bytes = plan->binding.bytes;
      break;
    }
  }
  planned.plan = std::move(plan);
  return planned;
}

PlannedConvolution Planner::plan(ConvKernelType type,
                                 const kernels::ConvProblem& problem,
                                 const std::vector<KernelRequest>& requests) {
  if (options_.workspace_policy == WorkspacePolicy::kWD &&
      !wd_degraded_to_wr_) {
    if (!wd_finalized()) finalize_wd(requests);
    if (!wd_degraded_to_wr_) {
      if (const WdAssignment* assignment =
              wd_assignment(type, problem, requests)) {
        const std::string key = plan_key(type, problem, 0);
        if (auto cached = plan_cache_.lookup(key)) {
          return resolve(std::move(cached), 0);
        }
        std::shared_ptr<const ExecutionPlan> built;
        {
          const telemetry::ScopedSpan span("plan_build",
                                           [&] { return key; });
          built = std::make_shared<const ExecutionPlan>(build_plan(
              type, problem, assignment->config,
              WorkspaceBinding{WorkspaceKind::kWdArena, assignment->offset,
                               assignment->config.workspace}));
        }
        plan_cache_.insert(key, built);
        return resolve(std::move(built), 0);
      }
      if (wd_finalized()) note_wd_fallback(type, problem);
    }
  }

  const std::size_t limit = effective_limit(type, problem);
  const std::string key = plan_key(type, problem, limit);
  if (auto cached = plan_cache_.lookup(key)) {
    return resolve(std::move(cached), limit);
  }
  WrEntry& entry = wr_entry(type, problem, requests);
  const WorkspaceBinding binding =
      options_.share_wr_workspace
          ? WorkspaceBinding{WorkspaceKind::kSharedWr, 0, shared_ws_.size()}
          : WorkspaceBinding{WorkspaceKind::kPerKernel, 0,
                             entry.workspace.size()};
  std::shared_ptr<const ExecutionPlan> built;
  {
    const telemetry::ScopedSpan span("plan_build", [&] { return key; });
    built = std::make_shared<const ExecutionPlan>(
        build_plan(type, problem, entry.config, binding));
  }
  plan_cache_.insert(key, built);
  return resolve(std::move(built), limit);
}

std::vector<PlanSegment> Planner::replan_tail(
    ConvKernelType type, const kernels::ConvProblem& problem, int algo,
    std::int64_t done, std::size_t ws_bytes, int replans) {
  const telemetry::ScopedSpan span("replan", [&] {
    return problem.to_string() + " algo=" + std::to_string(algo);
  });
  replans_metric().add(1);
  const std::string& device_name = handle_.device().spec().name;
  benchmarker_.cache()->blacklist(device_name, type, algo);
  stats_.blacklisted_algorithms.add();
  // Cached WR/WD plans referencing the algorithm are stale now, but their
  // workspace is live in the current call chain — the epoch bump makes them
  // unreachable immediately; the buffers themselves are reclaimed at the
  // next plan() entry via apply_pending_invalidations().
  plan_cache_.bump_epoch();
  pending_invalidations_.emplace_back(type, algo);
  // Each re-plan retires one algorithm, so the algorithm count bounds the
  // recursion; past that the failure is systemic, not algorithmic.
  check(replans <= kernels::algo_count(type), Status::kExecutionFailed,
        "kernel keeps failing after blacklisting " +
            std::to_string(replans - 1) + " algorithms for " +
            problem.to_string());
  UCUDNN_LOG_WARN << "blacklisting " << kernels::algo_name(type, algo)
                  << " on " << device_name << " after repeated failures; "
                  << "re-planning the remaining "
                  << (problem.batch() - done) << " samples";
  // Re-plan only the unexecuted tail: outputs already written (and, for
  // BackwardFilter, partial accumulations) stay untouched. The existing
  // workspace bounds the new plan, so no reallocation is needed.
  const kernels::ConvProblem rest = problem.with_batch(problem.batch() - done);
  Timer bench_timer;
  const MicroBenchmark bench =
      benchmarker_.run(type, rest, options_.batch_size_policy);
  total_replan_benchmark_ms_.add(bench_timer.elapsed_ms());
  const telemetry::ScopedSpan wr_span("wr_dp");
  Timer timer;
  const Configuration replacement = optimize_wr(bench, rest.batch(), ws_bytes);
  total_optimize_ms_.add(timer.elapsed_ms());
  return build_tail_segments(type, problem, replacement, done);
}

}  // namespace ucudnn::core
