// Shared pieces of the perfbench workloads: command-line arguments, span
// recording and its per-layer self time, process resource probes,
// statistics, reference comparison, plan fingerprints and the one-line JSON
// result printed last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "frameworks/caffepp/net.h"

namespace perfbench {

class Result;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string plans_dir;  // committed reference benchmark caches
  std::string work_dir;   // scratch space inside the checkout
};

// ---- tracing ---------------------------------------------------------------
//
// Spans go to the program's own telemetry::TraceRecorder, which keeps them in
// memory. The benchmark's files open telemetry::ScopedSpan ("perfbench.*")
// around their calls into each layer; the program's own spans (net.forward,
// segment_exec, find_algorithms, serve_*) nest under them.

/// Starts or stops recording. Untraced phases keep it off.
void set_tracing(bool on);
/// Self time per layer in ms: each span's duration minus the part its direct
/// children cover, summed over the spans of each layer. Per-request timeline
/// spans (recorded after the fact, overlapping the thread's own spans) are
/// left out.
std::map<std::string, double> self_ms_by_layer();
/// Tracing overhead as a share of the time tracing was on: spans recorded
/// times the measured cost of recording one span, in percent.
double trace_overhead_pct();

// ---- process probes ----------------------------------------------------------

struct CpuTimes {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double total_ms() const noexcept { return user_ms + sys_ms; }
};
CpuTimes cpu_times();
/// Returns freed heap memory to the system and restarts the peak-RSS count
/// from the current resident set, so a later peak_rss_mib() covers only what
/// runs after this call.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss() (or process start).
double peak_rss_mib();
double seconds_since(Clock::time_point t);

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Interference from the rest of the host only ever slows a run: CPU time
/// per op rises with wall time in slow periods. Costs and capacities are
/// read at these quantiles of their per-op or per-window samples, which
/// follow the program's own cost more closely than a median; latencies and
/// iteration times stay medians.
inline constexpr double kCostQuantile = 0.1;      // of CPU time per op
inline constexpr double kCapacityQuantile = 0.9;  // of closed-loop rates

// ---- plans -------------------------------------------------------------------

/// Copies `name` from the plans directory into the work directory, loads the
/// copy into the handle's benchmark cache and deletes it. Throws unless the
/// whole file loaded. Returns the cache's entry count after loading.
std::size_t load_reference_cache(ucudnn::core::UcudnnHandle& handle,
                                 const Args& args, const std::string& name);

/// "<label> <configuration>" for every recorded kernel, in recording order.
std::vector<std::string> plan_lines(ucudnn::core::UcudnnHandle& handle);
std::string fingerprint(const std::vector<std::string>& lines);
/// Share of `live` lines also present in the committed expected plan of
/// `workload` (plans/expected_plans.txt).
double plan_agreement(const Args& args, const std::string& workload,
                      const std::vector<std::string>& live);

// ---- reference comparison ------------------------------------------------------
//
// A micro-batched set-up is checked against an undivided, ample-workspace
// reference handle built from the same weights, at two levels:
//  * net: the forward output of every layer after the first pass. Forward
//    values are continuous in the inputs, so they match closely. Gradients
//    are not compared here: float reassociation flips ReLU and max-pool
//    masks at near-ties, and the flips cascade down the backward pass.
//  * kernel: every recorded conv kernel (forward, backward-data,
//    backward-filter) run once on identical seeded operands through both
//    handles, which checks each micro-batched gradient without the cascade.

/// Tensors keyed by layer name (net level) or kernel label (kernel level).
using Snapshot = std::map<std::string, std::vector<float>>;
Snapshot snapshot_net(ucudnn::caffepp::Net& net);
Snapshot run_kernels(ucudnn::core::UcudnnHandle& handle, std::uint64_t seed);

/// Largest per-tensor relative L2 error ||a-b|| / ||b|| between snapshots.
struct Mismatch {
  double error = 0.0;
  std::string key;  // the tensor with the largest error
};
Mismatch compare(const Snapshot& got, const Snapshot& want);
/// The error a micro-batched result may show against the undivided
/// reference (measured: below 1e-5 at both levels on AlexNet b8).
inline constexpr double kTolerance = 1e-3;

// ---- per-layer metrics -----------------------------------------------------------

/// Every per-layer metric of the traced run. Each workload fills the layers
/// it drives; the rest stay 0, which is the prediction for that workload.
struct LayerMetrics {
  double caffepp_conv_fwd_ms = 0, caffepp_conv_bwd_ms = 0;
  double caffepp_other_fwd_ms = 0, caffepp_other_bwd_ms = 0;
  double caffepp_residual_ms = 0;
  double kernels_fwd_ms = 0, kernels_bwd_data_ms = 0, kernels_bwd_filter_ms = 0;
  double kernels_gflops = 0;
  double executor_segments_per_iter = 0, executor_est_error_pct = 0;
  double planner_optimize_ms = 0, planner_plan_cache_hit_ratio = 0;
  double benchmarker_benchmark_ms = 0;
  double find_fwd_ms = 0, find_bwd_data_ms = 0, find_bwd_filter_ms = 0;
  double benchmarker_cache_stores = 0, benchmarker_plan_agreement = 0;
  double live_plan_iter_ms = 0;
  double proc_sys_cpu_share = 0;
  double serve_batch_occupancy = 0, serve_batch_exec_ms = 0;
  double serve_rejected = 0, serve_expired = 0;
  double serve_gen_late_p99_ms = 0, serve_lat_p99_ms = 0;
  double trace_overhead_pct = 0;
  double setup_residual_ms = 0;

  /// Planner and benchmarker numbers of a set-up's handle.
  /// `loaded_entries` is the cache size right after the reference cache
  /// loaded; entries beyond it were stored by live benchmarking.
  void read_setup(ucudnn::core::UcudnnHandle& handle,
                  std::size_t loaded_entries);
  /// Segments per pass and estimate error of the plan that ran.
  void read_executor(ucudnn::core::UcudnnHandle& handle);
  /// Replays every recorded kernel through UcudnnHandle::convolution and
  /// sets the kernels.* metrics: median ms per kernel, summed per type, and
  /// GFLOP/s computed from the problem shapes.
  void replay_kernels(ucudnn::core::UcudnnHandle& handle, std::uint64_t seed);
  void emit(Result& result) const;
};

// ---- result ------------------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Prints the result as the last line of standard output.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::shared_ptr<ucudnn::device::Device> host_cpu();

// Two-conv AlexNet head (conv1 -> pool -> conv2 -> pool -> fc -> loss) of the
// cold_start workload.
inline constexpr std::int64_t kHeadBatch = 2;
inline constexpr std::int64_t kHeadImage = 163;
std::string build_head(ucudnn::caffepp::Net& net, std::int64_t batch);

/// train_wr, train_wd and cold_start.
int run_train(const Args& args);
int run_serve(const Args& args);

/// Benchmarks live and saves a reference cache into the plans directory:
/// "alexnet" (alexnet_b8.cache), "head" (head_b2.cache), "serve"
/// (serve_conv.cache).
void generate_train_cache(const Args& args, const std::string& which);
void generate_serve_cache(const Args& args);
/// "<workload>\t<plan line>" for each workload's plan from its cache.
std::vector<std::string> expected_train_plans(const Args& args);
std::vector<std::string> expected_serve_plans(const Args& args);

}  // namespace perfbench
