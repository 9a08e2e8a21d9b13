#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "device/device.h"
#include "frameworks/caffepp/layers.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace fs = std::filesystem;

// ---- tracing ---------------------------------------------------------------

namespace {

using ucudnn::telemetry::ScopedSpan;
using ucudnn::telemetry::SpanEvent;
using ucudnn::telemetry::TraceRecorder;

// Whether tracing is on, the time it has been on before, in us, and when it
// was last turned on or off.
bool tracing = false;
double traced_us = 0.0;
double traced_since_us = 0.0;
// Measured cost of recording one span, in us; 0 until tracing first starts.
double span_cost_us = 0.0;

// Opens and closes batches of spans, takes the median batch's cost per span
// and drops them from the recorder.
double measure_span_cost_us() {
  constexpr int kBatch = 2000;
  std::vector<double> per_span_us;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const ScopedSpan span("perfbench.calibrate");
    }
    per_span_us.push_back(seconds_since(t0) * 1e6 / kBatch);
  }
  TraceRecorder::instance().clear();
  return median(per_span_us);
}

// The layer each span belongs to, by name prefix; first match wins. The
// kernels have no spans of their own; mcudnn_conv wraps each kernel call, so
// its self time is kernel time.
constexpr std::pair<const char*, const char*> kLayers[] = {
    {"net.", "caffepp"},
    {"layer.", "caffepp"},
    {"perfbench.build_net", "caffepp"},
    {"perfbench.first_pass", "caffepp"},
    {"perfbench.iteration", "caffepp"},
    {"perfbench.net_time", "caffepp"},
    {"segment_exec", "executor"},
    {"perfbench.kernel_replay", "kernels"},
    {"mcudnn_conv", "kernels"},
    {"find_algorithms", "mcudnn"},
    {"benchmark", "benchmarker"},
    {"perfbench.find", "benchmarker"},
    {"cache_", "benchmark_cache"},
    {"wr_dp", "planner"},
    {"wd_ilp", "planner"},
    {"plan_build", "planner"},
    {"replan", "planner"},
    {"serve_", "serve"},
    {"perfbench.warm", "serve"},
    {"perfbench.", "perfbench"},
};

// Spans recorded after the fact on a request's own timeline: they overlap
// the recording thread's spans instead of nesting in them.
bool timeline_span(const std::string& name) {
  return name == "serve_queue" || name == "serve_exec_request" ||
         name == "serve_resolve" || name == "perfbench.request";
}

const char* layer_of(const std::string& name) {
  for (const auto& [prefix, layer] : kLayers) {
    if (name.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

}  // namespace

void set_tracing(bool on) {
  TraceRecorder& recorder = TraceRecorder::instance();
  if (on && span_cost_us == 0.0) {
    recorder.set_enabled(true);
    span_cost_us = measure_span_cost_us();
  }
  if (tracing) traced_us += recorder.now_us() - traced_since_us;
  tracing = on;
  traced_since_us = recorder.now_us();
  recorder.set_enabled(on);
}

std::map<std::string, double> self_ms_by_layer() {
  std::vector<SpanEvent> events = TraceRecorder::instance().events();
  std::erase_if(events, [](const SpanEvent& e) { return timeline_span(e.name); });
  // Per thread in start order, a parent before a child that starts with it.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return std::tie(a.tid, a.ts_us, a.depth) <
                     std::tie(b.tid, b.ts_us, b.depth);
            });
  constexpr std::size_t kNone = SIZE_MAX;
  std::vector<double> self(events.size());
  std::vector<std::size_t> open;  // latest span at each depth on this thread
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) open.clear();
    self[i] = e.dur_us;
    if (e.depth > 0 && e.depth <= open.size() && open[e.depth - 1] != kNone) {
      const SpanEvent& parent = events[open[e.depth - 1]];
      if (e.ts_us <= parent.ts_us + parent.dur_us) {
        self[open[e.depth - 1]] -= e.dur_us;
      }
    }
    open.resize(e.depth, kNone);
    open.push_back(i);
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_layer[layer_of(events[i].name)] += self[i] / 1e3;
  }
  return by_layer;
}

double trace_overhead_pct() {
  TraceRecorder& recorder = TraceRecorder::instance();
  double on_us = traced_us;
  if (tracing) on_us += recorder.now_us() - traced_since_us;
  return on_us > 0 ? static_cast<double>(recorder.events().size()) *
                         span_cost_us / on_us * 100.0
                   : 0.0;
}

// ---- process probes ----------------------------------------------------------

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime)};
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets the VmHWM peak to the current RSS
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

// ---- plans -------------------------------------------------------------------

std::shared_ptr<ucudnn::device::Device> host_cpu() {
  return std::make_shared<ucudnn::device::Device>(
      ucudnn::device::host_cpu_spec());
}

std::size_t load_reference_cache(ucudnn::core::UcudnnHandle& handle,
                                 const Args& args, const std::string& name) {
  const fs::path copy = fs::path(args.work_dir) /
                        (name + "." + std::to_string(::getpid()) + ".copy");
  fs::copy_file(fs::path(args.plans_dir) / name, copy,
                fs::copy_options::overwrite_existing);
  const auto loaded = handle.cache()->load_file(copy.string());
  std::error_code ignored;
  fs::remove(copy, ignored);
  fs::remove(copy.string() + ".corrupt", ignored);
  if (loaded != ucudnn::core::CacheLoadResult::kLoaded) {
    throw std::runtime_error("reference cache " + name + " did not load");
  }
  return handle.cache()->size();
}

std::vector<std::string> plan_lines(ucudnn::core::UcudnnHandle& handle) {
  std::vector<std::string> lines;
  for (const auto& req : handle.recorded_kernels()) {
    const auto* config = handle.configuration_for(req.type, req.problem);
    lines.push_back(req.label + " " +
                    (config ? config->to_string(req.type) : "unplanned"));
  }
  return lines;
}

std::string fingerprint(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const auto& line : lines) {
    for (const unsigned char c : line + "\n") {
      h = (h ^ c) * 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double plan_agreement(const Args& args, const std::string& workload,
                      const std::vector<std::string>& live) {
  std::ifstream in(fs::path(args.plans_dir) / "expected_plans.txt");
  std::vector<std::string> expected;
  const std::string prefix = workload + "\t";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) expected.push_back(line.substr(prefix.size()));
  }
  if (live.empty()) return 0.0;
  std::size_t same = 0;
  for (const auto& line : live) {
    same += std::count(expected.begin(), expected.end(), line) > 0 ? 1 : 0;
  }
  return static_cast<double>(same) / static_cast<double>(live.size());
}

// ---- reference comparison ------------------------------------------------------

Snapshot snapshot_net(ucudnn::caffepp::Net& net) {
  Snapshot snap;
  const auto copy = [&](const std::string& key, const float* p,
                        std::int64_t n) { snap[key].assign(p, p + n); };
  for (const auto& layer : net.layers()) {
    // In-place layers (relu, dropout) own no blob of their own name.
    ucudnn::caffepp::Blob* blob = nullptr;
    try {
      blob = net.blob(layer->name());
    } catch (const ucudnn::Error&) {
    }
    if (blob != nullptr) {
      copy(layer->name(), blob->data(), blob->count());
    }
  }
  return snap;
}

Mismatch compare(const Snapshot& got, const Snapshot& want) {
  if (got.size() != want.size()) return {INFINITY, "tensor set"};
  Mismatch worst;
  for (const auto& [key, ref] : want) {
    const auto it = got.find(key);
    if (it == got.end() || it->second.size() != ref.size()) {
      return {INFINITY, key};
    }
    double diff2 = 0.0;
    double ref2 = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double d = static_cast<double>(it->second[i]) - ref[i];
      diff2 += d * d;
      ref2 += static_cast<double>(ref[i]) * ref[i];
    }
    const double err = std::isfinite(diff2)
                           ? std::sqrt(diff2 / std::max(ref2, 1e-30))
                           : INFINITY;
    if (!(err <= worst.error)) worst = {err, key};
  }
  return worst;
}

// ---- per-layer metrics -----------------------------------------------------------

void LayerMetrics::read_setup(ucudnn::core::UcudnnHandle& handle,
                              std::size_t loaded_entries) {
  planner_optimize_ms = handle.total_optimize_ms();
  const auto& plans = handle.plan_cache();
  const double lookups = static_cast<double>(plans.hits() + plans.misses());
  planner_plan_cache_hit_ratio =
      lookups > 0 ? static_cast<double>(plans.hits()) / lookups : 0.0;
  benchmarker_benchmark_ms = handle.total_benchmark_ms();
  benchmarker_cache_stores =
      static_cast<double>(handle.cache()->size() - loaded_entries);
}

void LayerMetrics::read_executor(ucudnn::core::UcudnnHandle& handle) {
  executor_segments_per_iter = 0;
  for (const auto& req : handle.recorded_kernels()) {
    if (const auto* c = handle.configuration_for(req.type, req.problem)) {
      executor_segments_per_iter += static_cast<double>(c->size());
    }
  }
  executor_est_error_pct = handle.execution_report().estimation_error_pct();
}

namespace {

// Seeded operands of one recorded kernel, sized by its type.
struct Operands {
  std::vector<float> a, b, out;

  Operands(const ucudnn::core::KernelRequest& req, std::uint64_t seed) {
    using ucudnn::ConvKernelType;
    const auto& p = req.problem;
    const auto sized = [](std::vector<float>& v, std::int64_t n) {
      v.resize(static_cast<std::size_t>(n));
    };
    sized(a, req.type == ConvKernelType::kBackwardData ? p.y.count()
                                                       : p.x.count());
    sized(b, req.type == ConvKernelType::kBackwardFilter ? p.y.count()
                                                         : p.w.count());
    sized(out, req.type == ConvKernelType::kForward        ? p.y.count()
               : req.type == ConvKernelType::kBackwardData ? p.x.count()
                                                           : p.w.count());
    ucudnn::fill_random(a.data(), std::ssize(a), seed);
    ucudnn::fill_random(b.data(), std::ssize(b), seed + 1);
  }
  void run(ucudnn::core::UcudnnHandle& handle,
           const ucudnn::core::KernelRequest& req) {
    handle.convolution(req.type, req.problem, 1.0f, a.data(), b.data(), 0.0f,
                       out.data());
  }
};

}  // namespace

Snapshot run_kernels(ucudnn::core::UcudnnHandle& handle, std::uint64_t seed) {
  Snapshot outputs;
  const auto requests = handle.recorded_kernels();
  for (const auto& req : requests) {
    Operands ops(req, seed);
    ops.run(handle, req);
    outputs[req.label] = std::move(ops.out);
  }
  return outputs;
}

void LayerMetrics::replay_kernels(ucudnn::core::UcudnnHandle& handle,
                                  std::uint64_t seed) {
  using ucudnn::ConvKernelType;
  constexpr int kReps = 3;
  double flops = 0.0;
  double total_ms = 0.0;
  const auto requests = handle.recorded_kernels();  // replay records nothing new
  for (const auto& req : requests) {
    const auto& p = req.problem;
    Operands ops(req, seed);
    ops.run(handle, req);  // warm-up
    std::vector<double> runs;
    for (int r = 0; r < kReps; ++r) {
      const ScopedSpan span("perfbench.kernel_replay",
                            [&] { return req.label; });
      const auto t0 = Clock::now();
      ops.run(handle, req);
      runs.push_back(seconds_since(t0) * 1e3);
    }
    const double ms = median(runs);
    total_ms += ms;
    flops += 2.0 * p.macs();
    switch (req.type) {
      case ConvKernelType::kForward: kernels_fwd_ms += ms; break;
      case ConvKernelType::kBackwardData: kernels_bwd_data_ms += ms; break;
      case ConvKernelType::kBackwardFilter: kernels_bwd_filter_ms += ms; break;
    }
  }
  kernels_gflops = total_ms > 0 ? flops / (total_ms * 1e6) : 0.0;
}

void LayerMetrics::emit(Result& r) const {
  r.metric("caffepp.conv_fwd_ms", caffepp_conv_fwd_ms, "ms");
  r.metric("caffepp.conv_bwd_ms", caffepp_conv_bwd_ms, "ms");
  r.metric("caffepp.other_fwd_ms", caffepp_other_fwd_ms, "ms");
  r.metric("caffepp.other_bwd_ms", caffepp_other_bwd_ms, "ms");
  r.metric("caffepp.residual_ms", caffepp_residual_ms, "ms");
  r.metric("kernels.fwd_ms", kernels_fwd_ms, "ms");
  r.metric("kernels.bwd_data_ms", kernels_bwd_data_ms, "ms");
  r.metric("kernels.bwd_filter_ms", kernels_bwd_filter_ms, "ms");
  r.metric("kernels.gflops", kernels_gflops, "GFLOP/s");
  r.metric("executor.segments_per_iter", executor_segments_per_iter, "count");
  r.metric("executor.est_error_pct", executor_est_error_pct, "%");
  r.metric("planner.optimize_ms", planner_optimize_ms, "ms");
  r.metric("planner.plan_cache_hit_ratio", planner_plan_cache_hit_ratio,
           "ratio");
  r.metric("benchmarker.benchmark_ms", benchmarker_benchmark_ms, "ms");
  r.metric("mcudnn.find_fwd_ms", find_fwd_ms, "ms");
  r.metric("mcudnn.find_bwd_data_ms", find_bwd_data_ms, "ms");
  r.metric("mcudnn.find_bwd_filter_ms", find_bwd_filter_ms, "ms");
  r.metric("benchmarker.cache_stores", benchmarker_cache_stores, "count");
  r.metric("benchmarker.plan_agreement", benchmarker_plan_agreement, "ratio");
  r.metric("benchmarker.live_plan_iter_ms", live_plan_iter_ms, "ms");
  r.metric("proc.sys_cpu_share", proc_sys_cpu_share, "ratio");
  r.metric("serve.batch_occupancy", serve_batch_occupancy, "count");
  r.metric("serve.batch_exec_ms", serve_batch_exec_ms, "ms");
  r.metric("serve.rejected", serve_rejected, "count");
  r.metric("serve.expired", serve_expired, "count");
  r.metric("serve.gen_late_p99_ms", serve_gen_late_p99_ms, "ms");
  r.metric("serve.lat_p99_ms", serve_lat_p99_ms, "ms");
  r.metric("trace.overhead_pct", trace_overhead_pct, "%");
  r.metric("setup.residual_ms", setup_residual_ms, "ms");
}

// ---- result ------------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::print() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : -1.0);
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
