// Training workloads on the HostCpu backend, driven through caffepp::Net and
// core::UcudnnHandle:
//   train_wr    AlexNet b8, WR, powerOfTwo, 8 MiB per kernel, pinned plan
//   train_wd    the same net and cache under WD with a 40 MiB arena
//   cold_start  a two-conv AlexNet head at b2, benchmarked live, no cache
// A set-up builds a handle and a net and runs the first forward+backward
// pass; that pass is checked against an undivided, ample-workspace reference
// built from the same weights. The pinned workloads load a committed
// reference benchmark cache, so every run executes the same plan.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "frameworks/caffepp/layers.h"
#include "frameworks/caffepp/model_zoo.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

using ucudnn::caffepp::Net;
using ucudnn::core::UcudnnHandle;
using ucudnn::telemetry::ScopedSpan;

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kLayerLimit = 8 * kMiB;
constexpr std::size_t kArena = 40 * kMiB;
constexpr std::size_t kAmpleLimit = 1024 * kMiB;
// Set-ups per untraced run of a pinned workload; setup_s is their median.
// cold_start's op is the live cold start itself (~20 s), repeated for the
// run's seconds.
constexpr std::size_t kSetups = 3;

struct Spec {
  std::string workload;
  std::int64_t batch = 8;
  bool head = false;  // two-conv head instead of the full AlexNet
  bool wd = false;
  std::string cache;  // committed cache loaded by the set-up; empty = live
  std::string reference_cache;
};

Spec spec_for(const std::string& workload) {
  if (workload == "train_wr") {
    return {workload, 8, false, false, "alexnet_b8.cache", "alexnet_b8.cache"};
  }
  if (workload == "train_wd") {
    return {workload, 8, false, true, "alexnet_b8.cache", "alexnet_b8.cache"};
  }
  return {"cold_start", kHeadBatch, true, false, "", "head_b2.cache"};
}

struct Model {
  std::unique_ptr<UcudnnHandle> handle;
  std::unique_ptr<Net> net;
  std::string loss;
  std::size_t loaded_entries = 0;  // reference cache entries
};

Model make_model(const Args& args, const Spec& spec, bool reference) {
  ucudnn::core::Options opts;
  opts.batch_size_policy = reference
                               ? ucudnn::core::BatchSizePolicy::kUndivided
                               : ucudnn::core::BatchSizePolicy::kPowerOfTwo;
  if (spec.wd && !reference) {
    opts.workspace_policy = ucudnn::core::WorkspacePolicy::kWD;
    opts.total_workspace_size = kArena;
  }
  Model m;
  m.handle = std::make_unique<UcudnnHandle>(host_cpu(), opts);
  const std::string& cache = reference ? spec.reference_cache : spec.cache;
  if (!cache.empty()) {
    m.loaded_entries = load_reference_cache(*m.handle, args, cache);
  }
  const ScopedSpan span("perfbench.build_net");
  ucudnn::caffepp::NetOptions net_opts;
  net_opts.workspace_limit = reference ? kAmpleLimit : kLayerLimit;
  m.net = std::make_unique<Net>(*m.handle, spec.workload, net_opts);
  m.loss = spec.head ? build_head(*m.net, spec.batch)
                     : ucudnn::caffepp::build_alexnet(*m.net, spec.batch);
  m.net->init(args.seed);
  return m;
}

struct SetupStats {
  double ms = 0.0;
  double cpu_ms = 0.0;
  double sys_share = 0.0;
  double find_ms[3] = {0.0, 0.0, 0.0};  // per ConvKernelType
};

// One set-up: handle, net, live benchmarking where the workload has no
// cache, and the first forward+backward pass (planning, WD finalization,
// workspace allocation).
Model setup(const Args& args, const Spec& spec, SetupStats* stats) {
  const ScopedSpan span("perfbench.setup");
  const auto t0 = Clock::now();
  const CpuTimes c0 = cpu_times();
  Model m = make_model(args, spec, /*reference=*/false);
  if (spec.cache.empty()) {
    const auto requests = m.handle->recorded_kernels();
    for (const auto& req : requests) {
      const ScopedSpan find("perfbench.find", [&] { return req.label; });
      const auto f0 = Clock::now();
      m.handle->benchmark(req.type, req.problem,
                          m.handle->options().batch_size_policy);
      stats->find_ms[static_cast<int>(req.type)] += seconds_since(f0) * 1e3;
    }
  }
  {
    const ScopedSpan first("perfbench.first_pass");
    m.net->forward();
    m.net->backward();
  }
  stats->ms = seconds_since(t0) * 1e3;
  const CpuTimes c1 = cpu_times();
  stats->cpu_ms = c1.total_ms() - c0.total_ms();
  stats->sys_share =
      stats->cpu_ms > 0 ? (c1.sys_ms - c0.sys_ms) / stats->cpu_ms : 0.0;
  return m;
}

double workspace_mib(const Net& net) {
  std::size_t bytes = 0;
  for (const auto& [layer, mem] : net.memory_report()) bytes += mem.workspace;
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

bool loss_ok(Net& net, const std::string& loss) {
  const float v = net.blob(loss)->data()[0];
  return std::isfinite(v) && v > 0.0f;
}

}  // namespace

std::string build_head(Net& net, std::int64_t batch) {
  std::string top = net.input("data", {batch, 3, kHeadImage, kHeadImage});
  top = net.conv("conv1", top, 96, 11, 4, 0);
  top = net.relu("relu1", top);
  top = net.pool_max("pool1", top, 3, 2);
  top = net.conv("conv2", top, 256, 5, 1, 2);
  top = net.relu("relu2", top);
  top = net.pool_max("pool2", top, 3, 2);
  top = net.fc("fc", top, 10);
  return net.softmax_loss("loss", top);
}

int run_train(const Args& args) {
  const Spec spec = spec_for(args.workload);
  const bool live = spec.cache.empty();
  Result result;
  LayerMetrics layers;

  // Reference results first, so only one net is alive at a time. The peak
  // RSS counts from after the reference is freed.
  Snapshot reference;
  Snapshot reference_kernels;
  {
    Model ref = make_model(args, spec, /*reference=*/true);
    ref.net->forward();
    ref.net->backward();
    reference = snapshot_net(*ref.net);
    reference_kernels = run_kernels(*ref.handle, args.seed);
  }
  reset_peak_rss();
  set_tracing(args.trace);

  // Set-ups, each checked against the reference. A traced run sets up once.
  std::vector<SetupStats> stats;
  const auto t0 = Clock::now();
  const auto more_setups = [&] {
    if (stats.empty()) return true;
    if (args.trace) return false;
    return live ? seconds_since(t0) < args.seconds : stats.size() < kSetups;
  };
  Model model;
  while (more_setups()) {
    model = Model{};  // release the previous set-up before building the next
    model = setup(args, spec, &stats.emplace_back());
    const Mismatch m = compare(snapshot_net(*model.net), reference);
    std::printf("setup=%zu ms=%.3f cpu_ms=%.3f rel_err=%.3g at %s "
                "tolerance=%.3g\n",
                stats.size() - 1, stats.back().ms, stats.back().cpu_ms, m.error,
                m.key.c_str(), kTolerance);
    result.op(m.error <= kTolerance);
  }
  {
    const Mismatch m =
        compare(run_kernels(*model.handle, args.seed), reference_kernels);
    std::printf("kernel check rel_err=%.3g at %s tolerance=%.3g\n", m.error,
                m.key.c_str(), kTolerance);
    result.op(m.error <= kTolerance);
  }
  const auto lines = plan_lines(*model.handle);
  std::printf("plan_fingerprint=%s kernels=%zu\n", fingerprint(lines).c_str(),
              lines.size());
  for (const auto& line : lines) std::printf("  plan %s\n", line.c_str());
  layers.read_setup(*model.handle, model.loaded_entries);
  layers.benchmarker_plan_agreement = plan_agreement(args, spec.workload, lines);
  Net& net = *model.net;

  std::vector<double> setup_ms;
  std::vector<double> setup_cpu_ms;
  for (const SetupStats& s : stats) {
    setup_ms.push_back(s.ms);
    setup_cpu_ms.push_back(s.cpu_ms);
  }
  if (live && !args.trace) {
    // The op is the cold start: benchmarking, planning and the first pass.
    const double ms = median(setup_ms);
    result.metric("setup_s", ms / 1e3, "s");
    result.metric("samples_per_s", static_cast<double>(spec.batch) * 1e3 / ms,
                  "1/s");
    result.metric("op_p50_ms", ms, "ms");
    result.metric("cpu_ms_per_op", median(setup_cpu_ms), "ms");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    // The live plan's workspace moves with the near-ties live benchmarking
    // breaks (22-35 MiB between runs here), so workspace_mib is the head's
    // workspace under its reference plan, as a start with a saved cache
    // would allocate it.
    std::printf("live_workspace_mib=%.3f\n", workspace_mib(net));
    model = Model{};
    Spec pinned = spec;
    pinned.cache = spec.reference_cache;
    SetupStats ignored;
    model = setup(args, pinned, &ignored);
    result.metric("workspace_mib", workspace_mib(*model.net), "MiB");
    result.print();
    return 0;
  }

  // Timed iterations, untraced. A traced run spends half its time here, the
  // iteration time the per-layer times are set against, and half with
  // tracing on. On cold_start they run the plan its live set-up chose.
  struct Timed {
    std::vector<double> ms;
    std::vector<double> cpu_ms;
  };
  const auto timed_loop = [&](double seconds) {
    Timed t;
    const auto start = Clock::now();
    while (t.ms.empty() || seconds_since(start) < seconds) {
      const ScopedSpan iteration("perfbench.iteration");
      const auto i0 = Clock::now();
      const CpuTimes c0 = cpu_times();
      net.forward();
      net.backward();
      t.cpu_ms.push_back(cpu_times().total_ms() - c0.total_ms());
      t.ms.push_back(seconds_since(i0) * 1e3);
      result.op(loss_ok(net, model.loss));
    }
    return t;
  };
  const double loop_s =
      live ? 1.0 : args.trace ? args.seconds / 2 : args.seconds;
  set_tracing(false);
  const Timed timed = timed_loop(loop_s);
  const double p50 = median(timed.ms);
  std::printf("iterations=%zu iter_p50_ms=%.3f iter_p90_ms=%.3f\n",
              timed.ms.size(), p50, quantile(timed.ms, 0.9));

  if (!args.trace) {
    // Per-iteration quantiles, not totals: a run is short against the
    // host's own speed swings, and a quantile ignores a stalled iteration.
    result.metric("setup_s", median(setup_ms) / 1e3, "s");
    result.metric("samples_per_s", static_cast<double>(spec.batch) * 1e3 / p50,
                  "1/s");
    result.metric("op_p50_ms", p50, "ms");
    result.metric("cpu_ms_per_op", quantile(timed.cpu_ms, kCostQuantile),
                  "ms");
    result.metric("workspace_mib", workspace_mib(net), "MiB");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.print();
    return 0;
  }

  set_tracing(true);
  timed_loop(loop_s);
  layers.live_plan_iter_ms = p50;
  std::vector<Net::LayerTime> times;
  {
    const ScopedSpan span("perfbench.net_time");
    times = net.time(2);  // one warm-up and two per-layer timed iterations
  }
  result.op(loss_ok(net, model.loss));
  double layer_sum = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const bool conv = dynamic_cast<const ucudnn::caffepp::ConvLayer*>(
                          net.layers()[i].get()) != nullptr;
    (conv ? layers.caffepp_conv_fwd_ms : layers.caffepp_other_fwd_ms) +=
        times[i].forward_ms;
    (conv ? layers.caffepp_conv_bwd_ms : layers.caffepp_other_bwd_ms) +=
        times[i].backward_ms;
    layer_sum += times[i].forward_ms + times[i].backward_ms;
  }
  layers.caffepp_residual_ms = p50 - layer_sum;
  layers.read_executor(*model.handle);
  layers.replay_kernels(*model.handle, args.seed);

  const SetupStats& s = stats.back();
  layers.find_fwd_ms = s.find_ms[0];
  layers.find_bwd_data_ms = s.find_ms[1];
  layers.find_bwd_filter_ms = s.find_ms[2];
  layers.proc_sys_cpu_share = s.sys_share;
  layers.setup_residual_ms = s.ms - layers.benchmarker_benchmark_ms -
                             layers.planner_optimize_ms;
  std::printf("iteration_ms=%.3f = layers %.3f + residual %.3f\n", p50,
              layer_sum, layers.caffepp_residual_ms);
  std::printf("setup_ms=%.3f = benchmark %.3f + optimize %.3f + rest %.3f\n",
              s.ms, layers.benchmarker_benchmark_ms, layers.planner_optimize_ms,
              layers.setup_residual_ms);
  layers.trace_overhead_pct = trace_overhead_pct();
  set_tracing(false);
  for (const auto& [layer, ms] : self_ms_by_layer()) {
    std::printf("self_ms %-16s %.3f\n", layer.c_str(), ms);
  }
  ucudnn::telemetry::TraceRecorder::instance().write_chrome_trace(
      args.work_dir + "/trace_" + spec.workload + ".json");
  layers.emit(result);
  result.print();
  return 0;
}

void generate_train_cache(const Args& args, const std::string& which) {
  Spec spec = spec_for(which == "head" ? "cold_start" : "train_wr");
  spec.cache.clear();  // benchmark live
  SetupStats stats;
  const Model m = setup(args, spec, &stats);
  std::printf("generated %s cache: %.1f s set-up, %.1f s benchmarking\n",
              which.c_str(), stats.ms / 1e3, m.handle->total_benchmark_ms() / 1e3);
  m.handle->cache()->save_file(args.plans_dir + "/" + spec.reference_cache);
}

std::vector<std::string> expected_train_plans(const Args& args) {
  std::vector<std::string> out;
  for (const char* workload : {"train_wr", "train_wd", "cold_start"}) {
    Spec spec = spec_for(workload);
    spec.cache = spec.reference_cache;
    SetupStats stats;
    const Model m = setup(args, spec, &stats);
    for (const auto& line : plan_lines(*m.handle)) {
      out.push_back(spec.workload + "\t" + line);
    }
  }
  return out;
}

}  // namespace perfbench
