// serve_fwd: serve::Server with ServeOptions{} defaults over a batch-1
// 3x3 64->64 conv on 28x28 inputs, reference plan loaded for every
// power-of-two batch size up to max_batch. Two loads alternate in slices of
// kSliceS seconds:
//   open loop    seeded Poisson arrivals at a fixed kOpenRate from one
//                generator thread; latency is timed from each request's due
//                time, and the generator's own lateness is reported.
//   closed loop  kWindow requests kept outstanding (below queue capacity),
//                so batches fill and nothing is rejected; the
//                kCapacityQuantile of its window rates is the saturation
//                throughput.
// Every kCheckEvery-th request's output is compared with a batch-1
// reference computed on a separate handle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <random>
#include <thread>

#include "common.h"
#include "serve/server.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

using ucudnn::ConvKernelType;
using ucudnn::Status;
using ucudnn::core::UcudnnHandle;
using ucudnn::serve::Server;
using ucudnn::serve::TicketPtr;
using ucudnn::telemetry::ScopedSpan;
using ucudnn::telemetry::TraceRecorder;

// Open-loop rate, fixed (not calibrated from a warm-up). At 600 req/s
// (~45% of saturation here) the median latency swung 1.3-3.6 ms between
// identical runs as the host's speed varied; at 300 req/s (~20-25%) queueing
// stays small and the median follows service time.
constexpr double kOpenRate = 300.0;  // requests per second
// The host's speed drifts over seconds (closed-loop rates of 1.5 s parts of
// one process varied by +-15%), so the loads alternate in short slices and
// both sample the host across the whole run instead of one half each.
constexpr double kSliceS = 1.0;
constexpr double kQpsWindowS = 0.5;  // closed-loop rates are per window
// Closed-loop outstanding requests: below queue capacity (256), so nothing
// is rejected, and two batches of 16 fill exactly (~15.5 requests of the
// padded 16). A window of 128 filled batches of ~48 padded to 64, whose
// memory-bound segments swung sat_qps by 33% (IQR) between identical runs.
constexpr int kWindow = 32;
constexpr int kInputs = 32;          // distinct request inputs
constexpr int kCheckEvery = 8;
// A set-up takes ~0.1 s, short enough for a stall to double it; setup_s is
// the median of this many.
constexpr int kSetups = 9;

const ucudnn::kernels::ConvProblem& problem() {
  static const ucudnn::kernels::ConvProblem p(
      {1, 64, 28, 28}, {64, 64, 3, 3}, {.pad_h = 1, .pad_w = 1});
  return p;
}
std::size_t sample_floats() {
  return static_cast<std::size_t>(problem().y.count());
}

// Output buffers, reused once their request resolved.
class BufferPool {
 public:
  float* get() {
    ucudnn::MutexLock lock(mutex_);
    if (free_.empty()) {
      owned_.push_back(std::make_unique<float[]>(sample_floats()));
      return owned_.back().get();
    }
    float* b = free_.back();
    free_.pop_back();
    return b;
  }
  void put(float* b) {
    ucudnn::MutexLock lock(mutex_);
    free_.push_back(b);
  }

 private:
  ucudnn::Mutex mutex_{"perfbench.BufferPool"};
  std::vector<std::unique_ptr<float[]>> owned_ GUARDED_BY(mutex_);
  std::vector<float*> free_ GUARDED_BY(mutex_);
};

struct Pending {
  TicketPtr ticket;
  Clock::time_point due;
  int input = 0;
  float* out = nullptr;
  std::uint64_t seq = 0;
};

struct Inputs {
  std::vector<float> weights;
  std::vector<std::vector<float>> x;    // kInputs samples
  std::vector<std::vector<float>> ref;  // batch-1 reference outputs
};

class Load {
 public:
  Load(Server& server, const Inputs& in, Result& result)
      : server_(server), in_(in), result_(result) {}

  Pending submit(int input, Clock::time_point due) {
    Pending p{nullptr, due, input, pool_.get(), seq_++};
    ucudnn::serve::ServeRequest req;
    req.type = ConvKernelType::kForward;
    req.problem = problem();
    req.input = in_.x[static_cast<std::size_t>(input)].data();
    req.weights = in_.weights.data();
    req.output = p.out;
    p.ticket = server_.submit(req);
    return p;
  }

  // Waits for the request, checks it, and returns its latency from the due
  // time in ms (negative if it failed).
  double finish(const Pending& p) {
    const Status status = p.ticket->wait();
    bool ok = status == Status::kSuccess;
    if (ok && p.seq % kCheckEvery == 0) {
      const auto& ref = in_.ref[static_cast<std::size_t>(p.input)];
      double diff = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        diff = std::max(diff, std::fabs(static_cast<double>(p.out[i]) - ref[i]));
        scale = std::max(scale, std::fabs(static_cast<double>(ref[i])));
      }
      ok = diff <= kTolerance * scale;
    }
    result_.op(ok);
    pool_.put(p.out);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(p.ticket->submitted() - p.due)
            .count() +
        p.ticket->latency_ms();
    TraceRecorder& recorder = TraceRecorder::instance();
    if (recorder.enabled()) {
      // The request's span on its own timeline, from its due time.
      ucudnn::telemetry::SpanEvent span;
      span.name = "perfbench.request";
      span.ts_us = recorder.now_us() - seconds_since(p.due) * 1e6;
      span.dur_us = latency_ms * 1e3;
      span.tid = TraceRecorder::thread_ordinal();
      span.trace_id = p.ticket->trace_id();
      recorder.record(std::move(span));
    }
    return ok ? latency_ms : -1.0;
  }

 private:
  Server& server_;
  const Inputs& in_;
  Result& result_;
  BufferPool pool_;
  std::uint64_t seq_ = 0;
};

struct OpenLoop {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::size_t requests = 0;
};

// One generator thread submits on a seeded Poisson schedule; this thread
// collects in submission order. Appends to `out`.
void open_loop(Load& load, std::uint64_t seed, double seconds, OpenLoop& out) {
  ucudnn::Mutex mutex{"perfbench.open_loop"};
  ucudnn::CondVar cv;
  std::deque<Pending> queue;
  bool done = false;
  std::thread generator([&] {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(kOpenRate);
    std::uniform_int_distribution<int> pick(0, kInputs - 1);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    auto due = start;
    for (;;) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      if (due >= end) break;
      const int input = pick(rng);
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      Pending p = load.submit(input, due);
      ucudnn::MutexLock lock(mutex);
      queue.push_back(std::move(p));
      cv.notify_one();
    }
    ucudnn::MutexLock lock(mutex);
    done = true;
    cv.notify_one();
  });
  for (;;) {
    Pending p;
    {
      ucudnn::MutexLock lock(mutex);
      while (queue.empty() && !done) cv.wait(mutex);
      if (queue.empty()) break;
      p = std::move(queue.front());
      queue.pop_front();
    }
    ++out.requests;
    const double ms = load.finish(p);
    if (ms >= 0) out.latency_ms.push_back(ms);
  }
  generator.join();
}

struct ClosedLoop {
  std::vector<double> qps;  // completion rate per kQpsWindowS window
  std::vector<double> cpu_ms_per_request;  // per window
  double completed = 0.0;
  double seconds = 0.0;
  std::size_t requests = 0;
};

// Appends the rates of `seconds / kQpsWindowS` windows to `out`.
void closed_loop(Load& load, std::uint64_t seed, double seconds,
                 ClosedLoop& out) {
  std::mt19937_64 rng(seed ^ 0xc105edull);
  std::uniform_int_distribution<int> pick(0, kInputs - 1);
  std::deque<Pending> inflight;
  const auto t0 = Clock::now();
  for (int i = 0; i < kWindow; ++i) {
    inflight.push_back(load.submit(pick(rng), t0));
  }
  out.requests += kWindow;
  // Completions, process CPU and the exact start of each kQpsWindowS window.
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, seconds / kQpsWindowS));
  std::vector<double> done(windows, 0.0);
  std::vector<double> cpu_ms(windows, 0.0);
  std::vector<double> start_s(windows + 1, 0.0);
  std::size_t window = 0;
  CpuTimes window_cpu = cpu_times();
  double elapsed = 0.0;
  while ((elapsed = seconds_since(t0)) < seconds) {
    const std::size_t w =
        std::min(windows - 1, static_cast<std::size_t>(elapsed / kQpsWindowS));
    if (w != window) {
      const CpuTimes now = cpu_times();
      cpu_ms[window] = now.total_ms() - window_cpu.total_ms();
      window_cpu = now;
      for (std::size_t k = window + 1; k <= w; ++k) start_s[k] = elapsed;
      window = w;
    }
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    if (load.finish(p) >= 0) done[window] += 1;
    inflight.push_back(load.submit(pick(rng), Clock::now()));
    ++out.requests;
  }
  cpu_ms[window] = cpu_times().total_ms() - window_cpu.total_ms();
  for (std::size_t k = window + 1; k <= windows; ++k) start_s[k] = elapsed;
  for (std::size_t i = 0; i < windows; ++i) {
    out.completed += done[i];
    if (done[i] > 0) {
      out.qps.push_back(done[i] / (start_s[i + 1] - start_s[i]));
      out.cpu_ms_per_request.push_back(cpu_ms[i] / done[i]);
    }
  }
  out.seconds += elapsed;
  for (const Pending& p : inflight) load.finish(p);
}

Inputs make_inputs(const Args& args) {
  Inputs in;
  const auto& p = problem();
  in.weights.resize(static_cast<std::size_t>(p.w.count()));
  ucudnn::fill_random(in.weights.data(), p.w.count(), args.seed);
  UcudnnHandle ref(host_cpu(), [] {
    ucudnn::core::Options o;
    o.batch_size_policy = ucudnn::core::BatchSizePolicy::kUndivided;
    return o;
  }());
  load_reference_cache(ref, args, "serve_conv.cache");
  for (int i = 0; i < kInputs; ++i) {
    auto& x = in.x.emplace_back(static_cast<std::size_t>(p.x.count()));
    ucudnn::fill_random(x.data(), p.x.count(), args.seed * 1000 + i + 1);
    auto& y = in.ref.emplace_back(sample_floats());
    ref.convolution(ConvKernelType::kForward, p, 1.0f, x.data(),
                    in.weights.data(), 0.0f, y.data());
  }
  return in;
}

struct Serving {
  std::unique_ptr<UcudnnHandle> handle;
  std::unique_ptr<Server> server;
  std::size_t loaded_entries = 0;  // reference cache entries
};

// Handle with the reference plan, every power-of-two batch size warmed
// through the handle the server will share, then the server itself.
Serving setup(const Args& args, const Inputs& in, double* ms,
              double* sys_share) {
  const ScopedSpan span("perfbench.setup");
  const auto t0 = Clock::now();
  const CpuTimes c0 = cpu_times();
  Serving s;
  s.handle = std::make_unique<UcudnnHandle>(host_cpu(), ucudnn::core::Options{});
  s.loaded_entries = load_reference_cache(*s.handle, args, "serve_conv.cache");
  const ucudnn::serve::ServeOptions opts{};
  const std::size_t per = static_cast<std::size_t>(problem().x.count());
  std::vector<float> x(per * static_cast<std::size_t>(opts.max_batch));
  std::vector<float> y(sample_floats() * static_cast<std::size_t>(opts.max_batch));
  for (std::size_t i = 0; i < x.size() / per; ++i) {
    std::copy(in.x[i % kInputs].begin(), in.x[i % kInputs].end(),
              x.begin() + static_cast<std::ptrdiff_t>(i * per));
  }
  for (std::int64_t b = 1; b <= opts.max_batch; b *= 2) {
    const ScopedSpan warm("perfbench.warm", [b] { return std::to_string(b); });
    s.handle->convolution(ConvKernelType::kForward, problem().with_batch(b),
                          1.0f, x.data(), in.weights.data(), 0.0f, y.data());
  }
  s.server = std::make_unique<Server>(*s.handle, opts);
  *ms = seconds_since(t0) * 1e3;
  const CpuTimes c1 = cpu_times();
  const double cpu = c1.total_ms() - c0.total_ms();
  *sys_share = cpu > 0 ? (c1.sys_ms - c0.sys_ms) / cpu : 0.0;
  return s;
}

double workspace_mib(UcudnnHandle& handle) {
  std::size_t bytes = 0;
  for (const auto& [tag, b] : handle.device().usage_by_tag()) {
    if (tag.size() >= 3 && tag.compare(tag.size() - 3, 3, ":ws") == 0) bytes += b;
  }
  return static_cast<double>(bytes) / static_cast<double>(std::size_t{1} << 20);
}

// Plain handle, no cache: the server's own path benchmarks every
// power-of-two batch size live.
UcudnnHandle& warm_all(UcudnnHandle& handle, const std::vector<float>& x,
                       const std::vector<float>& w) {
  std::vector<float> y(sample_floats() *
                       static_cast<std::size_t>(ucudnn::serve::ServeOptions{}.max_batch));
  for (std::int64_t b = 1; b <= ucudnn::serve::ServeOptions{}.max_batch; b *= 2) {
    handle.convolution(ConvKernelType::kForward, problem().with_batch(b), 1.0f,
                       x.data(), w.data(), 0.0f, y.data());
  }
  return handle;
}

}  // namespace

void generate_serve_cache(const Args& args) {
  const std::int64_t max_batch = ucudnn::serve::ServeOptions{}.max_batch;
  std::vector<float> x(static_cast<std::size_t>(problem().x.count() * max_batch));
  std::vector<float> w(static_cast<std::size_t>(problem().w.count()));
  ucudnn::fill_random(x.data(), std::ssize(x), 1);
  ucudnn::fill_random(w.data(), std::ssize(w), 2);
  UcudnnHandle handle(host_cpu(), ucudnn::core::Options{});
  warm_all(handle, x, w).cache()->save_file(args.plans_dir + "/serve_conv.cache");
}

std::vector<std::string> expected_serve_plans(const Args& args) {
  const Inputs in = make_inputs(args);
  double ms = 0.0, sys = 0.0;
  Serving s = setup(args, in, &ms, &sys);
  s.server->drain();
  std::vector<std::string> out;
  for (const auto& line : plan_lines(*s.handle)) out.push_back("serve_fwd\t" + line);
  return out;
}

int run_serve(const Args& args) {
  Result result;
  LayerMetrics layers;
  const Inputs in = make_inputs(args);
  reset_peak_rss();  // the peak RSS counts from after the reference outputs
  set_tracing(args.trace);

  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_ms(setups);
  double sys_share = 0.0;
  Serving s;
  for (int i = 0; i < setups; ++i) {
    s = Serving{};
    s = setup(args, in, &setup_ms[i], &sys_share);
    std::printf("setup=%d ms=%.3f\n", i, setup_ms[i]);
  }
  const auto lines = plan_lines(*s.handle);
  std::printf("plan_fingerprint=%s kernels=%zu\n", fingerprint(lines).c_str(),
              lines.size());
  for (const auto& line : lines) std::printf("  plan %s\n", line.c_str());

  Load load(*s.server, in, result);
  OpenLoop open;
  ClosedLoop closed;
  // Batches and the requests in them, in the open and the closed slices.
  double open_batches = 0, open_batched = 0, batches = 0, batched = 0;
  const int slices = std::max(1, static_cast<int>(args.seconds / (2 * kSliceS)));
  for (int i = 0; i < slices; ++i) {
    const auto c0 = s.server->counters();
    open_loop(load, args.seed + i, kSliceS, open);
    const auto c1 = s.server->counters();
    closed_loop(load, args.seed + i, kSliceS, closed);
    const auto c2 = s.server->counters();
    open_batches += static_cast<double>(c1.batches - c0.batches);
    open_batched += static_cast<double>(c1.batched_requests - c0.batched_requests);
    batches += static_cast<double>(c2.batches - c1.batches);
    batched += static_cast<double>(c2.batched_requests - c1.batched_requests);
  }
  const auto after = s.server->counters();
  const double batch_exec_ms = s.server->service_estimate_ms();
  const double lat_p50 = median(open.latency_ms);
  const double lat_p99 = quantile(open.latency_ms, 0.99);
  const double sat_qps = quantile(closed.qps, kCapacityQuantile);
  const double cpu_ms_per_request =
      quantile(closed.cpu_ms_per_request, kCostQuantile);
  const double occupancy = batches > 0 ? batched / batches : 0.0;
  std::printf(
      "open_loop slices=%d requests=%zu lat_p50_ms=%.3f lat_p99_ms=%.3f "
      "gen_late_p99_ms=%.3f occupancy=%.3f\n",
      slices, open.requests, lat_p50, lat_p99, quantile(open.late_ms, 0.99),
      open_batches > 0 ? open_batched / open_batches : 0.0);
  std::printf(
      "closed_loop windows=%zu requests=%zu sat_qps=%.1f mean_qps=%.1f "
      "occupancy=%.3f cpu_ms_per_request=%.3f\n",
      closed.qps.size(), closed.requests, sat_qps,
      closed.completed / closed.seconds, occupancy, cpu_ms_per_request);
  std::printf("counters rejected=%llu expired=%llu\n",
              static_cast<unsigned long long>(after.rejected),
              static_cast<unsigned long long>(after.expired));

  if (!args.trace) {
    result.metric("setup_s", median(setup_ms) / 1e3, "s");
    result.metric("samples_per_s", sat_qps, "1/s");
    result.metric("op_p50_ms", lat_p50, "ms");
    result.metric("cpu_ms_per_op", cpu_ms_per_request, "ms");
    result.metric("workspace_mib", workspace_mib(*s.handle), "MiB");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    s.server->drain();
    result.print();
    return 0;
  }

  s.server->drain();
  layers.serve_batch_occupancy = occupancy;
  layers.serve_batch_exec_ms = batch_exec_ms;
  layers.serve_rejected = static_cast<double>(after.rejected);
  layers.serve_expired = static_cast<double>(after.expired);
  layers.serve_gen_late_p99_ms = quantile(open.late_ms, 0.99);
  layers.serve_lat_p99_ms = lat_p99;
  layers.read_setup(*s.handle, s.loaded_entries);
  layers.read_executor(*s.handle);
  layers.replay_kernels(*s.handle, args.seed);
  layers.proc_sys_cpu_share = sys_share;
  layers.benchmarker_plan_agreement = plan_agreement(args, "serve_fwd", lines);
  layers.setup_residual_ms = setup_ms.back() - layers.benchmarker_benchmark_ms -
                             layers.planner_optimize_ms;
  layers.trace_overhead_pct = trace_overhead_pct();
  set_tracing(false);
  for (const auto& [layer, ms] : self_ms_by_layer()) {
    std::printf("self_ms %-16s %.3f\n", layer.c_str(), ms);
  }
  TraceRecorder::instance().write_chrome_trace(args.work_dir +
                                               "/trace_serve_fwd.json");
  layers.emit(result);
  result.print();
  return 0;
}

}  // namespace perfbench
