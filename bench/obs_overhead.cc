// Observability-overhead bench (docs/observability.md).
//
// Measures what the always-on flight recorder costs on the hot path, in
// three tiers:
//
//  * span        — ScopedSpan construct/destroy. Disabled (trace recorder
//                  off, flight recorder disarmed) this is the cost every
//                  instrumented call site pays in production; armed it adds
//                  two ring writes (span_open + span_close).
//  * note        — FlightRecorder::note() directly: disarmed it is a single
//                  relaxed atomic load; armed it is one seqlock ring write.
//  * serve       — end-to-end per-request latency through serve::Server on
//                  a HostCpu handle, flight recorder disarmed vs armed, so
//                  the ring writes are costed against real work.
//
// Each row reports per-operation time in milliseconds per 1000 operations
// (per_1k_ops_ms, lower is better) so bench_compare.py treats it as a
// regression metric; the serve rows report plain per-request milliseconds.
//
// Artifact: BENCH_obs_overhead.json (ucudnn-bench-v1) via --json-dir /
// UCUDNN_BENCH_JSON_DIR, gated by tools/bench_compare.py.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace ucudnn {
namespace {

constexpr int kSpanIters = 200000;
constexpr int kNoteIters = 400000;
constexpr int kServeRequests = 64;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-1000-operation cost of one ScopedSpan open/close pair.
double time_spans() {
  const double begin = now_ms();
  for (int i = 0; i < kSpanIters; ++i) {
    const telemetry::ScopedSpan span("obs.probe");
    (void)span;
  }
  return (now_ms() - begin) / kSpanIters * 1000.0;
}

/// Per-1000-operation cost of one FlightRecorder::note().
double time_notes() {
  const double begin = now_ms();
  for (int i = 0; i < kNoteIters; ++i) {
    telemetry::FlightRecorder::note(telemetry::FlightEventKind::kMark,
                                    "obs.note", 0, i, 0);
  }
  return (now_ms() - begin) / kNoteIters * 1000.0;
}

kernels::ConvProblem sample_problem() {
  return kernels::ConvProblem({1, 4, 8, 8}, {8, 4, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

/// Mean per-request latency of kServeRequests sequential requests.
double time_serve(serve::Server& server, const float* weights) {
  const kernels::ConvProblem problem = sample_problem();
  AlignedBuffer<float> input(static_cast<std::size_t>(problem.x.count()));
  AlignedBuffer<float> output(static_cast<std::size_t>(problem.y.count()),
                              true);
  fill_random(input.data(), problem.x.count(), 11);
  const double begin = now_ms();
  for (int i = 0; i < kServeRequests; ++i) {
    serve::ServeRequest req;
    req.problem = problem;
    req.input = input.data();
    req.weights = weights;
    req.output = output.data();
    serve::TicketPtr ticket = server.submit(std::move(req));
    if (ticket->wait() != Status::kSuccess) return -1.0;
  }
  return (now_ms() - begin) / kServeRequests;
}

}  // namespace
}  // namespace ucudnn

int main(int argc, char** argv) {
  using namespace ucudnn;

  bench::BenchArtifact artifact("obs_overhead", argc, argv);
  artifact.config("device", "HostCpu");
  artifact.config("span_iters", kSpanIters);
  artifact.config("note_iters", kNoteIters);
  artifact.config("serve_requests", kServeRequests);

  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::instance();
  const bool was_armed = flight.is_armed();

  std::printf("obs_overhead: flight-recorder cost, disarmed vs armed\n\n");
  std::printf("%-8s %-10s %16s\n", "case", "mode", "per_1k_ops_ms");
  bench::print_rule(40);

  struct MicroCase {
    const char* name;
    bool armed;
    double (*fn)();
  };
  const MicroCase micro[] = {
      {"span", false, &time_spans},
      {"span", true, &time_spans},
      {"note", false, &time_notes},
      {"note", true, &time_notes},
  };
  for (const MicroCase& c : micro) {
    flight.set_armed(c.armed);
    c.fn();  // warm-up (thread ring allocation, branch predictors)
    const double per_1k_ms = c.fn();
    std::printf("%-8s %-10s %16.6f\n", c.name, c.armed ? "armed" : "disarmed",
                per_1k_ms);
    bench::BenchRow row;
    row.col("case", c.name)
        .col("mode", c.armed ? "armed" : "disarmed")
        .col("per_1k_ops_ms", per_1k_ms);
    artifact.add_row(row);
  }

  // End-to-end: the same serve path twice; the delta is what arming costs
  // against real convolution work (expected: noise).
  core::Options handle_opts;
  handle_opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  handle_opts.workspace_limit = std::size_t{4} << 20;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), handle_opts);
  serve::ServeOptions serve_opts;
  serve_opts.queue_capacity = 64;
  serve_opts.batch_window_us = 0;  // latency mode: no batch hold
  serve::Server server(handle, serve_opts);

  const kernels::ConvProblem problem = sample_problem();
  AlignedBuffer<float> weights(static_cast<std::size_t>(problem.w.count()));
  fill_random(weights.data(), problem.w.count(), 7);

  std::printf("\n%-8s %-10s %16s\n", "case", "mode", "per_req_ms");
  bench::print_rule(40);
  bool serve_ok = true;
  for (const bool armed : {false, true}) {
    flight.set_armed(armed);
    time_serve(server, weights.data());  // warm-up: plan + benchmark
    const double per_req_ms = time_serve(server, weights.data());
    if (per_req_ms < 0.0) {
      std::fprintf(stderr, "serve request failed\n");
      serve_ok = false;
      break;
    }
    std::printf("%-8s %-10s %16.4f\n", "serve", armed ? "armed" : "disarmed",
                per_req_ms);
    bench::BenchRow row;
    row.col("case", "serve")
        .col("mode", armed ? "armed" : "disarmed")
        .col("per_req_ms", per_req_ms);
    artifact.add_row(row);
  }
  server.drain();
  flight.set_armed(was_armed);
  return serve_ok ? 0 : 1;
}
