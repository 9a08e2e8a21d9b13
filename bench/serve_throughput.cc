// Serving-front-end throughput/latency bench (docs/serving.md).
//
// A closed-loop Poisson load generator drives serve::Server over a HostCpu
// UcudnnHandle: each of a fixed set of client threads repeatedly sleeps an
// exponentially-distributed think time (seeded PRNG — runs replay exactly),
// submits one deadline-carrying request, and waits for its ticket. Offered
// load is swept across multipliers (0.5x .. 4x) of the saturation
// throughput a closed-loop probe measures after the warm-up: the probe keeps
// kProbeWindow requests outstanding, so batches fill as they would under
// overload. The kClients clients keep one request outstanding each, so they
// cannot offer more than about kClients / latency: rows whose target exceeds
// that are client-bound, and their offered_qps column shows it.
//
// Each row reports offered/achieved qps, terminal-status counts, and exact
// p50/p95/p99 over the successful requests' end-to-end latencies (sorted
// samples, not histogram interpolation). Since post-deadline completions
// resolve kDeadlineExceeded, success p99 is structurally bounded by the
// deadline — the property asserted in the table's last column.
//
// Artifact: BENCH_serve_throughput.json (ucudnn-bench-v1) via --json-dir /
// UCUDNN_BENCH_JSON_DIR, gated by tools/bench_compare.py.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/aligned_buffer.h"
#include "serve/server.h"
#include "telemetry/metrics.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

constexpr int kClients = 4;
constexpr double kDeadlineMs = 50.0;
constexpr double kRoundSeconds = 0.25;
// Capacity probe: requests kept outstanding (two full batches, below the
// queue capacity so nothing is rejected) and its length.
constexpr int kProbeWindow = 32;
constexpr double kProbeSeconds = 0.25;

kernels::ConvProblem sample_problem() {
  return kernels::ConvProblem({1, 4, 8, 8}, {8, 4, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

core::Options handle_options() {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = std::size_t{4} << 20;
  return opts;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions opts;
  opts.queue_capacity = 64;
  opts.batch_window_us = 200;
  opts.max_batch = 16;
  return opts;
}

struct RoundResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Saturation throughput: completions per second while kProbeWindow
/// requests stay outstanding for kProbeSeconds.
double probe_capacity_qps(serve::Server& server, const float* weights) {
  const kernels::ConvProblem problem = sample_problem();
  struct Slot {
    AlignedBuffer<float> input;
    AlignedBuffer<float> output;
    serve::TicketPtr ticket;
  };
  std::vector<Slot> slots;
  slots.reserve(kProbeWindow);
  for (int i = 0; i < kProbeWindow; ++i) {
    slots.push_back({AlignedBuffer<float>(
                         static_cast<std::size_t>(problem.x.count())),
                     AlignedBuffer<float>(
                         static_cast<std::size_t>(problem.y.count()), true),
                     nullptr});
    fill_random(slots.back().input.data(), problem.x.count(),
                static_cast<std::uint64_t>(i) + 101);
  }
  const auto submit = [&](Slot& slot) {
    serve::ServeRequest req;
    req.problem = problem;
    req.input = slot.input.data();
    req.weights = weights;
    req.output = slot.output.data();
    slot.ticket = server.submit(std::move(req));
  };

  std::deque<Slot*> inflight;
  for (Slot& slot : slots) {
    submit(slot);
    inflight.push_back(&slot);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto end_time =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(kProbeSeconds * 1e6));
  std::uint64_t completed = 0;
  while (std::chrono::steady_clock::now() < end_time) {
    Slot* slot = inflight.front();
    inflight.pop_front();
    if (slot->ticket->wait() == Status::kSuccess) ++completed;
    submit(*slot);  // the slot's buffers are free once its ticket resolved
    inflight.push_back(slot);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  for (Slot* slot : inflight) (void)slot->ticket->wait();
  return static_cast<double>(completed) / seconds;
}

/// One closed-loop round at `target_qps` offered across kClients threads.
RoundResult run_round(serve::Server& server, const float* weights,
                      double target_qps) {
  const kernels::ConvProblem problem = sample_problem();
  std::vector<std::vector<double>> latencies(kClients);
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> expired{0};

  const auto end_time =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(kRoundSeconds * 1e6));
  const double per_client_rate = target_qps / kClients;  // requests/second

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(1234 + c));
      std::exponential_distribution<double> think(per_client_rate);
      AlignedBuffer<float> input(static_cast<std::size_t>(problem.x.count()));
      AlignedBuffer<float> output(static_cast<std::size_t>(problem.y.count()),
                                  true);
      fill_random(input.data(), problem.x.count(),
                  static_cast<std::uint64_t>(c) + 17);
      while (std::chrono::steady_clock::now() < end_time) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(think(rng)));
        serve::ServeRequest req;
        req.problem = problem;
        req.input = input.data();
        req.weights = weights;
        req.output = output.data();
        req.priority = c % 2;
        req.deadline_ms = kDeadlineMs;
        serve::TicketPtr ticket = server.submit(std::move(req));
        submitted.fetch_add(1);
        const Status status = ticket->wait();  // closed loop
        switch (status) {
          case Status::kSuccess:
            completed.fetch_add(1);
            latencies[static_cast<std::size_t>(c)].push_back(
                ticket->latency_ms());
            break;
          case Status::kRejected:
            rejected.fetch_add(1);
            break;
          case Status::kDeadlineExceeded:
            expired.fetch_add(1);
            break;
          default:
            break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  RoundResult result;
  result.submitted = submitted.load();
  result.completed = completed.load();
  result.rejected = rejected.load();
  result.expired = expired.load();
  result.offered_qps = static_cast<double>(result.submitted) / kRoundSeconds;
  result.achieved_qps = static_cast<double>(result.completed) / kRoundSeconds;
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_ms = percentile(all, 0.50);
  result.p95_ms = percentile(all, 0.95);
  result.p99_ms = percentile(all, 0.99);
  return result;
}

}  // namespace
}  // namespace ucudnn

int main(int argc, char** argv) {
  using namespace ucudnn;

  bench::BenchArtifact artifact("serve_throughput", argc, argv);

  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      handle_options());
  serve::Server server(handle, serve_options());

  const kernels::ConvProblem problem = sample_problem();
  AlignedBuffer<float> weights(static_cast<std::size_t>(problem.w.count()));
  fill_random(weights.data(), problem.w.count(), 7);

  // Warm-up: plan + benchmark the batch-1 shape once.
  {
    AlignedBuffer<float> input(static_cast<std::size_t>(problem.x.count()));
    AlignedBuffer<float> output(static_cast<std::size_t>(problem.y.count()),
                                true);
    fill_random(input.data(), problem.x.count(), 3);
    serve::ServeRequest req;
    req.problem = problem;
    req.input = input.data();
    req.weights = weights.data();
    req.output = output.data();
    if (server.submit(std::move(req))->wait() != Status::kSuccess) {
      std::fprintf(stderr, "warm-up request failed\n");
      return 1;
    }
  }
  // The first probe plans and benchmarks the merged batch shapes; the
  // second measures. The reset keeps the warm-up's and the probes' requests
  // out of the rounds' metrics.
  probe_capacity_qps(server, weights.data());
  const double capacity_qps = probe_capacity_qps(server, weights.data());
  telemetry::MetricsRegistry::instance().reset();

  artifact.config("device", "HostCpu");
  artifact.config("clients", kClients);
  artifact.config("queue_capacity", serve_options().queue_capacity);
  artifact.config("batch_window_us",
                  static_cast<std::size_t>(serve_options().batch_window_us));
  artifact.config("deadline_ms", kDeadlineMs);
  artifact.config("round_seconds", kRoundSeconds);

  std::printf("serve_throughput: closed-loop Poisson load over "
              "serve::Server (HostCpu)\n");
  std::printf("capacity %.1f qps (closed-loop probe, %d outstanding)\n\n",
              capacity_qps, kProbeWindow);
  std::printf("%5s %12s %12s %8s %8s %8s %8s %8s %8s %10s\n", "load",
              "offered_qps", "achieved_qps", "done", "rej", "expired",
              "p50_ms", "p95_ms", "p99_ms", "p99<=dl");
  bench::print_rule(96);

  bool p99_bounded = true;
  for (const double multiplier : {0.5, 1.0, 2.0, 4.0}) {
    const RoundResult r =
        run_round(server, weights.data(), multiplier * capacity_qps);
    const bool bounded = r.p99_ms <= kDeadlineMs;
    p99_bounded = p99_bounded && bounded;
    std::printf("%4.1fx %12.1f %12.1f %8llu %8llu %8llu %8.3f %8.3f %8.3f %10s\n",
                multiplier, r.offered_qps, r.achieved_qps,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.expired), r.p50_ms, r.p95_ms,
                r.p99_ms, bounded ? "yes" : "NO");

    bench::BenchRow row;
    row.col("load", multiplier == 0.5 ? "0.5x"
                 : multiplier == 1.0  ? "1x"
                 : multiplier == 2.0  ? "2x"
                                      : "4x")
        .col("offered_qps", r.offered_qps)
        .col("achieved_qps", r.achieved_qps)
        .col("completed", static_cast<std::size_t>(r.completed))
        .col("rejected", static_cast<std::size_t>(r.rejected))
        .col("expired", static_cast<std::size_t>(r.expired))
        .col("p50_ms", r.p50_ms)
        .col("p95_ms", r.p95_ms)
        .col("p99_ms", r.p99_ms);
    artifact.add_row(row);
  }
  server.drain();

  // Mirror the process-wide serve histogram into the artifact so
  // bench_compare.py gates tail latency from the metrics pipeline too (the
  // per-round rows above are exact sorted-sample percentiles; this row is
  // the registry's interpolated estimate over every round).
  {
    const telemetry::MetricsSnapshot snap =
        telemetry::MetricsRegistry::instance().snapshot();
    const auto it = snap.histograms.find("ucudnn.serve.e2e_ms");
    if (it != snap.histograms.end() && it->second.count > 0) {
      const double p50 = telemetry::histogram_percentile_ms(it->second, 0.50);
      const double p95 = telemetry::histogram_percentile_ms(it->second, 0.95);
      const double p99 = telemetry::histogram_percentile_ms(it->second, 0.99);
      std::printf("\nucudnn.serve.e2e_ms histogram (all rounds): "
                  "p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  (n=%llu)\n",
                  p50, p95, p99,
                  static_cast<unsigned long long>(it->second.count));
      bench::BenchRow row;
      row.col("load", "histogram")
          .col("e2e_p50_ms", p50)
          .col("e2e_p95_ms", p95)
          .col("e2e_p99_ms", p99)
          .col("samples", static_cast<std::size_t>(it->second.count));
      artifact.add_row(row);
    }
  }

  const serve::Server::Counters c = server.counters();
  std::printf("\nserver counters: admitted=%llu rejected=%llu expired=%llu "
              "shed=%llu retried=%llu batches=%llu batched=%llu\n",
              static_cast<unsigned long long>(c.admitted),
              static_cast<unsigned long long>(c.rejected),
              static_cast<unsigned long long>(c.expired),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.retried),
              static_cast<unsigned long long>(c.batches),
              static_cast<unsigned long long>(c.batched_requests));

  if (!p99_bounded) {
    std::fprintf(stderr,
                 "success p99 exceeded the deadline — the post-deadline "
                 "completion check is broken\n");
    return 1;
  }
  return 0;
}
