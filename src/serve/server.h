// Server — the resilient multi-tenant serving front-end (docs/serving.md).
//
// Ties the pieces together: submit() runs deadline-aware admission into the
// bounded RequestQueue; one exec thread collects coalescible batches
// (holding them open up to the batch window), merges them through the
// Batcher, and executes ONE micro-batched convolution per batch on the
// UcudnnHandle — so concurrent small requests ride the planner's optimal
// micro-batch division instead of thrashing it with batch-1 calls. The
// kernels already spread each convolution over every core (ThreadPool), so
// the exec thread is the handle's only caller and needs no lock around it.
//
// Robustness guarantees (asserted by tests/serve_test.cc):
//  * submit() never blocks unboundedly — every path returns a Ticket that
//    is either queued or already resolved (kRejected / kDeadlineExceeded /
//    kShuttingDown).
//  * Every admitted Ticket resolves exactly once, including under drain,
//    overload shedding, injected faults, and execution failure.
//  * Transient kExecutionFailed is retried with exponential backoff up to
//    UCUDNN_SERVE_MAX_RETRIES times (on top of the executor's own
//    re-plan/blacklist ladder); retries are skipped once every member of
//    the batch has expired.
//  * drain() stops admission, flushes in-flight batches, fails everything
//    still queued with kShuttingDown, and joins the exec thread. Idempotent.
//
// Fault sites (UCUDNN_FAULTS): serve.enqueue (admission rejects),
// serve.batch (batch assembly fails), serve.exec (execution fails —
// exercises the retry ladder).
//
// Metrics: ucudnn.serve.{admitted,rejected,expired,shed,retried,completed,
// exec_failed,shutdown_failed,batches,batched_requests} counters (held by
// each server and summed across servers by the registry),
// ucudnn.serve.{queue_depth,overload_level} gauges, and
// ucudnn.serve.{e2e_ms,queue_wait_ms,batch_occupancy} histograms.
//
// Tracing: submit() mints a per-request trace id (Ticket::trace_id());
// serve_admit/serve_queue/serve_exec_request/serve_resolve spans
// reconstruct each request's timeline across coalesced batches, and the
// flight recorder captures overload rung changes, batch builds, and
// resolutions. UCUDNN_WATCHDOG_MS attaches an anomaly watchdog sampling
// watchdog_sample(). See docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"
#include "core/ucudnn.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/serve_options.h"
#include "telemetry/metrics.h"
#include "telemetry/watchdog.h"

namespace ucudnn::serve {

class Server {
 public:
  /// The handle must outlive the server. Until drain() only the server's
  /// exec thread executes on it (UcudnnHandle is not thread-safe).
  Server(core::UcudnnHandle& handle, ServeOptions opts)
      : Server(handle, opts, /*run_exec_loop=*/true) {}
  /// Options from the UCUDNN_SERVE_* environment.
  explicit Server(core::UcudnnHandle& handle)
      : Server(handle, ServeOptions::from_env()) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking admission. Always returns a valid Ticket; on any
  /// non-admitted path the ticket is already resolved when it returns.
  TicketPtr submit(ServeRequest request);

  /// Graceful shutdown: stop admission, flush in-flight batches, resolve
  /// everything still queued with kShuttingDown, join the exec thread.
  /// Idempotent, safe from any thread but the exec thread.
  void drain();

  bool draining() const noexcept {
    return drained_.load(std::memory_order_acquire);
  }

  // --- introspection ------------------------------------------------------

  /// This server's ucudnn.serve.* counters (the process-wide metrics sum
  /// them across servers). A request is counted before its ticket resolves,
  /// so a read after Ticket::wait() includes it.
  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;         ///< kRejected resolutions
    std::uint64_t expired = 0;          ///< kDeadlineExceeded resolutions
    std::uint64_t shed = 0;             ///< priority evictions (in rejected)
    std::uint64_t retried = 0;          ///< batch execution retries
    std::uint64_t completed = 0;        ///< kSuccess resolutions
    std::uint64_t exec_failed = 0;      ///< non-deadline failure resolutions
    std::uint64_t shutdown_failed = 0;  ///< kShuttingDown resolutions
    std::uint64_t batches = 0;          ///< merged batches executed
    std::uint64_t batched_requests = 0; ///< requests across those batches
  };
  Counters counters() const;

  std::size_t queue_depth() const { return queue_.depth(); }
  int overload_level() const { return queue_.overload_level(); }
  /// EWMA of recent batch execution times; 0 until the first batch.
  double service_estimate_ms() const noexcept {
    return ewma_ms_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const noexcept { return opts_; }

  /// The anomaly watchdog attached by ServeOptions::watchdog_ms (null when
  /// 0 or when the server has no exec thread). Valid until drain().
  telemetry::Watchdog* watchdog() noexcept { return watchdog_.get(); }
  /// One vital-sign snapshot (queue depth/capacity, overload rung, EWMA
  /// estimate, est-vs-measured drift, exec-thread busy time) — the sampling
  /// callback the watchdog polls; public so tests can probe it directly.
  telemetry::WatchdogSample watchdog_sample() const;

 private:
  /// `run_exec_loop` false leaves the queue undrained (admission tests,
  /// reached through ServerTestPeer): drain() still resolves everything.
  Server(core::UcudnnHandle& handle, ServeOptions opts, bool run_exec_loop);

  void exec_loop();
  void process_batch(std::vector<TicketPtr>& batch);
  /// Builds, (fault-point) executes, and scatters one merged batch.
  /// Throws on failure; the caller owns the retry ladder.
  void execute_once(const std::vector<TicketPtr>& batch);
  /// Counts and resolves (first-wins); no-op if already resolved. The
  /// count lands before the ticket wakes its waiters.
  void finish(const TicketPtr& ticket, Status status);
  std::int64_t effective_window_us() const;
  void update_load_gauges();

  core::UcudnnHandle& handle_;
  const ServeOptions opts_;
  Batcher batcher_;
  RequestQueue queue_;

  FaultSiteId enqueue_site_;
  FaultSiteId batch_site_;
  FaultSiteId exec_site_;

  /// Written by the exec thread only; admission reads it.
  std::atomic<double> ewma_ms_{0.0};
  std::atomic<bool> drained_{false};
  /// Serializes drain() (and the destructor) against concurrent drainers.
  Mutex drain_mutex_{"serve.Server.drain"};

  // The per-server counters() and the process-wide ucudnn.serve.* counters
  // read these same cells.
  telemetry::OwnedCounter admitted_{"ucudnn.serve.admitted"};
  telemetry::OwnedCounter rejected_{"ucudnn.serve.rejected"};
  telemetry::OwnedCounter expired_{"ucudnn.serve.expired"};
  telemetry::OwnedCounter shed_{"ucudnn.serve.shed"};
  telemetry::OwnedCounter retried_{"ucudnn.serve.retried"};
  telemetry::OwnedCounter completed_{"ucudnn.serve.completed"};
  telemetry::OwnedCounter exec_failed_{"ucudnn.serve.exec_failed"};
  telemetry::OwnedCounter shutdown_failed_{"ucudnn.serve.shutdown_failed"};
  telemetry::OwnedCounter batches_{"ucudnn.serve.batches"};
  telemetry::OwnedCounter batched_requests_{"ucudnn.serve.batched_requests"};

  telemetry::Gauge m_depth_, m_level_;
  telemetry::Histogram m_e2e_ms_, m_queue_wait_ms_, m_occupancy_;

  /// Exec-thread liveness: steady-clock us when it began its current batch,
  /// 0 while idle.
  std::atomic<std::int64_t> busy_since_us_{0};
  /// |measured - estimated| / estimated from the handle's ExecutionReport,
  /// refreshed after each batch when ServeOptions::watchdog_ms is set.
  std::atomic<double> last_drift_{0.0};

  /// Stopped and destroyed by drain() before the exec thread is joined.
  std::unique_ptr<telemetry::Watchdog> watchdog_;

  /// Test seam: runs in finish() on the resolving thread right after a
  /// ticket is published. Set only by tests (through ServerTestPeer) before
  /// the first submit().
  std::function<void()> after_publish_for_test_;
  friend struct ServerTestPeer;

  /// Runs exec_loop(); joined by drain(), which the destructor calls.
  std::thread exec_thread_;
};

}  // namespace ucudnn::serve
