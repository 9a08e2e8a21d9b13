// Request/ticket model of the serving front-end (docs/serving.md).
//
// A client describes one inference call as a ServeRequest (a convolution
// problem whose batch dimension is this request's sample count, plus operand
// pointers, a priority, and a deadline) and receives a Ticket: a one-shot
// future that resolves to exactly one terminal Status —
//
//   kSuccess           the outputs were produced within the deadline
//   kDeadlineExceeded  the deadline passed in the queue or during service
//   kRejected          admission control refused (queue full / overload shed)
//   kShuttingDown      the server drained before the request was started
//   anything else      the execution itself failed past all retries
//
// The guarantee the soak tests assert: every submitted request's Ticket
// resolves; no code path leaves a waiter hanging.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "kernels/conv_problem.h"

namespace ucudnn::serve {

using Clock = std::chrono::steady_clock;

/// One inference request. `problem.batch()` is this request's sample count;
/// forward requests whose problems differ ONLY in batch are coalescible when
/// their operand scaling and weights pointer also match. Backward requests
/// never coalesce — they always execute as singleton batches.
struct ServeRequest {
  ConvKernelType type = ConvKernelType::kForward;
  kernels::ConvProblem problem;
  float alpha = 1.0f;
  float beta = 0.0f;
  const float* input = nullptr;    ///< operand a (per-sample, batch-sliced)
  const float* weights = nullptr;  ///< operand b (the tenant's model)
  float* output = nullptr;         ///< batch-sliced result
  /// Larger = more important. Overload shedding evicts the smallest
  /// priority first; ties evict the most recent arrival.
  int priority = 0;
  /// Relative deadline from submit time; 0 uses ServeOptions'
  /// default_deadline_ms (and if that is also 0, the request never expires).
  double deadline_ms = 0.0;
};

/// The one-shot future a submit() returns. Shared between the client and the
/// worker that eventually resolves it; thread-safe.
class Ticket {
 public:
  explicit Ticket(ServeRequest request) : request_(std::move(request)) {}

  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  const ServeRequest& request() const noexcept { return request_; }

  /// Blocks until resolution. Safe to call from multiple threads.
  Status wait() {
    MutexLock lock(mutex_);
    while (!resolved_) cv_.wait(mutex_);
    return status_;
  }

  /// Bounded wait; returns false (and leaves *out untouched) on timeout.
  bool wait_for_us(std::int64_t timeout_us, Status* out) {
    const Clock::time_point until =
        Clock::now() + std::chrono::microseconds(timeout_us);
    MutexLock lock(mutex_);
    while (!resolved_) {
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
          until - Clock::now());
      if (left.count() <= 0) return false;
      cv_.wait_for_us(mutex_, left.count());
    }
    if (out != nullptr) *out = status_;
    return true;
  }

  bool done() {
    MutexLock lock(mutex_);
    return resolved_;
  }

  /// End-to-end latency (submit -> resolution) in ms; 0 until resolved.
  double latency_ms() {
    MutexLock lock(mutex_);
    return latency_ms_;
  }

  // --- server side -------------------------------------------------------

  /// Resolves exactly once; later calls are ignored (the first terminal
  /// status wins, so a drain racing a completion cannot flip a result).
  /// `on_resolve()` runs only in the call that wins, before any waiter can
  /// wake, so whatever it records is visible to a thread returning from
  /// wait(). Returns true when this call performed the resolution.
  template <typename OnResolve>
  bool resolve(Status status, OnResolve&& on_resolve) {
    MutexLock lock(mutex_);
    if (resolved_) return false;
    on_resolve();
    resolved_ = true;
    status_ = status;
    latency_ms_ = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            submitted_)
                      .count();
    cv_.notify_all();
    return true;
  }

  /// Set by admission on entry; time_point::max() = never expires.
  Clock::time_point deadline() const noexcept { return deadline_; }
  void set_deadline(Clock::time_point t) noexcept { deadline_ = t; }
  Clock::time_point submitted() const noexcept { return submitted_; }

  /// Process-unique request trace id (telemetry::next_trace_id), assigned by
  /// admission before the ticket is visible to the exec thread; 0 = untraced.
  std::uint64_t trace_id() const noexcept { return trace_id_; }
  void set_trace_id(std::uint64_t id) noexcept { trace_id_ = id; }
  /// Submit time on the trace recorder's timeline (TraceRecorder::now_us),
  /// so per-request queue spans share the span timestamp axis.
  double submit_ts_us() const noexcept { return submit_ts_us_; }
  void set_submit_ts_us(double ts_us) noexcept { submit_ts_us_ = ts_us; }

  bool expired(Clock::time_point now) const noexcept {
    return now > deadline_;
  }

 private:
  const ServeRequest request_;
  // Written once by admission (before the exec thread can see the ticket).
  Clock::time_point submitted_ = Clock::now();
  Clock::time_point deadline_ = Clock::time_point::max();
  std::uint64_t trace_id_ = 0;
  double submit_ts_us_ = 0.0;

  Mutex mutex_{"Ticket"};
  CondVar cv_;
  bool resolved_ GUARDED_BY(mutex_) = false;
  Status status_ GUARDED_BY(mutex_) = Status::kInternalError;
  double latency_ms_ GUARDED_BY(mutex_) = 0.0;
};

using TicketPtr = std::shared_ptr<Ticket>;

/// Requests coalesce when both are forward and everything but the batch
/// dimension matches: the merged mini-batch is mathematically the
/// concatenation of the members. Backward types are excluded outright —
/// concatenation is not valid for them (filter gradients sum over the
/// batch), and Batcher::build refuses multi-member non-forward batches.
inline bool coalescible(const ServeRequest& a, const ServeRequest& b) {
  return a.type == ConvKernelType::kForward && b.type == a.type &&
         a.weights == b.weights && a.alpha == b.alpha && a.beta == b.beta &&
         a.problem.with_batch(1) == b.problem.with_batch(1);
}

}  // namespace ucudnn::serve
