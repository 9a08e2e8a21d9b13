// Bounded, deadline-aware request queue of the serving front-end
// (docs/serving.md).
//
// Admission NEVER blocks the caller: try_enqueue() returns a terminal
// verdict immediately — kSuccess (queued), kShuttingDown (draining),
// kDeadlineExceeded (the deadline already passed, or the service-time
// estimate proves it unmeetable), or kRejected (queue full / overload
// shed). The overload ladder is driven by queue-depth watermarks:
//
//   rung 0  depth <  window_wm * capacity   normal: full batch window
//   rung 1  depth >= window_wm * capacity   batch window collapses to 0
//   rung 2  depth >= shed_wm * capacity     only arrivals beating the lowest
//                                           queued priority are admitted
//   rung 3  depth == capacity               lowest-priority entry is evicted
//                                           for a strictly higher-priority
//                                           arrival, else the arrival is
//                                           rejected
//
// Expired entries are shed lazily wherever the queue is already being
// walked (admission, batch collection) and handed back to the caller —
// the queue never resolves tickets itself, so no ticket lock is ever taken
// under the queue lock.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_annotations.h"
#include "serve/request.h"
#include "serve/serve_options.h"

namespace ucudnn::serve {

class RequestQueue {
 public:
  explicit RequestQueue(const ServeOptions& opts);

  struct Admission {
    Status status = Status::kSuccess;
    std::vector<TicketPtr> expired;  ///< shed in passing; resolve
                                     ///< kDeadlineExceeded
    std::vector<TicketPtr> shed;     ///< evicted by priority; resolve
                                     ///< kRejected
  };

  /// Non-blocking admission (see header comment). `est_service_ms` is the
  /// caller's current service-time estimate (0 = unknown): a request whose
  /// deadline cannot be met even if service started now is rejected with
  /// kDeadlineExceeded instead of wasting queue space.
  Admission try_enqueue(const TicketPtr& ticket, double est_service_ms);

  /// Blocks until a request is available (or the queue is draining), then
  /// collects a coalescible batch: the head request plus every queued
  /// request coalescible with it, up to `max_batch` total samples. While
  /// the batch has room the call holds it open up to `window_us` for
  /// stragglers — but never past the point where the tightest member
  /// deadline minus `est_service_ms` would be overrun. Expired entries
  /// encountered are moved to *expired. Returns an empty vector only when
  /// draining and empty.
  std::vector<TicketPtr> next_batch(std::int64_t window_us,
                                    std::int64_t max_batch,
                                    double est_service_ms,
                                    std::vector<TicketPtr>* expired);

  /// Stops admission and returns everything still queued (the caller
  /// resolves them kShuttingDown). Wakes every blocked next_batch().
  /// Idempotent.
  std::vector<TicketPtr> close();

  bool draining() const;
  std::size_t depth() const;
  std::size_t capacity() const noexcept { return opts_.queue_capacity; }

  /// Current overload-ladder rung, 0..3.
  int overload_level() const;

 private:
  void purge_expired_locked(Clock::time_point now,
                            std::vector<TicketPtr>* expired) REQUIRES(mutex_);
  int level_locked() const REQUIRES(mutex_);
  /// Records an overload-rung transition into the flight recorder (and
  /// remembers the rung) whenever the depth-derived level moved since the
  /// last call. Called wherever the queue was just mutated.
  void note_level_locked() REQUIRES(mutex_);
  /// Index of the lowest-priority entry (latest arrival wins ties), or -1.
  std::ptrdiff_t lowest_priority_locked() const REQUIRES(mutex_);
  /// Moves every entry coalescible with `seed` into `batch` until the total
  /// sample count would exceed `max_batch`.
  void collect_locked(const TicketPtr& seed, std::int64_t max_batch,
                      std::int64_t* total, std::vector<TicketPtr>* batch,
                      std::vector<TicketPtr>* expired, Clock::time_point now)
      REQUIRES(mutex_);

  const ServeOptions opts_;
  mutable Mutex mutex_{"serve.RequestQueue"};
  CondVar cv_;
  std::deque<TicketPtr> queue_ GUARDED_BY(mutex_);
  bool draining_ GUARDED_BY(mutex_) = false;
  int last_level_ GUARDED_BY(mutex_) = 0;
};

}  // namespace ucudnn::serve
