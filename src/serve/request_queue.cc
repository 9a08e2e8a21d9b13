#include "serve/request_queue.h"

#include <algorithm>

#include "telemetry/flight_recorder.h"

namespace ucudnn::serve {

RequestQueue::RequestQueue(const ServeOptions& opts) : opts_(opts) {
  opts_.validate();
}

void RequestQueue::purge_expired_locked(Clock::time_point now,
                                        std::vector<TicketPtr>* expired) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->expired(now)) {
      expired->push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

int RequestQueue::level_locked() const {
  const auto depth = static_cast<double>(queue_.size());
  const auto cap = static_cast<double>(opts_.queue_capacity);
  if (queue_.size() >= opts_.queue_capacity) return 3;
  if (depth >= opts_.shed_watermark * cap) return 2;
  if (depth >= opts_.window_watermark * cap) return 1;
  return 0;
}

void RequestQueue::note_level_locked() {
  const int level = level_locked();
  if (level == last_level_) return;
  telemetry::FlightRecorder::note(telemetry::FlightEventKind::kOverload,
                                  "serve.overload_level", 0, level,
                                  last_level_);
  last_level_ = level;
}

std::ptrdiff_t RequestQueue::lowest_priority_locked() const {
  std::ptrdiff_t lowest = -1;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(queue_.size());
       ++i) {
    // `<=` so the most recent arrival among equals is the victim: shedding
    // prefers to undo the newest admission decision, not starve the oldest.
    if (lowest < 0 ||
        queue_[static_cast<std::size_t>(i)]->request().priority <=
            queue_[static_cast<std::size_t>(lowest)]->request().priority) {
      lowest = i;
    }
  }
  return lowest;
}

RequestQueue::Admission RequestQueue::try_enqueue(const TicketPtr& ticket,
                                                  double est_service_ms) {
  Admission result;
  const Clock::time_point now = Clock::now();
  MutexLock lock(mutex_);
  if (draining_) {
    result.status = Status::kShuttingDown;
    return result;
  }
  // Reject-on-unmeetable-deadline: already expired, or provably unmeetable
  // under the current service-time estimate even if service started now.
  if (ticket->expired(now) ||
      (est_service_ms > 0.0 &&
       ticket->deadline() != Clock::time_point::max() &&
       now + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(est_service_ms)) >
           ticket->deadline())) {
    result.status = Status::kDeadlineExceeded;
    return result;
  }
  purge_expired_locked(now, &result.expired);

  const int level = level_locked();
  if (level >= 2) {
    const std::ptrdiff_t lowest = lowest_priority_locked();
    const int incoming = ticket->request().priority;
    if (level == 3) {
      // Rung 3: full. Evict a strictly lower-priority entry or reject.
      if (lowest >= 0 &&
          queue_[static_cast<std::size_t>(lowest)]->request().priority <
              incoming) {
        result.shed.push_back(queue_[static_cast<std::size_t>(lowest)]);
        queue_.erase(queue_.begin() + lowest);
      } else {
        result.status = Status::kRejected;
        note_level_locked();
        return result;
      }
    } else {
      // Rung 2: room remains, but only arrivals that beat the lowest queued
      // priority may take it — background traffic is degraded first.
      if (lowest >= 0 &&
          queue_[static_cast<std::size_t>(lowest)]->request().priority >=
              incoming) {
        result.status = Status::kRejected;
        note_level_locked();
        return result;
      }
    }
  }
  queue_.push_back(ticket);
  note_level_locked();
  cv_.notify_one();
  return result;
}

void RequestQueue::collect_locked(const TicketPtr& seed,
                                  std::int64_t max_batch, std::int64_t* total,
                                  std::vector<TicketPtr>* batch,
                                  std::vector<TicketPtr>* expired,
                                  Clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->expired(now)) {
      expired->push_back(*it);
      it = queue_.erase(it);
      continue;
    }
    const std::int64_t samples = (*it)->request().problem.batch();
    if (coalescible(seed->request(), (*it)->request()) &&
        *total + samples <= max_batch) {
      batch->push_back(*it);
      *total += samples;
      it = queue_.erase(it);
      continue;
    }
    ++it;
  }
}

std::vector<TicketPtr> RequestQueue::next_batch(
    std::int64_t window_us, std::int64_t max_batch, double est_service_ms,
    std::vector<TicketPtr>* expired) {
  std::vector<TicketPtr> batch;
  MutexLock lock(mutex_);
  TicketPtr seed;
  while (seed == nullptr) {
    const Clock::time_point now = Clock::now();
    purge_expired_locked(now, expired);
    if (!queue_.empty()) {
      seed = queue_.front();
      queue_.pop_front();
      break;
    }
    // A purge must reach the caller NOW, not after the next batch: going
    // back to sleep would sit on the expired tickets until new traffic
    // happens to wake this worker — which at the tail of a load burst is
    // never, leaving their clients waiting past the deadline forever.
    if (!expired->empty()) return batch;
    if (draining_) return batch;
    cv_.wait(mutex_);
  }
  batch.push_back(seed);
  std::int64_t total = seed->request().problem.batch();
  collect_locked(seed, max_batch, &total, &batch, expired, Clock::now());

  // Hold the batch open for stragglers — but never past the point where the
  // tightest member deadline (minus the service-time estimate) is at risk,
  // and never once the queue starts draining. Members collected during the
  // wait tighten the window too: a late joiner with a tight deadline must
  // not be held past its own latest viable start.
  Clock::time_point window_end =
      Clock::now() + std::chrono::microseconds(window_us);
  std::size_t tightened = 0;
  const auto tighten_window = [&] {
    for (; tightened < batch.size(); ++tightened) {
      const TicketPtr& member = batch[tightened];
      if (member->deadline() != Clock::time_point::max()) {
        const Clock::time_point latest_start =
            member->deadline() -
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(est_service_ms));
        window_end = std::min(window_end, latest_start);
      }
    }
  };
  tighten_window();
  while (total < max_batch && !draining_) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        window_end - Clock::now());
    if (left.count() <= 0) break;
    cv_.wait_for_us(mutex_, left.count());
    collect_locked(seed, max_batch, &total, &batch, expired, Clock::now());
    tighten_window();
  }
  note_level_locked();
  return batch;
}

std::vector<TicketPtr> RequestQueue::close() {
  std::vector<TicketPtr> leftovers;
  MutexLock lock(mutex_);
  draining_ = true;
  leftovers.assign(queue_.begin(), queue_.end());
  queue_.clear();
  note_level_locked();
  cv_.notify_all();
  return leftovers;
}

bool RequestQueue::draining() const {
  MutexLock lock(mutex_);
  return draining_;
}

std::size_t RequestQueue::depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

int RequestQueue::overload_level() const {
  MutexLock lock(mutex_);
  return level_locked();
}

}  // namespace ucudnn::serve
