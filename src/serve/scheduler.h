// Fair multi-tenant work scheduler for the serve daemon.
//
// Every accepted request becomes one or more work units (closures). Units
// are queued per tenant and handed to worker threads by round-robin: the
// scheduler visits the tenants with queued work in turn, one unit per
// visit. A tenant that floods the daemon therefore delays only its own
// jobs — every other tenant still gets its share of worker time. A tenant
// exists only while it has queued units: the scheduler forgets it when its
// queue drains and re-admits it at the back of the rotation on its next
// push, so distinct tenant names cost nothing once served.
//
// Backpressure is explicit and typed: push() refuses with kBusy once the
// tenant's queue holds max_queue_depth units, and the server turns that
// into a `busy` error response. Nothing is ever silently dropped — every
// accepted unit runs exactly once, every refused push is answered.
//
// push_unbounded() exists for INTERNAL units: a running DSE job shards
// itself into per-candidate synthesis closures, and those must never be
// refused (the coordinator already holds the job slot; bouncing its
// sub-units would deadlock it against its own backpressure). They bypass
// the depth cap but still schedule through the same per-tenant queues, so
// a giant sweep competes fairly with other tenants' work. Once draining
// starts push_unbounded() returns false and the coordinator runs the unit
// inline — race-free, because draining is decided under the same lock that
// makes pop() return false only on drained-and-empty.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include <condition_variable>

namespace hlsw::serve {

struct SchedulerOptions {
  // Per-tenant cap on queued external jobs; push() answers kBusy beyond it.
  std::size_t max_queue_depth = 64;
};

enum class PushStatus { kAccepted, kBusy, kStopped };

class FairScheduler {
 public:
  explicit FairScheduler(SchedulerOptions opts = {});

  // Enqueues one external work unit for `tenant`. kBusy when the tenant's
  // queue is at max_queue_depth, kStopped after drain() began.
  PushStatus push(const std::string& tenant, std::function<void()> unit);

  // Enqueues an internal (job-sharded) unit, ignoring the depth cap.
  // Returns false once draining — the caller must then run `unit` inline.
  bool push_unbounded(const std::string& tenant, std::function<void()> unit);

  // Blocks for the next unit in round-robin order. Returns false exactly
  // when draining AND every queue is empty — the worker-exit condition; no
  // accepted unit is ever abandoned.
  bool pop(std::function<void()>* unit);

  // Stops accepting work and wakes blocked poppers; already-queued units
  // still drain through pop().
  void drain();
  bool draining() const;

  // Snapshot of the queue depths of the tenants with queued units (for the
  // metrics op).
  std::map<std::string, std::size_t> queue_depths() const;
  std::size_t total_depth() const;

 private:
  using Queue = std::deque<std::function<void()>>;

  // Returns the tenant's queue, creating it (and appending the tenant to
  // the rotation) when the tenant has none. Caller holds mu_.
  Queue& queue_locked(const std::string& tenant);

  SchedulerOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Queue> queues_;  // non-empty once pushed
  std::deque<std::string> rotation_;  // tenants in queues_, next served first
  std::size_t queued_ = 0;            // total units across all queues
  bool draining_ = false;
};

}  // namespace hlsw::serve
