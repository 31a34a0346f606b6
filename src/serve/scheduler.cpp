#include "serve/scheduler.h"

namespace hlsw::serve {

FairScheduler::FairScheduler(SchedulerOptions opts) : opts_(opts) {
  if (opts_.max_queue_depth == 0) opts_.max_queue_depth = 1;
}

FairScheduler::Queue& FairScheduler::queue_locked(const std::string& tenant) {
  const auto [it, fresh] = queues_.try_emplace(tenant);
  if (fresh) rotation_.push_back(tenant);
  return it->second;
}

PushStatus FairScheduler::push(const std::string& tenant,
                               std::function<void()> unit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return PushStatus::kStopped;
    Queue& q = queue_locked(tenant);
    // A fresh queue is empty and the cap is >= 1, so a refused push never
    // leaves an empty queue behind.
    if (q.size() >= opts_.max_queue_depth) return PushStatus::kBusy;
    q.push_back(std::move(unit));
    ++queued_;
  }
  cv_.notify_one();
  return PushStatus::kAccepted;
}

bool FairScheduler::push_unbounded(const std::string& tenant,
                                   std::function<void()> unit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return false;
    queue_locked(tenant).push_back(std::move(unit));
    ++queued_;
  }
  cv_.notify_one();
  return true;
}

bool FairScheduler::pop(std::function<void()>* unit) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return queued_ > 0 || draining_; });
  if (queued_ == 0) return false;  // draining and empty: worker exits

  // Round-robin, one unit per visit: serve the tenant at the front of the
  // rotation, then move it to the back, or forget it when its queue is
  // empty. queued_ > 0 means the rotation is non-empty, and every tenant in
  // it has at least one unit.
  const auto it = queues_.find(rotation_.front());
  *unit = std::move(it->second.front());
  it->second.pop_front();
  --queued_;
  if (it->second.empty())
    queues_.erase(it);
  else
    rotation_.push_back(rotation_.front());
  rotation_.pop_front();
  return true;
}

void FairScheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

bool FairScheduler::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::map<std::string, std::size_t> FairScheduler::queue_depths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::size_t> out;
  for (const auto& [name, q] : queues_) out[name] = q.size();
  return out;
}

std::size_t FairScheduler::total_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace hlsw::serve
