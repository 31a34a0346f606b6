// FairScheduler semantics: deterministic round-robin order, typed
// backpressure, the push_unbounded bypass for job-internal shards, the
// drain contract (every accepted unit runs, then poppers exit) and that a
// drained tenant leaves nothing behind.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.h"

namespace hlsw::serve {
namespace {

// Single-consumer pops observe the round-robin schedule exactly: one unit
// per tenant per visit.
TEST(FairScheduler, EqualWeightsAlternate) {
  FairScheduler sched;
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i)
    sched.push("x", [&order] { order.push_back("x"); });
  for (int i = 0; i < 3; ++i)
    sched.push("y", [&order] { order.push_back("y"); });
  std::function<void()> unit;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(sched.pop(&unit));
    unit();
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"x", "y", "x", "y", "x", "y"}));
}

TEST(FairScheduler, PushRefusesBeyondDepthCapWithTypedStatus) {
  SchedulerOptions opts;
  opts.max_queue_depth = 2;
  FairScheduler sched(opts);
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kAccepted);
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kAccepted);
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kBusy);
  // Another tenant's budget is untouched — backpressure is per tenant.
  EXPECT_EQ(sched.push("u", [] {}), PushStatus::kAccepted);
  // Draining one unit frees one slot.
  std::function<void()> unit;
  ASSERT_TRUE(sched.pop(&unit));
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kAccepted);
}

TEST(FairScheduler, PushUnboundedBypassesTheCap) {
  SchedulerOptions opts;
  opts.max_queue_depth = 1;
  FairScheduler sched(opts);
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kAccepted);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(sched.push_unbounded("t", [] {}));
  EXPECT_EQ(sched.total_depth(), 65u);
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kBusy);
}

TEST(FairScheduler, DrainRunsEveryAcceptedUnitThenReleasesPoppers) {
  FairScheduler sched;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i)
    sched.push("t", [&ran] { ran.fetch_add(1); });
  sched.drain();
  EXPECT_EQ(sched.push("t", [] {}), PushStatus::kStopped);
  EXPECT_FALSE(sched.push_unbounded("t", [] {}));
  std::function<void()> unit;
  int popped = 0;
  while (sched.pop(&unit)) {
    unit();
    ++popped;
  }
  EXPECT_EQ(popped, 10);
  EXPECT_EQ(ran.load(), 10);
  EXPECT_FALSE(sched.pop(&unit));  // stays drained
}

// Many producers and consumers: every accepted unit runs exactly once —
// nothing lost, nothing duplicated — and blocked poppers exit on drain.
TEST(FairScheduler, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  SchedulerOptions opts;
  opts.max_queue_depth = kPerProducer * 2;
  FairScheduler sched(opts);

  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  for (auto& r : runs) r.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&sched] {
      std::function<void()> unit;
      while (sched.pop(&unit)) unit();
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&sched, &runs, p] {
      const std::string tenant = "tenant" + std::to_string(p);
      for (int i = 0; i < kPerProducer; ++i) {
        auto* slot = &runs[p * kPerProducer + i];
        ASSERT_EQ(sched.push(tenant, [slot] { slot->fetch_add(1); }),
                  PushStatus::kAccepted);
      }
    });
  for (auto& t : producers) t.join();
  sched.drain();
  for (auto& t : consumers) t.join();

  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(sched.total_depth(), 0u);
}

// A tenant exists only while it has queued units: distinct tenant names,
// pushed and drained, leave no per-tenant state behind, and a drained
// tenant that comes back rejoins the rotation behind the waiting ones.
TEST(FairScheduler, DrainedTenantsAreForgotten) {
  FairScheduler sched;
  constexpr int kTenants = 100;
  for (int t = 0; t < kTenants; ++t)
    ASSERT_EQ(sched.push("tenant" + std::to_string(t), [] {}),
              PushStatus::kAccepted);
  EXPECT_EQ(sched.queue_depths().size(), static_cast<std::size_t>(kTenants));
  std::function<void()> unit;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(sched.pop(&unit));
    unit();
  }
  EXPECT_TRUE(sched.queue_depths().empty());
  EXPECT_EQ(sched.total_depth(), 0u);

  std::vector<std::string> order;
  sched.push("a", [&order] { order.push_back("a"); });
  sched.push("a", [&order] { order.push_back("a"); });
  sched.push("b", [&order] { order.push_back("b"); });
  ASSERT_TRUE(sched.pop(&unit));  // a
  unit();
  ASSERT_TRUE(sched.pop(&unit));  // b, which drains and is forgotten
  unit();
  sched.push("b", [&order] { order.push_back("b"); });
  sched.push("c", [&order] { order.push_back("c"); });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.pop(&unit));
    unit();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "c"}));
  EXPECT_TRUE(sched.queue_depths().empty());
}

TEST(FairScheduler, QueueDepthsSnapshotPerTenant) {
  FairScheduler sched;
  sched.push("a", [] {});
  sched.push("a", [] {});
  sched.push("b", [] {});
  const auto depths = sched.queue_depths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths.at("a"), 2u);
  EXPECT_EQ(depths.at("b"), 1u);
}

}  // namespace
}  // namespace hlsw::serve
