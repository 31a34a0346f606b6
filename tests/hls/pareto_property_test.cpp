// Property-style tests for the DseResult views over randomized point
// clouds: mark_pareto() must flag exactly the non-dominated set,
// pareto_front() must be sorted and complete, fastest()/smallest() must be
// true extremes, and smallest_within() must respect its latency bound and
// return nullptr when the bound is infeasible.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "hls/dse.h"

namespace hlsw::hls {
namespace {

bool dominates(const DsePoint& a, const DsePoint& b) {
  return a.latency_cycles <= b.latency_cycles && a.area <= b.area &&
         (a.latency_cycles < b.latency_cycles || a.area < b.area);
}

DseResult random_cloud(std::mt19937_64& rng, int n) {
  // Small ranges on purpose: collisions and exact ties must occur so the
  // tie-break paths are exercised.
  std::uniform_int_distribution<int> lat(1, 40);
  std::uniform_int_distribution<int> area(1, 30);
  DseResult r;
  rng.discard(1);  // keeps every cloud as it was when a seed was drawn here
  for (int i = 0; i < n; ++i) {
    DsePoint p;
    p.name = "p" + std::to_string(i);
    p.latency_cycles = lat(rng);
    p.latency_ns = p.latency_cycles * 10.0;
    p.area = 100.0 * area(rng);
    r.points.push_back(std::move(p));
  }
  mark_pareto(r.points);
  return r;
}

TEST(ParetoProperty, FrontMembersAreUndominatedAndNonMembersAreDominated) {
  std::mt19937_64 rng(20260805);
  for (int iter = 0; iter < 60; ++iter) {
    const DseResult r = random_cloud(rng, 3 + iter);
    for (const auto& p : r.points) {
      bool dominated = false;
      for (const auto& q : r.points)
        if (&p != &q && dominates(q, p)) dominated = true;
      EXPECT_EQ(p.pareto, !dominated) << p.name << " iter " << iter;
    }
  }
}

TEST(ParetoProperty, FrontIsCompleteSortedAndDeterministic) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 40; ++iter) {
    const DseResult r = random_cloud(rng, 50);
    const auto front = r.pareto_front();
    std::size_t flagged = 0;
    for (const auto& p : r.points)
      if (p.pareto) ++flagged;
    EXPECT_EQ(front.size(), flagged) << "front must contain every flagged point";
    for (std::size_t i = 1; i < front.size(); ++i) {
      EXPECT_GE(front[i]->latency_cycles, front[i - 1]->latency_cycles);
      if (front[i]->latency_cycles == front[i - 1]->latency_cycles) {
        EXPECT_GE(front[i]->area, front[i - 1]->area);
        // The sort is stable: exact ties keep their row order.
        if (front[i]->area == front[i - 1]->area) {
          EXPECT_GT(front[i], front[i - 1]);
        }
      }
    }
    // Calling twice gives the same order.
    const auto again = r.pareto_front();
    ASSERT_EQ(front.size(), again.size());
    for (std::size_t i = 0; i < front.size(); ++i)
      EXPECT_EQ(front[i], again[i]);
  }
}

TEST(ParetoProperty, FastestAndSmallestAreTrueExtremes) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 40; ++iter) {
    const DseResult r = random_cloud(rng, 30);
    const DsePoint* fastest = r.fastest();
    const DsePoint* smallest = r.smallest();
    ASSERT_NE(fastest, nullptr);
    ASSERT_NE(smallest, nullptr);
    for (const auto& p : r.points) {
      EXPECT_GE(p.latency_cycles, fastest->latency_cycles);
      if (p.latency_cycles == fastest->latency_cycles) {
        EXPECT_GE(p.area, fastest->area) << "fastest breaks ties on area";
      }
      EXPECT_GE(p.area, smallest->area);
    }
  }
}

TEST(ParetoProperty, SmallestWithinRespectsTheBound) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    const DseResult r = random_cloud(rng, 25);
    std::uniform_int_distribution<int> bound_dist(0, 45);
    const int bound = bound_dist(rng);
    const DsePoint* pick = r.smallest_within(bound);
    // Reference: linear scan.
    const DsePoint* expect = nullptr;
    for (const auto& p : r.points) {
      if (p.latency_cycles > bound) continue;
      if (!expect || p.area < expect->area) expect = &p;
    }
    if (!expect) {
      EXPECT_EQ(pick, nullptr) << "infeasible bound must return nullptr";
    } else {
      ASSERT_NE(pick, nullptr);
      EXPECT_LE(pick->latency_cycles, bound);
      EXPECT_EQ(pick->area, expect->area);
    }
  }
}

TEST(ParetoProperty, EmptyAndDegenerateClouds) {
  DseResult empty;
  EXPECT_TRUE(empty.pareto_front().empty());
  EXPECT_EQ(empty.fastest(), nullptr);
  EXPECT_EQ(empty.smallest(), nullptr);
  EXPECT_EQ(empty.smallest_within(std::numeric_limits<int>::max()), nullptr);

  // All-identical points: nobody dominates anybody, everyone is pareto.
  DseResult same;
  for (int i = 0; i < 5; ++i) {
    DsePoint p;
    p.name = "s" + std::to_string(i);
    p.latency_cycles = 10;
    p.area = 500.0;
    same.points.push_back(std::move(p));
  }
  mark_pareto(same.points);
  for (const auto& p : same.points) EXPECT_TRUE(p.pareto);
  EXPECT_EQ(same.pareto_front().size(), 5u);
  EXPECT_EQ(same.smallest_within(9), nullptr);
  ASSERT_NE(same.smallest_within(10), nullptr);
}

}  // namespace
}  // namespace hlsw::hls
