// Performance and coverage guard for feasibility pruning in explore()
// (labeled bench_smoke in ctest), on the redirect-heavy axes: a tight
// clock, unrolled MAC loops and a dense pipeline-II axis. The guard pins
// what pruning is contracted to deliver:
//
//   * the Pareto front is identical with pruning on and off;
//   * pruning never schedules MORE configurations (redirects collapse
//     below-floor II requests onto their clamped twins);
//   * the full-width pruned sweep covers the whole space — strictly more
//     rows than the truncated 256-row sweep reaches;
//   * the candidate analysis is cheap: the pruned full-width sweep stays
//     within 2x the wall of the unpruned one (measured ~1.3x; the slack
//     absorbs CI noise while still catching the analysis regressing to
//     schedule-like cost — a real schedule per candidate would be >5x).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "hls/dse.h"
#include "hls/synth_cache.h"
#include "hls/tech.h"
#include "qam/decoder_ir.h"

namespace hlsw::hls {
namespace {

DseOptions axes(int max_configs, bool prune) {
  DseOptions o;
  o.clock_period_ns = 3.0;
  o.unroll_factors = {1, 2, 4, 8, 16};
  o.pipeline_iis = {0, 1, 2, 3};
  o.threads = 1;
  o.max_configs = max_configs;
  o.prune = prune;
  return o;
}

// Wall time of one cold sweep (a fresh synthesis cache).
double sweep_ms(const Function& f, const TechLibrary& tech, DseOptions opts,
                DseResult* out) {
  opts.cache = std::make_shared<SynthesisCache>();
  const auto t0 = std::chrono::steady_clock::now();
  *out = explore(f, opts, tech);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void expect_same_front(const DseResult& a, const DseResult& b) {
  const auto fa = a.pareto_front();
  const auto fb = b.pareto_front();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i]->name, fb[i]->name);
    EXPECT_EQ(fa[i]->latency_cycles, fb[i]->latency_cycles);
    EXPECT_EQ(fa[i]->area, fb[i]->area);
  }
}

TEST(DsePruneGuard, PruningKeepsTheFrontCutsSchedulesAndStaysCheap) {
  const Function f = qam::build_qam_decoder_ir();
  const TechLibrary tech = TechLibrary::asic90();

  DseResult off256, on256, off1024, on1024;
  sweep_ms(f, tech, axes(256, false), &off256);
  sweep_ms(f, tech, axes(256, true), &on256);
  // The timed legs alternate rep by rep, and each keeps its best of 5, so
  // a neighbour's load lands on both legs instead of on one block of reps.
  double wall_off = 1e300, wall_on = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    wall_off =
        std::min(wall_off, sweep_ms(f, tech, axes(1024, false), &off1024));
    wall_on =
        std::min(wall_on, sweep_ms(f, tech, axes(1024, true), &on1024));
  }

  // Pruning is metrics-invisible: identical fronts at both widths.
  expect_same_front(off256, on256);
  expect_same_front(off1024, on1024);

  // These axes exercise the redirect path; the sweep must stay capped at
  // the narrow width and overflow it at the full width (the extra rows
  // are exactly what the unpruned 256-row sweep never reaches).
  EXPECT_EQ(off256.points.size(), 256u);
  EXPECT_GT(on1024.points.size(), 256u);
  EXPECT_GT(on1024.pruned_infeasible, 0u);

  // Redirects collapse schedules, never add them.
  EXPECT_LE(on256.cache_misses, off256.cache_misses);
  EXPECT_LE(on1024.cache_misses, off1024.cache_misses);
  EXPECT_LT(on256.cache_misses, 256u);  // at least one collapse happened

  // The candidate analysis must stay far below schedule cost.
  EXPECT_LE(wall_on, wall_off * 2.0)
      << "pruned full sweep " << wall_on << " ms vs unpruned " << wall_off
      << " ms";
}

}  // namespace
}  // namespace hlsw::hls
