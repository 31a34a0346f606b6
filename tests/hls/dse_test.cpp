// Tests for automated design-space exploration: the sweep must contain the
// paper's design points, the Pareto front must be consistent, and the
// "smallest design meeting the 20-cycle throughput goal" query must
// reproduce the paper's design decision (section 5: "the algorithm should
// take 20 or fewer cycles").
#include <gtest/gtest.h>

#include "hls/dse.h"
#include "qam/decoder_ir.h"

namespace hlsw::hls {
namespace {

using qam::build_qam_decoder_ir;

TEST(Dse, SweepCoversThePaperDesignPoints) {
  DseOptions opts;
  const DseResult r = explore(build_qam_decoder_ir(), opts,
                              TechLibrary::asic90());
  ASSERT_FALSE(r.points.empty());
  // The paper's 69- and 35-cycle points must appear.
  bool found69 = false, found35 = false;
  for (const auto& p : r.points) {
    if (p.latency_cycles == 69) found69 = true;
    if (p.latency_cycles == 35) found35 = true;
  }
  EXPECT_TRUE(found69) << "sequential baseline missing from the sweep";
  EXPECT_TRUE(found35) << "merged default missing from the sweep";
}

TEST(Dse, ParetoFrontIsConsistent) {
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const auto front = r.pareto_front();
  ASSERT_GE(front.size(), 2u);
  // Front must be strictly improving in latency and strictly degrading in
  // area when sorted by latency.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i]->latency_cycles, front[i - 1]->latency_cycles);
    EXPECT_LT(front[i]->area, front[i - 1]->area);
  }
  // No non-pareto point may dominate a pareto point.
  for (const auto& p : r.points) {
    if (p.pareto) continue;
    for (const auto* q : front) {
      const bool dominates = p.latency_cycles <= q->latency_cycles &&
                             p.area <= q->area &&
                             (p.latency_cycles < q->latency_cycles ||
                              p.area < q->area);
      EXPECT_FALSE(dominates) << p.name << " dominates " << q->name;
    }
  }
}

TEST(Dse, ReproducesThePaperDesignDecision) {
  // Paper section 5: the 5 MBaud target needs <= 20 cycles; the chosen
  // implementation is the merged+U2 19-cycle design. The DSE query must
  // return a design meeting the bound, cheaper than the fastest point.
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const DsePoint* pick = r.smallest_within(20);
  ASSERT_NE(pick, nullptr);
  EXPECT_LE(pick->latency_cycles, 20);
  const DsePoint* fastest = r.fastest();
  ASSERT_NE(fastest, nullptr);
  EXPECT_LE(fastest->latency_cycles, pick->latency_cycles);
  EXPECT_LE(pick->area, fastest->area)
      << "the throughput-constrained pick must not cost more than the "
         "fastest design";
}

TEST(Dse, FastestAndSmallestAreExtremes) {
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const DsePoint* fastest = r.fastest();
  const DsePoint* smallest = r.smallest();
  for (const auto& p : r.points) {
    EXPECT_GE(p.latency_cycles, fastest->latency_cycles);
    EXPECT_GE(p.area, smallest->area);
  }
}

TEST(Dse, RespectsConfigCap) {
  DseOptions opts;
  opts.max_configs = 3;
  const DseResult r = explore(build_qam_decoder_ir(), opts,
                              TechLibrary::asic90());
  EXPECT_LE(r.points.size(), 3u);
}

TEST(Dse, CandidatesPastTheCapLeaveNoPruneRecords) {
  // The redirect-heavy axes at 3 ns under a cap that binds early: a
  // redirect record describes a row, so every record must name one.
  DseOptions opts;
  opts.clock_period_ns = 3.0;
  opts.unroll_factors = {1, 2, 4, 8, 16};
  opts.pipeline_iis = {0, 1, 2, 3};
  opts.prune = true;
  opts.max_configs = 8;
  const DseResult r = explore(build_qam_decoder_ir(), opts,
                              TechLibrary::asic90());
  EXPECT_LE(r.points.size(), 8u);
  ASSERT_FALSE(r.pruned.empty());
  for (const DsePruned& p : r.pruned) {
    bool has_row = false;
    for (const DsePoint& pt : r.points) has_row = has_row || pt.name == p.name;
    EXPECT_TRUE(has_row) << p.kind << " record '" << p.name << "' has no row";
  }
  EXPECT_EQ(r.pruned.size(), r.pruned_infeasible);
}

}  // namespace
}  // namespace hlsw::hls
