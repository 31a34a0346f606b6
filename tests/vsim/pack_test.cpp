// Lane-packing semantics: running N stimulus streams through one PackedSim
// must be bit-identical to N scalar CompiledSim runs of the same streams —
// values, array state AND the event/NBA accounting summed over lanes. The
// stimulus is deliberately divergent (a data-dependent if, a case dispatch
// and per-lane memory indices all disagree across lanes), so the masked
// context-splitting path is exercised, not just lockstep execution. The
// sweep-level variant proves vsim_sweep with lanes > 1 returns the same
// CosimResult (ok, blocks, mismatch list) as the scalar sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;

// A small FSM whose control flow depends on the data: lanes fed different
// x/y take different branches of the if AND different case arms, write
// different memory elements, and flip q[0] every cycle (a bit-select NBA).
const char* kDivergeSrc = R"(
module diverge(input wire clk, input wire rst,
               input wire [7:0] x, input wire [7:0] y,
               output reg [15:0] q, output reg [7:0] mem_out);
  reg [7:0] mem [0:7];
  reg [2:0] state;
  wire [15:0] sum;
  assign sum = q + {8'b0, x};
  always @(posedge clk) begin
    if (rst) begin
      q <= 0; state <= 0; mem_out <= 0;
    end else begin
      case (state)
        0: begin
          if (x > 8'd5) q <= sum;
          else q <= q - 16'd1;
          state <= 1;
        end
        1: begin
          mem[x[2:0]] <= y;
          state <= 2;
        end
        2: begin
          mem_out <= mem[y[2:0]];
          if (y[0]) state <= 0;
          else state <= 1;
        end
        default: state <= 0;
      endcase
      q[0] <= ~q[0];
    end
  end
endmodule
)";

// Deterministic per-lane stimulus that disagrees across lanes every step.
std::uint64_t stim(int lane, int step, int which) {
  return static_cast<std::uint64_t>((lane * 37 + step * 13 + which * 7) %
                                    256);
}

TEST(PackedLanes, DivergentStimulusBitIdenticalToScalarRuns) {
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const int kLanes = 8, kSteps = 50;
  const int h_clk = design->find("clk"), h_rst = design->find("rst");
  const int h_x = design->find("x"), h_y = design->find("y");
  const int h_q = design->find("q"), h_mo = design->find("mem_out");
  const int h_mem = design->find("mem");

  // Scalar reference: one fresh CompiledSim per lane.
  std::vector<std::uint64_t> sq(kLanes), smo(kLanes);
  std::vector<std::vector<std::uint64_t>> smem(
      kLanes, std::vector<std::uint64_t>(8));
  long long sum_ev = 0, sum_nba = 0;
  for (int l = 0; l < kLanes; ++l) {
    CompiledSim sim(plan, {});
    auto tick = [&] {
      sim.poke(h_clk, 1);
      sim.settle();
      sim.poke(h_clk, 0);
      sim.settle();
    };
    sim.poke(h_clk, 0);
    sim.poke(h_rst, 1);
    tick();
    sim.poke(h_rst, 0);
    for (int s = 0; s < kSteps; ++s) {
      sim.poke(h_x, stim(l, s, 0));
      sim.poke(h_y, stim(l, s, 1));
      tick();
    }
    sq[static_cast<std::size_t>(l)] = sim.peek(h_q);
    smo[static_cast<std::size_t>(l)] = sim.peek(h_mo);
    for (int e = 0; e < 8; ++e)
      smem[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)] =
          sim.peek_elem(h_mem, e);
    sum_ev += sim.stats().events;
    sum_nba += sim.stats().nba_commits;
  }

  // Packed run of the same streams, per-lane pokes through one engine.
  PackedSim ps(plan, kLanes, {});
  auto ptick = [&] {
    ps.poke(h_clk, 1, ps.full_mask());
    ps.settle();
    ps.poke(h_clk, 0, ps.full_mask());
    ps.settle();
  };
  ps.poke(h_clk, 0, ps.full_mask());
  ps.poke(h_rst, 1, ps.full_mask());
  ptick();
  ps.poke(h_rst, 0, ps.full_mask());
  for (int s = 0; s < kSteps; ++s) {
    for (int l = 0; l < kLanes; ++l) {
      ps.poke_lane(h_x, l, stim(l, s, 0));
      ps.poke_lane(h_y, l, stim(l, s, 1));
    }
    ptick();
  }

  for (int l = 0; l < kLanes; ++l) {
    EXPECT_EQ(ps.peek(h_q, l), sq[static_cast<std::size_t>(l)])
        << "lane " << l << " q diverged";
    EXPECT_EQ(ps.peek(h_mo, l), smo[static_cast<std::size_t>(l)])
        << "lane " << l << " mem_out diverged";
    for (int e = 0; e < 8; ++e)
      EXPECT_EQ(ps.peek_elem(h_mem, e, l),
                smem[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)])
          << "lane " << l << " mem[" << e << "] diverged";
  }
  // The accounting is part of the contract: packed stats are the SUM of
  // the per-lane scalar stats (delta_cycles is shared, so excluded).
  EXPECT_EQ(ps.stats().events, sum_ev);
  EXPECT_EQ(ps.stats().nba_commits, sum_nba);
  // The stimulus disagrees across lanes, so the masked-context machinery
  // must actually have split — lockstep-only execution would be vacuous.
  EXPECT_GT(ps.divergence_splits(), 0);
}

// The generated lane-major engine (packed_codegen) must be bit-identical
// to the interpreted context-splitting engine — not just outputs and array
// state, but the full accounting contract: events, NBA commits, executed
// instructions AND the divergence-split count. Any drift here means the
// mask-predicated generated code resolves branches differently than the
// interpreter's explicit context splits.
// The generated engine against the interpreted oracle at one lane (the
// engine Simulation runs), a partial lane word and the full 64-lane word.
TEST(PackedLanes, PackedCodegenBitIdenticalToInterpretedOracle) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const int kSteps = 50;
  const int h_clk = design->find("clk"), h_rst = design->find("rst");
  const int h_x = design->find("x"), h_y = design->find("y");
  const int h_q = design->find("q"), h_mo = design->find("mem_out");
  const int h_mem = design->find("mem");

  for (const int lanes : {1, 8, 64}) {
    SCOPED_TRACE("lanes = " + std::to_string(lanes));
    // Force each tier explicitly: kCompiled pins the interpreted packed
    // engine as the oracle; kPackedCodegen demands the generated one (a
    // fallback would show up as backend() != "packed_codegen").
    SimConfig interp_cfg;
    interp_cfg.backend = Backend::kCompiled;
    PackedSim oracle(plan, lanes, interp_cfg);

    auto mod = packed_codegen_plan(plan, lanes, &why);
    ASSERT_NE(mod, nullptr) << why;
    SimConfig cg_cfg;
    cg_cfg.backend = Backend::kPackedCodegen;
    PackedCodegenSim cg(mod, cg_cfg);
    ASSERT_STREQ(cg.backend(), "packed_codegen");

    auto drive = [&](PackedEngine& ps) {
      auto ptick = [&] {
        ps.poke(h_clk, 1, ps.full_mask());
        ps.settle();
        ps.poke(h_clk, 0, ps.full_mask());
        ps.settle();
      };
      ps.poke(h_clk, 0, ps.full_mask());
      ps.poke(h_rst, 1, ps.full_mask());
      ptick();
      ps.poke(h_rst, 0, ps.full_mask());
      for (int s = 0; s < kSteps; ++s) {
        for (int l = 0; l < lanes; ++l) {
          ps.poke_lane(h_x, l, stim(l, s, 0));
          ps.poke_lane(h_y, l, stim(l, s, 1));
        }
        ptick();
      }
    };
    drive(oracle);
    drive(cg);

    for (int l = 0; l < lanes; ++l) {
      EXPECT_EQ(cg.peek(h_q, l), oracle.peek(h_q, l))
          << "lane " << l << " q diverged from the interpreted oracle";
      EXPECT_EQ(cg.peek(h_mo, l), oracle.peek(h_mo, l))
          << "lane " << l << " mem_out diverged from the interpreted oracle";
      for (int e = 0; e < 8; ++e)
        EXPECT_EQ(cg.peek_elem(h_mem, e, l), oracle.peek_elem(h_mem, e, l))
            << "lane " << l << " mem[" << e << "] diverged";
    }
    EXPECT_EQ(cg.peek_nonzero_mask(h_q), oracle.peek_nonzero_mask(h_q));
    EXPECT_EQ(cg.peek_nonzero_mask(h_mo), oracle.peek_nonzero_mask(h_mo));
    EXPECT_EQ(cg.stats().events, oracle.stats().events);
    EXPECT_EQ(cg.stats().nba_commits, oracle.stats().nba_commits);
    EXPECT_EQ(cg.stats().instrs, oracle.stats().instrs);
    EXPECT_EQ(cg.divergence_splits(), oracle.divergence_splits());
    // One lane cannot diverge; wider words must have split.
    if (lanes == 1)
      EXPECT_EQ(cg.divergence_splits(), 0);
    else
      EXPECT_GT(cg.divergence_splits(), 0);
  }
}

TEST(PackedLanes, PlanePokesAndNonzeroMaskMatchLaneAccessors) {
  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const int h_x = design->find("x"), h_clk = design->find("clk");

  const int kLanes = 5;  // odd count: the partial-mask paths
  PackedSim a(plan, kLanes, {});
  PackedSim b(plan, kLanes, {});
  std::uint64_t plane[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    plane[l] = stim(l, 3, 0);
    a.poke_lane(h_x, l, plane[l]);
  }
  b.poke_plane(h_x, plane, b.full_mask());
  a.poke(h_clk, 1, a.full_mask());
  b.poke(h_clk, 1, b.full_mask());
  a.settle();
  b.settle();

  std::uint64_t want_nz = 0;
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_EQ(a.peek(h_x, l), b.peek(h_x, l)) << "lane " << l;
    if (a.peek(h_x, l) != 0) want_nz |= 1ULL << l;
  }
  EXPECT_EQ(b.peek_nonzero_mask(h_x), want_nz);
  EXPECT_EQ(a.stats().events, b.stats().events);
}

// Sweep-level contract: lanes > 1 must be invisible in the CosimResult.
TEST(PackedLanes, PackedSweepMatchesScalarSweepOnDecoder) {
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  qam::LinkStimulus s((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&s, 70);

  // 7 blocks of 10 symbols over 5 lanes: one full batch plus a partial
  // one, so the tail path (fewer blocks than lanes) is covered too.
  const hls::CosimResult scalar = vsim_sweep(
      r.transformed, r.schedule, vectors, {.block_size = 10, .lanes = 1});
  const hls::CosimResult packed = vsim_sweep(
      r.transformed, r.schedule, vectors, {.block_size = 10, .lanes = 5});
  EXPECT_TRUE(scalar.ok())
      << (scalar.mismatches.empty() ? "" : scalar.mismatches.front());
  EXPECT_TRUE(packed.ok())
      << (packed.mismatches.empty() ? "" : packed.mismatches.front());
  EXPECT_EQ(packed.vectors, scalar.vectors);
  EXPECT_EQ(packed.blocks, scalar.blocks);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);

  // Thread-pooled packed sweep: batches shard across workers, results must
  // still merge deterministically.
  const hls::CosimResult pooled =
      vsim_sweep(r.transformed, r.schedule, vectors,
                 {.threads = 2, .block_size = 10, .lanes = 4});
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.blocks, scalar.blocks);
  EXPECT_EQ(pooled.mismatches, scalar.mismatches);
}

TEST(PackedLanes, PackedSweepCountsDivergenceSplitsInMetrics) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const double splits0 =
      m.counter_value("vsim.packed.divergence_splits");

  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  {
    PackedSim ps(plan, 4, {});
    const int h_clk = design->find("clk"), h_rst = design->find("rst");
    const int h_x = design->find("x"), h_y = design->find("y");
    ps.poke(h_rst, 1, ps.full_mask());
    ps.poke(h_clk, 1, ps.full_mask());
    ps.settle();
    ps.poke(h_clk, 0, ps.full_mask());
    ps.settle();
    ps.poke(h_rst, 0, ps.full_mask());
    for (int s = 0; s < 10; ++s) {
      for (int l = 0; l < 4; ++l) {
        ps.poke_lane(h_x, l, stim(l, s, 0));
        ps.poke_lane(h_y, l, stim(l, s, 1));
      }
      ps.poke(h_clk, 1, ps.full_mask());
      ps.settle();
      ps.poke(h_clk, 0, ps.full_mask());
      ps.settle();
    }
    EXPECT_GT(ps.divergence_splits(), 0);
  }  // metrics flush on destruction
  EXPECT_GT(m.counter_value("vsim.packed.divergence_splits"), splits0);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace hlsw::vsim
