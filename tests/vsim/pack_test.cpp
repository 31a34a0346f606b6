// Lane-packing semantics: running L stimulus streams through the native
// lane-packed engine must be bit-identical to L independent scalar
// CompiledSim runs of the same streams — values, array state AND the
// event/NBA/instruction accounting summed over lanes — and to L one-lane
// native runs. The stimulus is deliberately divergent (a data-dependent if,
// a case dispatch and per-lane memory indices all disagree across lanes),
// so the masked context-splitting path is exercised, not just lockstep
// execution. Tests of the native engine skip without a host toolchain; the
// per-lane Simulation engine is covered wherever it is the engine. The
// harness tests pin make_packed_engine's one rule: L event-kernel lanes
// equal L one-lane event runs, and one lane names its backend and
// fallback reason exactly as one Simulation does. The sweep-level variant
// proves vsim_sweep with lanes > 1 returns the same CosimResult (ok,
// blocks, mismatch list) as the one-lane sweep.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
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

struct Handles {
  explicit Handles(const Design& d)
      : clk(d.find("clk")), rst(d.find("rst")), x(d.find("x")),
        y(d.find("y")), q(d.find("q")), mo(d.find("mem_out")),
        mem(d.find("mem")) {}
  int clk, rst, x, y, q, mo, mem;
};

// What one lane ends with: q, mem_out and the eight memory words.
struct LaneState {
  std::uint64_t q = 0, mo = 0;
  std::array<std::uint64_t, 8> mem{};
  bool operator==(const LaneState&) const = default;
};

void PrintTo(const LaneState& s, std::ostream* os) {
  *os << "{q " << s.q << ", mem_out " << s.mo << ", mem";
  for (const std::uint64_t v : s.mem) *os << " " << v;
  *os << "}";
}

constexpr int kSteps = 50;

// The oracle: stimulus lane `lane` on its own fresh CompiledSim. Adds the
// run's counters to *sum.
LaneState scalar_run(const std::shared_ptr<const CompiledDesign>& plan,
                     const Handles& h, int lane, SimStats* sum) {
  CompiledSim sim(plan, {});
  auto tick = [&] {
    sim.poke(h.clk, 1);
    sim.settle();
    sim.poke(h.clk, 0);
    sim.settle();
  };
  sim.poke(h.clk, 0);
  sim.poke(h.rst, 1);
  tick();
  sim.poke(h.rst, 0);
  for (int s = 0; s < kSteps; ++s) {
    sim.poke(h.x, stim(lane, s, 0));
    sim.poke(h.y, stim(lane, s, 1));
    tick();
  }
  LaneState out{sim.peek(h.q), sim.peek(h.mo), {}};
  for (int e = 0; e < 8; ++e)
    out.mem[static_cast<std::size_t>(e)] = sim.peek_elem(h.mem, e);
  sum->events += sim.stats().events;
  sum->nba_commits += sim.stats().nba_commits;
  sum->instrs += sim.stats().instrs;
  return out;
}

// The same protocol on a packed engine, per-lane pokes through one engine:
// engine lane j replays stimulus lane first + j.
void drive(PackedEngine& ps, const Handles& h, int first = 0) {
  auto tick = [&] {
    ps.poke(h.clk, 1, ps.full_mask());
    ps.settle();
    ps.poke(h.clk, 0, ps.full_mask());
    ps.settle();
  };
  ps.poke(h.clk, 0, ps.full_mask());
  ps.poke(h.rst, 1, ps.full_mask());
  tick();
  ps.poke(h.rst, 0, ps.full_mask());
  for (int s = 0; s < kSteps; ++s) {
    for (int l = 0; l < ps.lanes(); ++l) {
      ps.poke_lane(h.x, l, stim(first + l, s, 0));
      ps.poke_lane(h.y, l, stim(first + l, s, 1));
    }
    tick();
  }
}

LaneState lane_state(const PackedEngine& ps, const Handles& h, int lane) {
  LaneState out{ps.peek(h.q, lane), ps.peek(h.mo, lane), {}};
  for (int e = 0; e < 8; ++e)
    out.mem[static_cast<std::size_t>(e)] = ps.peek_elem(h.mem, e, lane);
  return out;
}

// The generated engine, demanded explicitly: a fallback shows up as
// another backend() than "packed_codegen" (several lanes) or "codegen"
// (one lane, Simulation's native engine).
std::unique_ptr<PackedEngine> native_engine(
    const std::shared_ptr<const Design>& design, int lanes) {
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  std::string why;
  auto ps = make_packed_engine(design, lanes, cfg, &why);
  EXPECT_STREQ(ps->backend(), lanes == 1 ? "codegen" : "packed_codegen")
      << why;
  return ps;
}

TEST(PackedLanes, DivergentStimulusBitIdenticalToScalarRuns) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;
  const Handles h(*design);

  const int kLanes = 8;
  const auto ps = native_engine(design, kLanes);
  drive(*ps, h);
  SimStats sum;
  for (int l = 0; l < kLanes; ++l)
    EXPECT_EQ(lane_state(*ps, h, l), scalar_run(plan, h, l, &sum))
        << "lane " << l << " diverged from its scalar run";
  // The accounting is part of the contract: packed stats are the SUM of
  // the per-lane scalar stats.
  EXPECT_EQ(ps->stats().events, sum.events);
  EXPECT_EQ(ps->stats().nba_commits, sum.nba_commits);
  EXPECT_EQ(ps->stats().instrs, sum.instrs);
  // The stimulus disagrees across lanes, so the masked-context machinery
  // must actually have split — lockstep-only execution would be vacuous.
  EXPECT_GT(ps->divergence_splits(), 0);
}

// The native engine at one lane (Simulation's, through make_packed_engine),
// a partial lane word and the full 64-lane word, against L independent
// scalar CompiledSim runs and L one-lane native runs of the same streams:
// per-lane values and arrays, nonzero masks, and the counters summed over
// lanes.
TEST(PackedLanes, NativeLanesEqualScalarRuns) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;
  const Handles h(*design);

  for (const int lanes : {1, 8, 64}) {
    SCOPED_TRACE("lanes = " + std::to_string(lanes));
    const auto ps = native_engine(design, lanes);
    drive(*ps, h);
    SimStats sum, one_sum;
    std::uint64_t q_nz = 0, mo_nz = 0;
    for (int l = 0; l < lanes; ++l) {
      const LaneState want = scalar_run(plan, h, l, &sum);
      EXPECT_EQ(lane_state(*ps, h, l), want)
          << "lane " << l << " diverged from its scalar run";
      const auto one = native_engine(design, 1);
      drive(*one, h, l);
      EXPECT_EQ(lane_state(*one, h, 0), want)
          << "lane " << l << " diverged from its one-lane native run";
      one_sum.events += one->stats().events;
      one_sum.nba_commits += one->stats().nba_commits;
      one_sum.instrs += one->stats().instrs;
      if (want.q != 0) q_nz |= 1ULL << l;
      if (want.mo != 0) mo_nz |= 1ULL << l;
    }
    EXPECT_EQ(ps->peek_nonzero_mask(h.q), q_nz);
    EXPECT_EQ(ps->peek_nonzero_mask(h.mo), mo_nz);
    for (const SimStats* want : {&sum, &one_sum}) {
      EXPECT_EQ(ps->stats().events, want->events);
      EXPECT_EQ(ps->stats().nba_commits, want->nba_commits);
      EXPECT_EQ(ps->stats().instrs, want->instrs);
    }
    // One lane cannot diverge; wider words must have split.
    if (lanes == 1)
      EXPECT_EQ(ps->divergence_splits(), 0);
    else
      EXPECT_GT(ps->divergence_splits(), 0);
  }
}

// The lockstep fast paths: reads of a 6-entry array at the counter k
// (the same in every lane while every lane is clocked) and at x[2:0]
// (per lane), both in comb assigns (flushed every delta, since hk and hx
// copy them) and in the process, element NBAs at k and at y[2:0], and
// branches on k and on x[0]. Indices 6 and 7 fall outside the array, so
// both the zero row and the dropped element write are reached. A case on
// k dispatches every lane at once while k is uniform, and a case on
// x[1:0] ^ k[1:0] differs across lanes, under the full mask and under the
// clock-gated partial one. `done` rises on k == 1 in every lane, then
// follows x[3] at k == 3 and falls at k == 6, so the nonzero-lane poll
// sees all lanes low, all high and lanes that disagree.
const char* kLockstepSrc = R"(
module lockstep(input wire clk, input wire rst,
                input wire [7:0] x, input wire [7:0] y,
                output reg [7:0] acc, output reg [7:0] hk,
                output reg [7:0] hx, output wire [7:0] rk,
                output wire [7:0] rx, output reg [7:0] cs,
                output reg done);
  reg [7:0] mem [0:5];
  reg [2:0] k;
  assign rk = mem[k];
  assign rx = mem[x[2:0]];
  always @(posedge clk) begin
    if (rst) begin
      k <= 0; acc <= 0; hk <= 0; hx <= 0; cs <= 0; done <= 0;
    end else begin
      k <= k + 3'd1;
      hk <= rk;
      hx <= rx;
      mem[k] <= x ^ y;
      mem[y[2:0]] <= acc + x;
      if (k == 3'd2) acc <= acc + mem[k];
      else if (x[0]) acc <= acc ^ mem[x[2:0]];
      else acc <= acc - 8'd1;
      case (x[1:0] ^ k[1:0])
        2'd0: cs <= cs + 8'd1;
        2'd1: cs <= cs ^ y;
        2'd2: cs <= {cs[6:0], cs[7]};
        default: cs <= cs - x;
      endcase
      case (k)
        3'd1: done <= 1'b1;
        3'd3: done <= x[3];
        3'd6: done <= 1'b0;
        default: done <= done;
      endcase
    end
  end
endmodule
)";

struct LockstepHandles {
  explicit LockstepHandles(const Design& d)
      : clk(d.find("clk")), rst(d.find("rst")), x(d.find("x")),
        y(d.find("y")), acc(d.find("acc")), hk(d.find("hk")),
        hx(d.find("hx")), rk(d.find("rk")), rx(d.find("rx")),
        cs(d.find("cs")), done(d.find("done")), k(d.find("k")),
        mem(d.find("mem")) {}
  int clk, rst, x, y, acc, hk, hx, rk, rx, cs, done, k, mem;
};

struct LockstepState {
  std::uint64_t acc = 0, hk = 0, hx = 0, rk = 0, rx = 0, cs = 0, k = 0;
  std::array<std::uint64_t, 6> mem{};
  std::uint64_t done_steps = 0;  // bit s: done was high after step s
  bool operator==(const LockstepState&) const = default;
};

void PrintTo(const LockstepState& s, std::ostream* os) {
  *os << "{acc " << s.acc << ", hk " << s.hk << ", hx " << s.hx << ", rk "
      << s.rk << ", rx " << s.rx << ", cs " << s.cs << ", k " << s.k
      << ", mem";
  for (const std::uint64_t v : s.mem) *os << " " << v;
  *os << ", done_steps " << s.done_steps << "}";
}

constexpr int kLockstepSteps = 24;

// With `gated`, steps 4-8 clock only the even lanes, so k (and with it
// the array rows read and written at k) differs across lanes afterwards.
bool clocked(bool gated, int lane, int step) {
  return !gated || step < 4 || step > 8 || lane % 2 == 0;
}

LockstepState lockstep_scalar_run(
    const std::shared_ptr<const CompiledDesign>& plan,
    const LockstepHandles& h, int lane, bool gated, SimStats* sum) {
  CompiledSim sim(plan, {});
  auto tick = [&] {
    sim.poke(h.clk, 1);
    sim.settle();
    sim.poke(h.clk, 0);
    sim.settle();
  };
  sim.poke(h.clk, 0);
  sim.poke(h.rst, 1);
  tick();
  sim.poke(h.rst, 0);
  std::uint64_t done_steps = 0;
  for (int s = 0; s < kLockstepSteps; ++s) {
    sim.poke(h.x, stim(lane, s, 0));
    sim.poke(h.y, stim(lane, s, 1));
    if (clocked(gated, lane, s))
      tick();
    else
      sim.settle();  // the packed engine settles every lane each step
    if (sim.peek(h.done) != 0) done_steps |= 1ULL << s;
  }
  LockstepState out{sim.peek(h.acc), sim.peek(h.hk), sim.peek(h.hx),
                    sim.peek(h.rk),  sim.peek(h.rx), sim.peek(h.cs),
                    sim.peek(h.k),   {},             done_steps};
  for (int e = 0; e < 6; ++e)
    out.mem[static_cast<std::size_t>(e)] = sim.peek_elem(h.mem, e);
  sum->events += sim.stats().events;
  sum->nba_commits += sim.stats().nba_commits;
  sum->instrs += sim.stats().instrs;
  return out;
}

TEST(PackedLanes, LockstepRowsAndBranchesEqualScalarRuns) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";
  auto design = load_design(kLockstepSrc, "lockstep");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;
  const LockstepHandles h(*design);

  for (const bool gated : {false, true}) {
    for (const int lanes : {1, 8, 64}) {
      SCOPED_TRACE("lanes = " + std::to_string(lanes) +
                   (gated ? ", gated" : ""));
      const auto ps = native_engine(design, lanes);
      std::uint64_t even = 0;
      for (int l = 0; l < lanes; l += 2) even |= 1ULL << l;
      auto tick = [&](std::uint64_t m) {
        ps->poke(h.clk, 1, m);
        ps->settle();
        ps->poke(h.clk, 0, m);
        ps->settle();
      };
      ps->poke(h.clk, 0, ps->full_mask());
      ps->poke(h.rst, 1, ps->full_mask());
      tick(ps->full_mask());
      ps->poke(h.rst, 0, ps->full_mask());
      std::vector<std::uint64_t> done_masks;
      for (int s = 0; s < kLockstepSteps; ++s) {
        for (int l = 0; l < lanes; ++l) {
          ps->poke_lane(h.x, l, stim(l, s, 0));
          ps->poke_lane(h.y, l, stim(l, s, 1));
        }
        // An odd lane is clocked exactly on the ungated steps.
        tick(clocked(gated, 1, s) ? ps->full_mask() : even);
        done_masks.push_back(ps->peek_nonzero_mask(h.done));
      }

      SimStats sum;
      std::uint64_t acc_nz = 0, rk_nz = 0, rx_nz = 0;
      bool done_mixed = false;
      for (int l = 0; l < lanes; ++l) {
        const LockstepState want =
            lockstep_scalar_run(plan, h, l, gated, &sum);
        LockstepState got{ps->peek(h.acc, l), ps->peek(h.hk, l),
                          ps->peek(h.hx, l),  ps->peek(h.rk, l),
                          ps->peek(h.rx, l),  ps->peek(h.cs, l),
                          ps->peek(h.k, l),   {},
                          0};
        for (int e = 0; e < 6; ++e)
          got.mem[static_cast<std::size_t>(e)] = ps->peek_elem(h.mem, e, l);
        for (int s = 0; s < kLockstepSteps; ++s) {
          const std::uint64_t m = done_masks[static_cast<std::size_t>(s)];
          if ((m >> l) & 1) got.done_steps |= 1ULL << s;
          done_mixed |= m != 0 && m != ps->full_mask();
        }
        EXPECT_EQ(got, want) << "lane " << l << " diverged from its scalar run";
        if (want.acc != 0) acc_nz |= 1ULL << l;
        if (want.rk != 0) rk_nz |= 1ULL << l;
        if (want.rx != 0) rx_nz |= 1ULL << l;
      }
      EXPECT_EQ(ps->peek_nonzero_mask(h.acc), acc_nz);
      EXPECT_EQ(ps->peek_nonzero_mask(h.rk), rk_nz);
      EXPECT_EQ(ps->peek_nonzero_mask(h.rx), rx_nz);
      EXPECT_EQ(ps->stats().events, sum.events);
      EXPECT_EQ(ps->stats().nba_commits, sum.nba_commits);
      EXPECT_EQ(ps->stats().instrs, sum.instrs);
      if (lanes == 1) {
        EXPECT_EQ(ps->divergence_splits(), 0);
      } else {
        // The poll saw lanes disagree, and the x-driven case split.
        EXPECT_TRUE(done_mixed);
        EXPECT_GT(ps->divergence_splits(), 0);
      }
    }
  }
}

TEST(PackedLanes, PlanePokesAndNonzeroMaskMatchLaneAccessors) {
  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const int h_x = design->find("x"), h_clk = design->find("clk");

  // Per-lane Simulations always; the native engine where it can be built.
  for (const Backend backend : {Backend::kCompiled, Backend::kPackedCodegen}) {
    if (backend == Backend::kPackedCodegen && !codegen_available()) continue;
    SimConfig cfg;
    cfg.backend = backend;
    const char* want =
        backend == Backend::kCompiled ? "compiled" : "packed_codegen";
    SCOPED_TRACE(want);
    const int kLanes = 5;  // odd count: the partial-mask paths
    std::string why;
    const auto a = make_packed_engine(design, kLanes, cfg, &why);
    const auto b = make_packed_engine(design, kLanes, cfg, &why);
    ASSERT_STREQ(a->backend(), want) << why;
    std::uint64_t plane[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      plane[l] = stim(l, 3, 0);
      a->poke_lane(h_x, l, plane[l]);
    }
    b->poke_plane(h_x, plane, b->full_mask());
    a->poke(h_clk, 1, a->full_mask());
    b->poke(h_clk, 1, b->full_mask());
    a->settle();
    b->settle();

    std::uint64_t want_nz = 0;
    for (int l = 0; l < kLanes; ++l) {
      EXPECT_EQ(a->peek(h_x, l), b->peek(h_x, l)) << "lane " << l;
      if (a->peek(h_x, l) != 0) want_nz |= 1ULL << l;
    }
    EXPECT_EQ(b->peek_nonzero_mask(h_x), want_nz);
    EXPECT_EQ(a->stats().events, b->stats().events);
  }
}

// Several event-kernel lanes are several independent event runs: an 8-lane
// kEvent harness over streams of different lengths (one empty, so that
// lane clocks only through reset) equals eight one-lane kEvent harnesses
// on outputs, the last vector's cycle count and the summed SimStats.
TEST(PackedLanes, EventLanesEqualOneLaneEventRuns) {
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  const auto design = load_design(
      rtl::emit_verilog(r.transformed, r.schedule), r.transformed.name);
  qam::LinkStimulus s((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&s, 40);

  constexpr int kLanes = 8;
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (int l = 0; l < kLanes - 1; ++l)
    streams[static_cast<std::size_t>(l)].assign(
        vectors.begin() + 5 * l, vectors.begin() + 5 * l + 2 + l % 4);
  SimConfig cfg;
  cfg.backend = Backend::kEvent;
  PackedDutHarness packed(r.transformed, design, kLanes, cfg);
  EXPECT_STREQ(packed.backend(), "event");
  EXPECT_EQ(packed.fallback_reason(), "");
  const auto got = packed.run_streams(streams);

  SimStats sum;
  for (int l = 0; l < kLanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const auto& in = streams[static_cast<std::size_t>(l)];
    PackedDutHarness one(r.transformed, design, 1, cfg);
    ASSERT_STREQ(one.backend(), "event");
    const auto want = one.run_streams({in}).front();
    const auto& lane_got = got[static_cast<std::size_t>(l)];
    ASSERT_EQ(lane_got.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(lane_got[i].vars, want[i].vars) << "vector " << i;
      EXPECT_EQ(lane_got[i].arrays, want[i].arrays) << "vector " << i;
    }
    EXPECT_EQ(packed.last_cycles(l), one.last_cycles());
    if (!in.empty()) {
      EXPECT_EQ(one.last_cycles(), r.schedule.latency_cycles + 1);
    }
    const SimStats& st = one.sim().stats();
    sum.events += st.events;
    sum.nba_commits += st.nba_commits;
    sum.delta_cycles += st.delta_cycles;
    sum.time_slots += st.time_slots;
    sum.instrs += st.instrs;
  }
  EXPECT_EQ(packed.sim().stats(), sum);
  EXPECT_GT(sum.events, 0);
}

// One lane is one Simulation: the harness names the backend and the
// fallback reason a Simulation at the same config reports, for every
// Backend value, with and without a host toolchain.
TEST(PackedLanes, OneLaneNamesBackendAndReasonAsOneSimulation) {
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  const auto design = load_design(
      rtl::emit_verilog(r.transformed, r.schedule), r.transformed.name);
  const auto check = [&](Backend backend, const char* want) {
    SCOPED_TRACE(want);
    SimConfig cfg;
    cfg.backend = backend;
    const PackedDutHarness h(r.transformed, design, 1, cfg);
    const Simulation sim(design, cfg);
    EXPECT_STREQ(h.backend(), want) << h.fallback_reason();
    EXPECT_STREQ(h.backend(), sim.backend());
    EXPECT_EQ(h.fallback_reason(), sim.fallback_reason());
    return h.fallback_reason();
  };
  EXPECT_EQ(check(Backend::kAuto, "compiled"), "");
  EXPECT_EQ(check(Backend::kCompiled, "compiled"), "");
  EXPECT_EQ(check(Backend::kEvent, "event"), "");
  if (codegen_available()) {
    EXPECT_EQ(check(Backend::kPackedCodegen, "codegen"), "");
  }

  const char* prev = std::getenv("HLSW_CODEGEN_CXX");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("HLSW_CODEGEN_CXX", "none", 1);
  const std::string why = check(Backend::kPackedCodegen, "compiled");
  EXPECT_EQ(why.rfind("codegen: ", 0), 0u) << why;
  if (prev != nullptr)
    ::setenv("HLSW_CODEGEN_CXX", saved.c_str(), 1);
  else
    ::unsetenv("HLSW_CODEGEN_CXX");
}

// Sweep-level contract: lanes > 1 must be invisible in the CosimResult.
TEST(PackedLanes, PackedSweepMatchesScalarSweepOnDecoder) {
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  qam::LinkStimulus s((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&s, 70);

  // 7 blocks of 10 symbols over 5 lanes: one full batch plus a partial
  // one, so the tail path (fewer blocks than lanes, the spare lanes idle)
  // is covered too.
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
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const double splits0 =
      m.counter_value("vsim.packed.divergence_splits");

  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  {
    // Only the native engine splits; per-lane Simulations never do.
    const auto ps = native_engine(design, 4);
    drive(*ps, Handles(*design));
    EXPECT_GT(ps->divergence_splits(), 0);
  }  // metrics flush on destruction
  EXPECT_GT(m.counter_value("vsim.packed.divergence_splits"), splits0);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace hlsw::vsim
