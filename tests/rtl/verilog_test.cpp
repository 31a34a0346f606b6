// Structural tests for the Verilog emitter: module shape, port list,
// storage declarations, FSM states, guard conditions, and basic electrical
// hygiene (every declared wire driven exactly once by an assign; balanced
// begin/end; no dangling references). We have no Verilog simulator in this
// environment, so rtl::Simulator is the executable semantics and these
// tests keep the emitted text consistent with it.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <map>
#include <sstream>
#include <stdexcept>

#include "hls/builder.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "rtl/verilog.h"

namespace hlsw::rtl {
namespace {

using hls::run_synthesis;
using hls::TechLibrary;
using qam::build_qam_decoder_ir;

std::string emit_row(int row) {
  const auto arch = qam::table1_architectures()[static_cast<size_t>(row)];
  const auto r = run_synthesis(build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  return emit_verilog(r.transformed, r.schedule);
}

TEST(Verilog, ModuleInterface) {
  const std::string v = emit_row(1);  // sequential baseline
  EXPECT_NE(v.find("module qam_decoder ("), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire start"), std::string::npos);
  EXPECT_NE(v.find("output reg done"), std::string::npos);
  // Complex input samples, flattened.
  EXPECT_NE(v.find("input wire signed [9:0] x_in_0_re"), std::string::npos);
  EXPECT_NE(v.find("input wire signed [9:0] x_in_1_im"), std::string::npos);
  // 6-bit data output.
  EXPECT_NE(v.find("output reg signed [5:0] data"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, StorageDeclarations) {
  const std::string v = emit_row(1);
  EXPECT_NE(v.find("reg signed [9:0] m_ffe_c_re [0:7];"), std::string::npos);
  EXPECT_NE(v.find("reg signed [9:0] m_dfe_c_re [0:15];"), std::string::npos);
  EXPECT_NE(v.find("reg signed [3:0] m_SV_re [0:15];"), std::string::npos);
  EXPECT_NE(v.find("v_yffe_re"), std::string::npos);
}

TEST(Verilog, FsmStatesAndLoopCounters) {
  const std::string v = emit_row(1);
  EXPECT_NE(v.find("localparam S_IDLE = 0;"), std::string::npos);
  EXPECT_NE(v.find("localparam S_ffe"), std::string::npos);
  EXPECT_NE(v.find("localparam S_dfe_shift"), std::string::npos);
  EXPECT_NE(v.find("k <= k + 1"), std::string::npos);
  EXPECT_NE(v.find("done <= 1'b1"), std::string::npos);
}

TEST(Verilog, MergedDesignEmitsGuards) {
  const std::string v = emit_row(0);  // merged: ffe body guarded to k < 8
  EXPECT_NE(v.find("if (k < 8)"), std::string::npos);
}

TEST(Verilog, BalancedBeginEnd) {
  for (int row = 0; row < 4; ++row) {
    const std::string v = emit_row(row);
    std::size_t begins = 0, ends = 0, pos = 0;
    const std::regex word_begin("\\bbegin\\b"), word_end("\\bend\\b");
    (void)pos;
    for (auto it = std::sregex_iterator(v.begin(), v.end(), word_begin);
         it != std::sregex_iterator(); ++it)
      ++begins;
    for (auto it = std::sregex_iterator(v.begin(), v.end(), word_end);
         it != std::sregex_iterator(); ++it)
      ++ends;
    EXPECT_EQ(begins, ends) << "row " << row;
  }
}

TEST(Verilog, EveryDeclaredWireIsDrivenOnce) {
  const std::string v = emit_row(1);
  // Collect declared wire names.
  std::set<std::string> wires;
  const std::regex decl_re(R"(wire signed \[\d+:0\] (\w+);)");
  for (auto it = std::sregex_iterator(v.begin(), v.end(), decl_re);
       it != std::sregex_iterator(); ++it)
    wires.insert((*it)[1]);
  ASSERT_FALSE(wires.empty());
  // Count assigns per wire.
  std::map<std::string, int> driven;
  const std::regex assign_re(R"(assign (\w+) =)");
  for (auto it = std::sregex_iterator(v.begin(), v.end(), assign_re);
       it != std::sregex_iterator(); ++it)
    ++driven[(*it)[1]];
  for (const auto& w : wires) {
    EXPECT_EQ(driven[w], 1) << "wire " << w
                            << " must have exactly one driver";
  }
  // And no assign drives an undeclared name.
  for (const auto& [name, cnt] : driven)
    EXPECT_TRUE(wires.count(name)) << "assign to undeclared wire " << name;
}

TEST(Verilog, RoundingLogicForSlicerCast) {
  // The slicer's RND_ZERO/SAT cast must produce rounding and saturation
  // logic, not a plain truncation.
  const std::string v = emit_row(1);
  EXPECT_NE(v.find("_rnd_"), std::string::npos);
  EXPECT_NE(v.find("_fit_"), std::string::npos);
  // Saturation compares against the 10-bit bounds 511 / -512.
  EXPECT_NE(v.find("64'sd511"), std::string::npos);
  EXPECT_NE(v.find("-64'sd512"), std::string::npos);
}

TEST(Verilog, LatencyCommentMatchesSchedule) {
  const auto arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  const std::string v = emit_verilog(r.transformed, r.schedule);
  std::ostringstream expect;
  expect << "latency " << r.schedule.latency_cycles << " cycles";
  EXPECT_NE(v.find(expect.str()), std::string::npos);
}

TEST(Verilog, PipelinedLoopsEmitSequentialFallbackNote) {
  // The FSM emitter initiates loop iterations sequentially; a pipelined
  // schedule is emitted functionally identical but slower, and the header
  // must say so rather than silently claim the pipelined latency.
  hls::Directives dir;
  dir.clock_period_ns = 4.0;
  dir.merge_groups = qam::default_merge_groups();
  dir.loops["ffe"].pipeline_ii = 1;
  const auto r = run_synthesis(build_qam_decoder_ir(), dir,
                               TechLibrary::asic90());
  ASSERT_GT(r.schedule.regions[1].ii, 0);
  const std::string v = emit_verilog(r.transformed, r.schedule);
  EXPECT_NE(v.find("initiates iterations"), std::string::npos);
  EXPECT_NE(v.find("functionally identical"), std::string::npos);
}

TEST(Verilog, CustomModuleName) {
  const auto arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  VerilogOptions opts;
  opts.module_name = "qam_decoder_merged";
  const std::string v = emit_verilog(r.transformed, r.schedule, opts);
  EXPECT_NE(v.find("module qam_decoder_merged ("), std::string::npos);
}

TEST(Verilog, RefusesValuesWiderThan64Bits) {
  // acc += (a*a*a)^2 over an fx<12,1> array: the cube is a 36-bit product
  // and its square a 72-bit one, which no 64-bit datapath wire holds. The
  // emitter must refuse the design, naming the loop, instead of emitting
  // RTL that drops the top bits.
  hls::FunctionBuilder fb("cube_sq");
  const int a = fb.add_array("a", 8, hls::fx(12, 1), false, hls::PortDir::kIn);
  const int acc =
      fb.add_var("acc", hls::fx(40, 8), false, hls::PortDir::kOut);
  {
    auto b = fb.block("init");
    b.var_write(acc, b.cnst(hls::fx(40, 8), 0.0));
  }
  {
    auto b = fb.loop("cube_sq_loop", 8);
    const int x = b.array_read(a, {1, 0});
    const int cube = b.mul(b.mul(x, x), x);
    b.var_write(acc, b.add(b.var_read(acc), b.mul(cube, cube)));
  }
  const auto r = run_synthesis(fb.build(), {}, TechLibrary::asic90());
  try {
    emit_verilog(r.transformed, r.schedule);
    FAIL() << "a 72-bit product was emitted into a 64-bit datapath";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'cube_sq_loop'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hlsw::rtl
