// The acceptance gate of the vsim PR: for every Table 1 and exploration
// architecture — and for randomized directive sets from the DSE design
// space — the emitted Verilog TEXT, parsed and executed by vsim, must match
// the untimed interpreter golden and the cycle-accurate rtl::Simulator
// bit-for-bit (verify_emitted: three-way differential + lint + the
// generated self-checking testbench run in-process). The legacy
// interpretive simulator joins as a fourth leg, and the harness cycle
// count is pinned to the schedule's latency.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::Directives;
using hls::PortIo;
using hls::run_synthesis;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

// Full verify_emitted battery for one directive set: three-way cosim over
// `symbols` link symbols (one sequential block — the decoder is stateful),
// lint-clean, and a passing in-process testbench.
void run_battery(const Directives& dir, const std::string& name,
                 int symbols) {
  const auto r =
      run_synthesis(qam::build_qam_decoder_ir(), dir, TechLibrary::asic90());
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, symbols);

  const VerifyEmittedResult res = verify_emitted(
      r.transformed, r.schedule, vectors, {.block_size = vectors.size()});

  EXPECT_TRUE(res.cosim.ok())
      << name << ": "
      << (res.cosim.mismatches.empty() ? "" : res.cosim.mismatches.front());
  EXPECT_EQ(res.cosim.vectors, static_cast<std::size_t>(symbols)) << name;
  EXPECT_TRUE(res.lint_issues.empty())
      << name << ": " << lint_report(res.lint_issues);
  EXPECT_TRUE(res.testbench.passed)
      << name << ": testbench display log:\n"
      << (res.testbench.display.empty() ? "<empty>"
                                        : res.testbench.display.back());
  EXPECT_TRUE(res.ok()) << name;
}

class EmittedEquiv : public ::testing::TestWithParam<int> {};

TEST_P(EmittedEquiv, VsimMatchesGoldenAndRtlBitForBit) {
  const auto archs = qam::exploration_architectures();
  const auto& a = archs[static_cast<size_t>(GetParam())];
  run_battery(a.dir, a.name, 25);
}

std::string equiv_name(const ::testing::TestParamInfo<int>& info) {
  auto n = qam::exploration_architectures()[static_cast<size_t>(info.param)]
               .name;
  std::string out;
  for (char c : n)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, EmittedEquiv,
                         ::testing::Range(0, 9), equiv_name);

TEST(EmittedEquiv, Table1Rows) {
  for (const auto& a : qam::table1_architectures())
    run_battery(a.dir, a.name, 20);
}

TEST(EmittedEquiv, RandomizedDirectiveSets) {
  // Random points from the DSE candidate space, same generator idiom (and
  // spirit) as sim_equiv_test: merge on/off x unroll {1,2,4} x optional
  // pipelining of merged loop heads x clock period. Seeded for replay.
  const char* labels[] = {"ffe",       "dfe",       "ffe_adapt",
                          "dfe_adapt", "ffe_shift", "dfe_shift"};
  std::mt19937 rng(20260805);
  auto pick = [&](auto... v) {
    const int vals[] = {v...};
    return vals[rng() % (sizeof...(v))];
  };
  for (int cfg = 0; cfg < 4; ++cfg) {
    Directives dir;
    dir.clock_period_ns = pick(10, 10, 5);
    const bool merged = (rng() % 2) != 0;
    if (merged) dir.merge_groups = qam::default_merge_groups();
    for (const char* l : labels) {
      const int u = pick(1, 1, 2, 4);
      if (u > 1) dir.loops[l].unroll = u;
    }
    if (merged && (rng() % 2) != 0) {
      dir.loops["ffe"].pipeline_ii = 1;
      dir.loops["ffe_adapt"].pipeline_ii = 1;
      dir.loops["ffe"].unroll = 1;
      dir.loops["ffe_adapt"].unroll = 1;
      dir.loops["dfe"].unroll = 1;
      dir.loops["dfe_adapt"].unroll = 1;
    }
    run_battery(dir, "random#" + std::to_string(cfg), 15);
  }
}

TEST(EmittedEquiv, HarnessCycleCountMatchesSchedule) {
  // The emitted FSM takes latency_cycles through the states plus the done
  // posedge: the harness counts start->done posedges and must land exactly
  // on latency + 1, every symbol, on a pipelined architecture.
  const auto archs = qam::exploration_architectures();
  const qam::Architecture* pipe = nullptr;
  for (const auto& a : archs)
    if (a.name == "merge+pipe") pipe = &a;
  ASSERT_NE(pipe, nullptr);
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), pipe->dir,
                               TechLibrary::asic90());
  const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
  PackedDutHarness dut(r.transformed, load_design(v, r.transformed.name), 1);

  LinkStimulus stim((LinkConfig()));
  for (const auto& in : qam::link_input_batch(&stim, 10)) {
    dut.run_streams({{in}});
    EXPECT_EQ(dut.last_cycles(), r.schedule.latency_cycles + 1);
  }
}

TEST(EmittedEquiv, LegacySimulatorJoinsAsFourthLeg) {
  // cosim_sweep_nway with golden / compiled-rtl / legacy-rtl / vsim: any
  // divergence between the four models fails, named by leg.
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(v, r.transformed.name);

  const hls::CosimFactory golden = [&] {
    return [in = std::make_shared<hls::Interpreter>(r.transformed)](
               const std::vector<PortIo>& ins) { return in->run_stream(ins); };
  };
  const hls::CosimFactory compiled = [&] {
    return [s = std::make_shared<rtl::Simulator>(r.transformed, r.schedule)](
               const std::vector<PortIo>& ins) { return s->run_stream(ins); };
  };
  const hls::CosimFactory legacy = [&] {
    return [s = std::make_shared<rtl::Simulator>(r.transformed, r.schedule,
                                                 rtl::SimOptions{
                                                     .compiled = false})](
               const std::vector<PortIo>& ins) { return s->run_stream(ins); };
  };
  const hls::CosimFactory vsim_leg = [&] {
    return [h = std::make_shared<PackedDutHarness>(r.transformed, design, 1)](
               const std::vector<PortIo>& ins) {
      return h->run_streams({ins}).front();
    };
  };

  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 25);
  const hls::CosimResult res = hls::cosim_sweep_nway(
      {{"golden", golden},
       {"rtl", compiled},
       {"rtl-legacy", legacy},
       {"vsim", vsim_leg}},
      vectors, {.block_size = vectors.size()});
  EXPECT_TRUE(res.ok()) << (res.mismatches.empty() ? ""
                                                   : res.mismatches.front());
  EXPECT_EQ(res.vectors, 25u);
}

TEST(EmittedEquiv, NwayMismatchesNameTheDivergingLeg) {
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  const hls::CosimFactory golden = [&] {
    return [in = std::make_shared<hls::Interpreter>(r.transformed)](
               const std::vector<PortIo>& ins) { return in->run_stream(ins); };
  };
  // A leg that corrupts one output of the very first vector.
  const hls::CosimFactory bad = [&] {
    auto in = std::make_shared<hls::Interpreter>(r.transformed);
    return [in](const std::vector<PortIo>& ins) {
      auto outs = in->run_stream(ins);
      if (!outs.empty()) {
        if (!outs[0].vars.empty())
          outs[0].vars.begin()->second.re ^= 1;
        else if (!outs[0].arrays.empty())
          outs[0].arrays.begin()->second[0].re ^= 1;
      }
      return outs;
    };
  };
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 5);
  const hls::CosimResult res = hls::cosim_sweep_nway(
      {{"golden", golden}, {"crooked", bad}}, vectors,
      {.block_size = vectors.size()});
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.mismatches.front().find("crooked vs golden"),
            std::string::npos)
      << res.mismatches.front();
}

// Every model rejects an input array shorter than its port with a typed
// error, as the golden interpreter does, instead of reading past the end.
TEST(EmittedEquiv, ShortInputArrayThrowsOnEveryModel) {
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  LinkStimulus stim((LinkConfig()));
  PortIo in = qam::link_input_batch(&stim, 1).front();
  ASSERT_EQ(in.arrays.count("x_in"), 1u);
  ASSERT_GT(in.arrays["x_in"].size(), 1u);
  in.arrays["x_in"].resize(1);

  hls::Interpreter golden(r.transformed);
  EXPECT_THROW(golden.run(in), std::invalid_argument);
  rtl::Simulator rtl_sim(r.transformed, r.schedule);
  EXPECT_THROW(rtl_sim.run(in), std::invalid_argument);

  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  PackedDutHarness dut(r.transformed, design, 1);
  EXPECT_THROW(dut.run_streams({{in}}), std::invalid_argument);

  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;
  SimConfig interp;
  interp.backend = Backend::kCompiled;
  PackedDutHarness packed(r.transformed, plan, 2, interp);
  EXPECT_THROW(packed.run_streams({{in}, {in}}), std::invalid_argument);
}

TEST(EmittedEquiv, NwayNeedsAtLeastTwoLegs) {
  const hls::CosimFactory id = [] {
    return [](const std::vector<PortIo>& ins) { return ins; };
  };
  const hls::CosimResult res = hls::cosim_sweep_nway({{"only", id}}, {});
  EXPECT_FALSE(res.ok());
}

}  // namespace
}  // namespace hlsw::vsim
