// The acceptance gate of the compiled and generated-native backends: for
// every exploration and Table 1 architecture — and randomized directive
// sets — the emitted Verilog TEXT executed by the compiled cycle-based
// backend and by the generated native engine (at one and at two lanes,
// both through PackedDutHarness's one door) must match the
// event-driven backend, the untimed interpreter golden and the
// cycle-accurate rtl::Simulator bit-for-bit (cosim_sweep_nway over all six
// legs), and a dumping session of the same module must run on the event
// kernel, the only engine that records VCDs. The compiled leg must
// actually BE compiled: every architecture's emitted module is
// required to cycle-schedule with no fallback. The native legs run
// natively where a host toolchain exists and silently degrade to the
// compiled interpreter / one compiled Simulation per lane otherwise —
// either way they participate, so the battery passes on toolchain-less
// machines too (the codegen-REQUIRED assertions live in codegen_test.cpp).
// Every vsim leg runs on PackedDutHarness: the scalar legs at one lane.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <memory>
#include <random>
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
#include "vsim/codegen.h"
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

// Six-way differential for one directive set: golden interpreter,
// rtl::Simulator, vsim-event, vsim-compiled, vsim-codegen (the native
// engine at one lane) and vsim-packed-codegen (the native engine at two
// lanes) all execute the same link symbols (one sequential block — the
// decoder is stateful). Any divergence fails named by leg. The shared
// elaborated Design is load_design()ed ONCE and every vsim leg reuses it —
// the battery never re-parses per leg. The packed leg runs the block twice
// through a 2-lane engine and returns lane 0, so lane masking itself is
// inside the differential, not just the one-lane engine.
void run_six_way_battery(const Directives& dir, const std::string& name,
                         int symbols) {
  const auto r =
      run_synthesis(qam::build_qam_decoder_ir(), dir, TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  // The compiled backend must take this design — fallback would silently
  // degrade the whole suite to event-vs-event.
  {
    Simulation probe(design);
    ASSERT_STREQ(probe.backend(), "compiled")
        << name << ": fell back: " << probe.fallback_reason();
  }
  // Where a toolchain exists the codegen leg must actually run natively;
  // without one it degrades to the compiled interpreter with a typed
  // reason — the leg still participates below either way.
  SimConfig codegen_cfg;
  codegen_cfg.backend = Backend::kPackedCodegen;
  {
    PackedDutHarness probe(r.transformed, design, 1, codegen_cfg);
    if (codegen_available())
      ASSERT_STREQ(probe.backend(), "packed_codegen")
          << name << ": fell back: " << probe.fallback_reason();
    else
      ASSERT_STREQ(probe.backend(), "compiled") << name;
  }
  // The packed leg needs the shared compiled plan; with a toolchain it must
  // run the generated lane-major engine, without one a compiled Simulation
  // per lane. Both stay in the differential.
  std::string plan_why;
  const auto plan = compiled_plan(design, &plan_why);
  ASSERT_NE(plan, nullptr) << name << ": " << plan_why;
  SimConfig packed_cfg;
  packed_cfg.backend = Backend::kPackedCodegen;
  {
    PackedDutHarness probe(r.transformed, plan, 2, packed_cfg);
    if (codegen_available())
      ASSERT_STREQ(probe.backend(), "packed_codegen")
          << name << ": fell back: " << probe.fallback_reason();
    else
      ASSERT_STREQ(probe.backend(), "compiled") << name;
  }

  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;
  const hls::CosimFactory golden = [&] {
    return [in = std::make_shared<hls::Interpreter>(r.transformed)](
               const std::vector<PortIo>& ins) { return in->run_stream(ins); };
  };
  const hls::CosimFactory rtl_leg = [&] {
    return [s = std::make_shared<rtl::Simulator>(r.transformed, r.schedule)](
               const std::vector<PortIo>& ins) { return s->run_stream(ins); };
  };
  // One-lane harness legs: state carries across the block's vectors.
  const auto one_lane = [&](const SimConfig& cfg) -> hls::CosimFactory {
    return [&, cfg] {
      return [h = std::make_shared<PackedDutHarness>(r.transformed, design, 1,
                                                     cfg)](
                 const std::vector<PortIo>& ins) {
        return h->run_streams({ins}).front();
      };
    };
  };
  const hls::CosimFactory vsim_event = one_lane(event_cfg);
  const hls::CosimFactory vsim_compiled = one_lane(SimConfig{});
  const hls::CosimFactory vsim_codegen = one_lane(codegen_cfg);
  // Packed leg: duplicate the block across both lanes of a 2-lane engine
  // and report lane 0. Lane 1 running the identical stream keeps the full
  // execution mask populated, so masked stores, NBA lane planes and the
  // divergence machinery are all live while the observable contract stays
  // "one sequential block".
  const hls::CosimFactory vsim_packed = [&] {
    return [&r, plan, packed_cfg](const std::vector<PortIo>& ins) {
      PackedDutHarness h(r.transformed, plan, 2, packed_cfg);
      auto out = h.run_streams({ins, ins});
      return out[0];
    };
  };

  LinkStimulus stim((LinkConfig()));
  const auto vectors =
      qam::link_input_batch(&stim, symbols);
  const hls::CosimResult res = hls::cosim_sweep_nway(
      {{"golden", golden},
       {"rtl", rtl_leg},
       {"vsim-event", vsim_event},
       {"vsim-compiled", vsim_compiled},
       {"vsim-codegen", vsim_codegen},
       {"vsim-packed-codegen", vsim_packed}},
      vectors, {.block_size = vectors.size(), .mismatch_limit = 8});
  EXPECT_TRUE(res.ok()) << name << ": "
                        << (res.mismatches.empty() ? ""
                                                   : res.mismatches.front());
  EXPECT_EQ(res.vectors, static_cast<std::size_t>(symbols)) << name;

  // VCD recording belongs to the event kernel: the emitted module with a
  // $dumpvars block injected runs there under the default config, with a
  // reason naming the dump task, and still records a VCD.
  const std::size_t mod_end = verilog.rfind("endmodule");
  ASSERT_NE(mod_end, std::string::npos) << name;
  std::string dumped = verilog;
  dumped.insert(mod_end,
                "  initial begin $dumpfile(\"wave.vcd\"); $dumpvars; end\n");
  PackedDutHarness dut(r.transformed, load_design(dumped, r.transformed.name),
                       1);
  EXPECT_STREQ(dut.backend(), "event") << name;
  EXPECT_NE(dut.fallback_reason().find("$dump"), std::string::npos)
      << name << ": " << dut.fallback_reason();
  LinkStimulus vstim((LinkConfig()));
  dut.run_streams({qam::link_input_batch(&vstim, 3)});
  Simulation* lane = dut.sim().simulation(0);
  ASSERT_NE(lane, nullptr) << name;
  const RunResult rr = lane->run();
  EXPECT_EQ(rr.vcd_name, "wave.vcd") << name;
  EXPECT_NE(rr.vcd_text.find("$enddefinitions"), std::string::npos) << name;
}

class CompiledEquiv : public ::testing::TestWithParam<int> {};

TEST_P(CompiledEquiv, CompiledMatchesEventGoldenAndRtlBitForBit) {
  const auto archs = qam::exploration_architectures();
  const auto& a = archs[static_cast<size_t>(GetParam())];
  run_six_way_battery(a.dir, a.name, 15);
}

std::string equiv_name(const ::testing::TestParamInfo<int>& info) {
  auto n = qam::exploration_architectures()[static_cast<size_t>(info.param)]
               .name;
  std::string out;
  for (char c : n)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, CompiledEquiv,
                         ::testing::Range(0, 9), equiv_name);

TEST(CompiledEquiv, Table1Rows) {
  for (const auto& a : qam::table1_architectures())
    run_six_way_battery(a.dir, a.name, 12);
}

TEST(CompiledEquiv, RandomizedDirectiveSets) {
  // Random points from the DSE candidate space (the equiv_test generator
  // idiom, different seed): merge on/off x unroll {1,2,4} x optional
  // pipelining of merged loop heads x clock period. Seeded for replay.
  const char* labels[] = {"ffe",       "dfe",       "ffe_adapt",
                          "dfe_adapt", "ffe_shift", "dfe_shift"};
  std::mt19937 rng(20260806);
  auto pick = [&](auto... v) {
    const int vals[] = {v...};
    return vals[rng() % (sizeof...(v))];
  };
  for (int cfg = 0; cfg < 3; ++cfg) {
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
    run_six_way_battery(dir, "random#" + std::to_string(cfg), 10);
  }
}

TEST(CompiledEquiv, HarnessCycleCountMatchesScheduleOnCompiledBackend) {
  // The compiled backend must preserve the cycle-level protocol exactly:
  // start->done posedges still land on latency + 1, every symbol.
  const auto archs = qam::exploration_architectures();
  const qam::Architecture* pipe = nullptr;
  for (const auto& a : archs)
    if (a.name == "merge+pipe") pipe = &a;
  ASSERT_NE(pipe, nullptr);
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), pipe->dir,
                               TechLibrary::asic90());
  const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
  PackedDutHarness dut(r.transformed, load_design(v, r.transformed.name), 1);
  ASSERT_STREQ(dut.backend(), "compiled");

  LinkStimulus stim((LinkConfig()));
  for (const auto& in : qam::link_input_batch(&stim, 10)) {
    dut.run_streams({{in}});
    EXPECT_EQ(dut.last_cycles(), r.schedule.latency_cycles + 1);
  }
}

TEST(CompiledEquiv, CodegenWithoutToolchainFallsBackToCompiled) {
  // HLSW_CODEGEN_CXX=none simulates a toolchain-less machine: requesting
  // the codegen backend must silently land on the compiled interpreter
  // with a typed "packed-codegen: " reason — and still produce correct
  // outputs.
  const char* prev = getenv("HLSW_CODEGEN_CXX");
  const std::string saved = prev ? prev : "";
  setenv("HLSW_CODEGEN_CXX", "none", 1);
  EXPECT_FALSE(codegen_available());

  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  PackedDutHarness dut(r.transformed, design, 1, cfg);
  EXPECT_STREQ(dut.backend(), "compiled");
  EXPECT_EQ(dut.fallback_reason().rfind("packed-codegen: ", 0), 0u)
      << dut.fallback_reason();

  hls::Interpreter golden(r.transformed);
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 5);
  const auto want = golden.run_stream(vectors);
  const auto got = dut.run_streams({vectors}).front();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].vars, want[i].vars) << "symbol " << i;
    EXPECT_EQ(got[i].arrays, want[i].arrays) << "symbol " << i;
  }

  if (prev)
    setenv("HLSW_CODEGEN_CXX", saved.c_str(), 1);
  else
    unsetenv("HLSW_CODEGEN_CXX");
}

TEST(CompiledEquiv, CodegenRefusesDumpingDesignsWithTypedReason) {
  // $dumpvars designs are not compiled at all (the event kernel owns the
  // VCD writer): the codegen request lands on the event kernel with the
  // construct named — exercised regardless of whether a toolchain is
  // present.
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const std::size_t mod_end = verilog.rfind("endmodule");
  ASSERT_NE(mod_end, std::string::npos);
  verilog.insert(mod_end,
                 "  initial begin $dumpfile(\"w.vcd\"); $dumpvars; end\n");
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  PackedDutHarness dut(r.transformed, load_design(verilog, r.transformed.name),
                       1, cfg);
  EXPECT_STREQ(dut.backend(), "event");
  EXPECT_EQ(dut.fallback_reason().rfind("packed-codegen: ", 0), 0u)
      << dut.fallback_reason();
  EXPECT_NE(dut.fallback_reason().find("$dumpfile"), std::string::npos)
      << dut.fallback_reason();
}

TEST(CompiledEquiv, GeneratedTestbenchStillRunsViaEventFallback) {
  // The generated self-checking testbench uses # delays and $finish, so
  // run_testbench lands on the event backend even with compiled enabled —
  // and still passes.
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  LinkStimulus stim((LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 6);
  const auto tvs = rtl::capture_vectors(r.transformed, r.schedule, vectors);
  const std::string tb =
      rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
  const TestbenchResult res =
      run_testbench(verilog + "\n" + tb, r.transformed.name + "_tb");
  EXPECT_TRUE(res.passed) << (res.display.empty() ? "<empty>"
                                                  : res.display.back());
}

}  // namespace
}  // namespace hlsw::vsim
