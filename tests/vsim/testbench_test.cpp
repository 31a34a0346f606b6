// The generated testbench runs with its DUT bound: run_testbench parses the
// testbench text alone, binds the module instance to the loaded design and
// runs it on the compiled engine while the event kernel runs the
// testbench's processes. The flattened event run (Backend::kEvent) is the
// oracle: on the ten exploration and four Table 1 architectures the bound
// run's display log, $finish, end time and verdict equal it, on a
// passing testbench and on a tampered one whose every vector fails.
// Hand-written testbenches pin the step order, the loop guard and the
// elaboration checks of a bound instance; lint reads a bound testbench as
// it reads the flattened one; and the three fallbacks to the flattened run
// ($dumpvars, kEvent, a DUT the levelizer refuses) are checked with their
// reasons.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/lint.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;

struct Emitted {
  std::string name;
  std::string module;
  std::vector<rtl::TestVector> vectors;
  hls::Function f;
};

Emitted emit(const hls::Directives& dir, int nvec = 8) {
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), dir,
                                    TechLibrary::asic90());
  qam::LinkStimulus stim((qam::LinkConfig()));
  Emitted e;
  e.name = r.transformed.name;
  e.module = rtl::emit_verilog(r.transformed, r.schedule);
  e.vectors = rtl::capture_vectors(r.transformed, r.schedule,
                                   qam::link_input_batch(&stim, nvec));
  e.f = r.transformed;
  return e;
}

// Every expected `data` value bumped by one, mod 2^6: each vector fails.
std::vector<rtl::TestVector> tampered(std::vector<rtl::TestVector> tvs) {
  for (rtl::TestVector& tv : tvs) {
    hls::FxValue& d = tv.outputs.vars.at("data");
    d.re = (d.re + 1) & 63;
  }
  return tvs;
}

SimConfig event_cfg() {
  SimConfig c;
  c.backend = Backend::kEvent;
  return c;
}

void expect_same_run(const TestbenchResult& bound,
                     const TestbenchResult& flat, const std::string& what) {
  EXPECT_EQ(bound.display, flat.display) << what;
  EXPECT_EQ(bound.finished, flat.finished) << what;
  EXPECT_EQ(bound.end_time, flat.end_time) << what;
  EXPECT_EQ(bound.passed, flat.passed) << what;
  EXPECT_EQ(bound.vcd_name, flat.vcd_name) << what;
  EXPECT_EQ(bound.vcd_text, flat.vcd_text) << what;
}

std::vector<qam::Architecture> fourteen_architectures() {
  std::vector<qam::Architecture> out = qam::exploration_architectures();
  for (const qam::Architecture& a : qam::table1_architectures())
    out.push_back(a);
  return out;
}

TEST(VsimTestbench, BoundRunEqualsFlattenedOnEveryArchitecture) {
  const auto archs = fourteen_architectures();
  ASSERT_EQ(archs.size(), 14u);
  for (const qam::Architecture& a : archs) {
    const Emitted e = emit(a.dir);
    const std::string top = e.name + "_tb";
    for (const bool tamper : {false, true}) {
      const std::string tb = rtl::emit_testbench(
          e.f, tamper ? tampered(e.vectors) : e.vectors, e.name);
      const std::string what = a.name + (tamper ? " (tampered)" : "");
      const TestbenchResult bound = run_testbench(e.module, tb, top);
      const TestbenchResult flat =
          run_testbench(e.module, tb, top, event_cfg());
      EXPECT_EQ(bound.backend, "compiled") << what << bound.fallback_reason;
      EXPECT_EQ(bound.fallback_reason, "") << what;
      EXPECT_EQ(flat.backend, "event") << what;
      EXPECT_EQ(flat.fallback_reason, "") << what;
      expect_same_run(bound, flat, what);
      EXPECT_TRUE(bound.finished) << what;
      EXPECT_EQ(bound.passed, !tamper) << what;
      int fails = 0;
      for (const std::string& line : bound.display)
        fails += line.rfind("FAIL v", 0) == 0;
      EXPECT_EQ(fails, tamper ? 8 : 0) << what;
    }
  }
}

TEST(VsimTestbench, FailLinesPrintUnsignedOutputsUnsigned) {
  // `data` is an unsigned 6-bit type: a FAIL line prints the DUT's value
  // as an unsigned number, like the expected one beside it.
  const Emitted e = emit(qam::table1_architectures()[0].dir);
  const std::string tb =
      rtl::emit_testbench(e.f, tampered(e.vectors), e.name);
  const TestbenchResult res = run_testbench(e.module, tb, e.name + "_tb");
  bool saw = false;
  for (const std::string& line : res.display) {
    if (line.rfind("FAIL v", 0) != 0) continue;
    int v = 0;
    long long got = 0, want = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "FAIL v%d data: got %lld expected %lld",
                          &v, &got, &want),
              3)
        << line;
    EXPECT_EQ(got, (want + 63) % 64) << line;
    saw = saw || line == "FAIL v2 data: got 55 expected 56";
  }
  EXPECT_TRUE(saw) << "no 'FAIL v2 data: got 55 expected 56' line";
}

// Hand-written DUTs and testbenches for the step order.
const char* const kCounter = R"(
module cnt(input wire clk, output reg [7:0] q);
  always @(posedge clk) q <= q + 8'd1;
endmodule
)";

const char* const kIncrement = R"(
module inc(input wire [7:0] a, output wire [7:0] y);
  assign y = a + 8'd1;
endmodule
)";

TEST(VsimTestbench, SameEdgeProcessReadsThePreEdgeRegisteredOutput) {
  const std::string tb = R"(
module tb;
  reg clk = 0;
  wire [7:0] q;
  cnt dut (.clk(clk), .q(q));
  always #5 clk = ~clk;
  always @(posedge clk) $display("t=%0t q=%0d", $time, q);
  initial #42 $finish;
endmodule
)";
  const TestbenchResult bound = run_testbench(kCounter, tb, "tb");
  const TestbenchResult flat = run_testbench(kCounter, tb, "tb", event_cfg());
  EXPECT_EQ(bound.backend, "compiled") << bound.fallback_reason;
  expect_same_run(bound, flat, "counter");
  EXPECT_EQ(bound.display, (std::vector<std::string>{
                               "t=5 q=0", "t=15 q=1", "t=25 q=2", "t=35 q=3"}));
  EXPECT_EQ(bound.end_time, 42);
}

TEST(VsimTestbench, CombinationalOutputShowsTheNewInputAfterADelay) {
  const std::string tb = R"(
module tb;
  reg [7:0] a = 0;
  wire [7:0] y;
  inc dut (.a(a), .y(y));
  initial begin
    #1 $display("y=%0d", y);
    a = 5;
    #1 $display("y=%0d", y);
    a = 9;
    #1 $display("y=%0d", y);
    $finish;
  end
endmodule
)";
  const TestbenchResult bound = run_testbench(kIncrement, tb, "tb");
  const TestbenchResult flat =
      run_testbench(kIncrement, tb, "tb", event_cfg());
  EXPECT_EQ(bound.backend, "compiled") << bound.fallback_reason;
  expect_same_run(bound, flat, "increment");
  EXPECT_EQ(bound.display, (std::vector<std::string>{"y=1", "y=6", "y=10"}));
}

TEST(VsimTestbench, NonConvergingLoopThroughTheDutFailsNamingIt) {
  const std::string inverter = R"(
module inv(input wire a, output wire y);
  assign y = ~a;
endmodule
)";
  const std::string tb = R"(
module tb;
  wire a, y;
  inv u_inv (.a(a), .y(y));
  assign a = y;
  initial #1 $finish;
endmodule
)";
  SimConfig cfg;
  cfg.max_instrs_per_slot = 10'000;
  try {
    run_testbench(inverter, tb, "tb", cfg);
    FAIL() << "the loop converged";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bound instance 'u_inv'"),
              std::string::npos)
        << e.what();
  }
}

TEST(VsimTestbench, BoundInstancePortsAreCheckedLikeFlattenedOnes) {
  const auto dut = load_design(kIncrement, "inc");
  const auto elab_error = [&](const std::string& tb) -> std::string {
    try {
      elaborate(parse(tb), "tb", {{"inc", dut}});
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string head = "module tb;\n  reg [7:0] a;\n  wire [7:0] y;\n";
  EXPECT_EQ(elab_error(head + "  reg [3:0] n;\n  inc d (.a(n), .y(y));\n"
                              "endmodule\n"),
            "vsim elaboration error at line 5: width mismatch on port 'a' of "
            "instance 'd'");
  EXPECT_EQ(elab_error(head + "  inc d (.a(a), .z(y));\nendmodule\n"),
            "vsim elaboration error at line 4: instance 'd' connects unknown "
            "port 'z'");
  EXPECT_EQ(elab_error(head + "  inc d (.a(a), .y(w));\nendmodule\n"),
            "vsim elaboration error at line 4: port connection references "
            "undeclared 'w'");
  EXPECT_EQ(elab_error(head + "  inc d (.a(a), .y(y));\nendmodule\n"), "");

  // A port is a top input or output of the bound design: its internal
  // nets are not ports.
  const auto counter = load_design(kCounter, "cnt");
  ASSERT_GE(counter->find("q"), 0);
  const auto design = elaborate(
      parse("module tb;\n  reg c;\n  wire [7:0] q;\n"
            "  cnt d (.clk(c), .q(q));\nendmodule\n"),
      "tb", {{"cnt", counter}});
  ASSERT_EQ(design->instances.size(), 1u);
  const BoundInstance& bi = design->instances[0];
  EXPECT_EQ(bi.name, "d");
  ASSERT_EQ(bi.ports.size(), 2u);
  EXPECT_TRUE(bi.ports[0].is_input);
  EXPECT_FALSE(bi.ports[1].is_input);
  EXPECT_EQ(bi.ports[1].inner, counter->find("q"));

  std::string why;
  EXPECT_EQ(compile_design(design, &why), nullptr);
  EXPECT_NE(why.find("bound instance 'd'"), std::string::npos) << why;
}

TEST(VsimTestbench, LintOfABoundTestbenchEqualsTheFlattenedOne) {
  // The nets on a bound instance's inputs are read (by the DUT), as they
  // are in the flattened design.
  const Emitted e = emit(qam::table1_architectures()[0].dir, 2);
  const std::string tb = rtl::emit_testbench(e.f, e.vectors, e.name);
  const std::string top = e.name + "_tb";
  const auto bound =
      elaborate(parse(tb), top, {{e.name, load_design(e.module, e.name)}});
  const auto flat = load_design(e.module + "\n" + tb, top);
  EXPECT_EQ(lint_report(lint(*bound)), lint_report(lint(*flat)));
}

TEST(VsimTestbench, DumpingTestbenchRunsFlattenedWithItsReason) {
  const Emitted e = emit(qam::table1_architectures()[0].dir, 2);
  rtl::TestbenchOptions opts;
  opts.dumpfile = "tb.vcd";
  const std::string tb = rtl::emit_testbench(e.f, e.vectors, e.name, opts);
  const TestbenchResult def = run_testbench(e.module, tb, e.name + "_tb");
  const TestbenchResult flat =
      run_testbench(e.module, tb, e.name + "_tb", event_cfg());
  EXPECT_EQ(def.backend, "event");
  EXPECT_NE(def.fallback_reason.find("$dumpvars"), std::string::npos)
      << def.fallback_reason;
  EXPECT_TRUE(def.passed);
  EXPECT_EQ(def.vcd_name, "tb.vcd");
  EXPECT_FALSE(def.vcd_text.empty());
  expect_same_run(def, flat, "dumping testbench");

  // $dumpfile alone records nothing, so it runs bound.
  const std::string named = R"(
module tb;
  reg clk = 0;
  wire [7:0] q;
  cnt dut (.clk(clk), .q(q));
  always #5 clk = ~clk;
  initial begin $dumpfile("named.vcd"); #12 $display("q=%0d", q); $finish; end
endmodule
)";
  const TestbenchResult bound = run_testbench(kCounter, named, "tb");
  EXPECT_EQ(bound.backend, "compiled") << bound.fallback_reason;
  EXPECT_EQ(bound.vcd_name, "named.vcd");
  expect_same_run(bound, run_testbench(kCounter, named, "tb", event_cfg()),
                  "$dumpfile alone");
}

TEST(VsimTestbench, EventBackendRunsFlattenedWithNoReason) {
  const Emitted e = emit(qam::table1_architectures()[0].dir, 2);
  const std::string tb = rtl::emit_testbench(e.f, e.vectors, e.name);
  const TestbenchResult flat =
      run_testbench(e.module, tb, e.name + "_tb", event_cfg());
  EXPECT_EQ(flat.backend, "event");
  EXPECT_EQ(flat.fallback_reason, "");
  EXPECT_TRUE(flat.passed);
}

TEST(VsimTestbench, DutTheLevelizerRefusesRunsFlattenedWithItsReason) {
  const Emitted e = emit(qam::table1_architectures()[0].dir, 2);
  std::string module = e.module;
  module.insert(module.rfind("endmodule"),
                "  initial $display(\"dut up\");\n");
  std::string why;
  ASSERT_EQ(compiled_plan(load_design(module, e.name), &why), nullptr);
  ASSERT_NE(why.find("$display"), std::string::npos) << why;

  const std::string tb = rtl::emit_testbench(e.f, e.vectors, e.name);
  const TestbenchResult def = run_testbench(module, tb, e.name + "_tb");
  const TestbenchResult flat =
      run_testbench(module, tb, e.name + "_tb", event_cfg());
  EXPECT_EQ(def.backend, "event");
  EXPECT_EQ(def.fallback_reason, why);
  expect_same_run(def, flat, "refused DUT");
  ASSERT_FALSE(def.display.empty());
  EXPECT_EQ(def.display.front(), "dut up");
  EXPECT_TRUE(def.passed);
}

}  // namespace
}  // namespace hlsw::vsim
