// Backend selection and fallback behavior of the compiled cycle-based
// vsim engine (compile.h): cycle-schedulable designs silently get the
// levelized backend, anything with time control, a testbench construct
// (system tasks, repeat, $time) or zero-delay feedback silently keeps the
// event kernel — and the two backends are observably identical (values,
// stats-visible protocol) wherever both can run.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/parser.h"
#include "vsim/sim.h"

namespace hlsw::vsim {
namespace {

std::unique_ptr<Simulation> make_sim(const std::string& src,
                                     const std::string& top,
                                     const SimConfig& cfg = {}) {
  return std::make_unique<Simulation>(load_design(src, top), cfg);
}

SimConfig event_cfg() {
  SimConfig cfg;
  cfg.backend = Backend::kEvent;
  return cfg;
}

// A small synchronous design exercising assigns, NBAs, bit-selects and a
// register file — everything the compiled backend must levelize.
const char* kSyncDesign = R"(
module m (input wire clk, input wire rst,
          input wire signed [7:0] x, output wire signed [9:0] q);
  reg signed [9:0] acc;
  reg [3:0] idx;
  reg signed [7:0] mem [0:15];
  wire signed [9:0] nxt;
  wire msb;
  assign nxt = acc + {x[7], x[7], x};
  assign msb = acc[9];
  assign q = msb ? -nxt : nxt;
  always @(posedge clk) begin
    if (rst) begin
      acc <= 10'sd0;
      idx <= 4'd0;
    end else begin
      acc <= nxt;
      mem[idx] <= x;
      idx <= idx + 4'd1;
    end
  end
endmodule
)";

TEST(VsimCompiled, SynchronousDesignSelectsCompiledBackend) {
  auto sim = make_sim(kSyncDesign, "m");
  EXPECT_STREQ(sim->backend(), "compiled");
  EXPECT_EQ(sim->fallback_reason(), "");
}

TEST(VsimCompiled, CompiledAndEventAgreeCycleByCycle) {
  auto c = make_sim(kSyncDesign, "m");
  auto e = make_sim(kSyncDesign, "m", event_cfg());
  ASSERT_STREQ(c->backend(), "compiled");
  ASSERT_STREQ(e->backend(), "event");

  auto drive = [](Simulation& s, unsigned long long rst,
                  unsigned long long x) {
    s.poke("rst", rst);
    s.poke("x", x);
    s.poke("clk", 1);
    s.settle();
    s.poke("clk", 0);
    s.settle();
  };
  const unsigned long long xs[] = {5, 0xf3 /* -13 */, 127, 0x80 /* -128 */,
                                   1, 0xff /* -1 */};
  drive(*c, 1, 0);
  drive(*e, 1, 0);
  for (unsigned long long x : xs) {
    drive(*c, 0, x);
    drive(*e, 0, x);
    EXPECT_EQ(c->peek("acc"), e->peek("acc"));
    EXPECT_EQ(c->peek_signed("q"), e->peek_signed("q"));
    EXPECT_EQ(c->peek("idx"), e->peek("idx"));
  }
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(c->peek_elem("mem", i), e->peek_elem("mem", i)) << "mem[" << i
                                                              << "]";
}

TEST(VsimCompiled, HandleApiMatchesNameApi) {
  auto sim = make_sim(kSyncDesign, "m");
  const int h_x = sim->signal_handle("x");
  const int h_q = sim->signal_handle("q");
  sim->poke("rst", 0);
  sim->poke(h_x, 42);
  sim->settle();
  EXPECT_EQ(sim->peek("x"), 42u);
  EXPECT_EQ(sim->peek(h_q), sim->peek("q"));
  EXPECT_EQ(sim->peek_signed(h_q), sim->peek_signed("q"));
  EXPECT_THROW(sim->signal_handle("no_such_signal"), std::runtime_error);
}

// ---- Fallback triggers ------------------------------------------------------

TEST(VsimCompiled, HashDelayFallsBackToEventSilently) {
  auto sim = make_sim(R"(
module m;
  reg [7:0] r;
  initial begin
    r = 1;
    #5 r = 2;
  end
endmodule
)",
                      "m");
  EXPECT_STREQ(sim->backend(), "event");
  EXPECT_NE(sim->fallback_reason().find("delay"), std::string::npos)
      << sim->fallback_reason();
  const RunResult rr = sim->run();  // the event engine still runs it fine
  EXPECT_EQ(sim->peek("r"), 2u);
  EXPECT_EQ(rr.end_time, 5);
}

TEST(VsimCompiled, FinishFallsBackToEvent) {
  auto sim = make_sim(R"(
module m;
  initial $finish;
endmodule
)",
                      "m");
  EXPECT_STREQ(sim->backend(), "event");
  const RunResult rr = sim->run();
  EXPECT_TRUE(rr.finished);
}

TEST(VsimCompiled, ZeroDelayFeedbackFallsBackToEvent) {
  // assign p = q; assign q = p + 1 can never settle — the levelizer's
  // topological sort detects the cycle and hands the design to the event
  // kernel, whose combinational-loop guard reports it (at the time-0 flush
  // inside the constructor) exactly as before.
  auto design = load_design(R"(
module m (input wire x);
  wire [3:0] p, q;
  assign p = q;
  assign q = p + 4'd1;
endmodule
)",
                            "m");
  std::string why;
  EXPECT_EQ(compiled_plan(design, &why), nullptr);
  EXPECT_NE(why.find("feedback"), std::string::npos) << why;
  EXPECT_THROW(Simulation sim(design), std::runtime_error);
}

TEST(VsimCompiled, EventBackendForcesEventKernel) {
  auto sim = make_sim(kSyncDesign, "m", event_cfg());
  EXPECT_STREQ(sim->backend(), "event");
  EXPECT_EQ(sim->fallback_reason(), "");
}

// ---- Testbench constructs --------------------------------------------------

// Every system task, `repeat` and `$time` belong to the event kernel alone:
// compiled_plan refuses each with a reason naming it, the default
// Simulation runs the design on the event kernel, and the result equals an
// explicit kEvent run in display lines, VCD text and values. Each case
// adds its construct to one clocked design that an external driver pokes
// for three cycles before run() reports.
TEST(VsimCompiled, TestbenchConstructsRunOnlyOnTheEventKernel) {
  struct Case {
    const char* construct;
    const char* extra;  // module items added to the base design
    std::function<void(const Simulation&, const RunResult&)> ran;
  };
  const Case cases[] = {
      {"$display", "  always @(posedge clk) $display(\"a=%d b=%b\", a, b);\n",
       [](const Simulation&, const RunResult& r) {
         ASSERT_EQ(r.display.size(), 3u);
         EXPECT_EQ(r.display[0], "a=3 b=0010");
       }},
      {"$write", "  always @(posedge clk) $write(\"n=%h\", n + 8'hf0);\n",
       [](const Simulation&, const RunResult& r) {
         ASSERT_EQ(r.display.size(), 3u);
         EXPECT_EQ(r.display[2], "n=f0");
       }},
      {"$dumpfile",
       "  initial begin $dumpfile(\"wave.vcd\"); $dumpvars; end\n",
       [](const Simulation&, const RunResult& r) {
         EXPECT_EQ(r.vcd_name, "wave.vcd");
         EXPECT_NE(r.vcd_text.find("$var"), std::string::npos);
       }},
      {"$dumpvars", "  initial $dumpvars;\n",
       [](const Simulation&, const RunResult& r) {
         EXPECT_EQ(r.vcd_name, "");
         EXPECT_NE(r.vcd_text.find("$enddefinitions"), std::string::npos);
       }},
      {"repeat", "  always @(posedge clk) repeat (a) n = n + 8'd1;\n",
       [](const Simulation& s, const RunResult&) {
         EXPECT_EQ(s.peek("n"), 3u + 4u + 11u);  // a before each edge
       }},
      {"$time", "  assign t = $time + 8'd7;\n",
       [](const Simulation& s, const RunResult&) {
         EXPECT_EQ(s.peek("t"), 7u);
       }},
  };
  const std::string base_head = R"(
module m (input wire clk, input wire [3:0] x);
  reg [3:0] a;
  reg [7:0] n;
  wire [3:0] b;
  wire [7:0] t;
  assign b = x ^ a;
  initial begin
    a = 4'd3;
    n = 8'd0;
  end
  always @(posedge clk) a <= a + x;
)";
  auto drive = [](Simulation& s) {
    for (unsigned long long x : {1ull, 7ull, 2ull}) {
      s.poke("x", x);
      s.poke("clk", 1);
      s.settle();
      s.poke("clk", 0);
      s.settle();
    }
    return s.run();
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.construct);
    const auto design =
        load_design(base_head + c.extra + "endmodule\n", "m");
    std::string why;
    EXPECT_EQ(compiled_plan(design, &why), nullptr);
    EXPECT_NE(why.find(c.construct), std::string::npos) << why;

    Simulation def(design);
    Simulation ev(design, event_cfg());
    EXPECT_STREQ(def.backend(), "event");
    EXPECT_EQ(def.fallback_reason(), why);
    const RunResult rd = drive(def);
    const RunResult re = drive(ev);
    EXPECT_EQ(rd.display, re.display);
    EXPECT_EQ(rd.vcd_name, re.vcd_name);
    EXPECT_EQ(rd.vcd_text, re.vcd_text);
    EXPECT_EQ(rd.end_time, re.end_time);
    EXPECT_EQ(rd.finished, re.finished);
    for (const char* sig : {"a", "b", "n", "t"})
      EXPECT_EQ(def.peek(sig), ev.peek(sig)) << sig;
    c.ran(def, rd);
  }
}

// ---- Observable-output equivalence -----------------------------------------

// Every non-event backend request lands on the event kernel for a design
// with testbench constructs, so whatever tier was asked for, the observable
// output is the event kernel's.
const Backend kNonEventBackends[] = {Backend::kAuto, Backend::kCompiled,
                                     Backend::kPackedCodegen};

TEST(VsimCompiled, DisplayOutputMatchesEventBackend) {
  const char* src = R"(
module m;
  reg signed [7:0] a;
  reg [11:0] u;
  initial begin
    a = -8'sd5;
    u = 12'hABC;
    $display("a=%d u=%h b=%b", a, u, u[3:0]);
    $display(a, u);
    $display("100%% done");
  end
endmodule
)";
  auto e = make_sim(src, "m", event_cfg());
  const RunResult re = e->run();
  ASSERT_EQ(re.display.size(), 3u);
  EXPECT_EQ(re.display[0], "a=-5 u=abc b=1100");
  EXPECT_EQ(re.display[2], "100% done");
  for (const Backend b : kNonEventBackends) {
    SimConfig cfg;
    cfg.backend = b;
    auto c = make_sim(src, "m", cfg);
    ASSERT_STREQ(c->backend(), "event");
    EXPECT_NE(c->fallback_reason().find("$display"), std::string::npos)
        << c->fallback_reason();
    EXPECT_EQ(c->run().display, re.display);
  }
}

TEST(VsimCompiled, VcdBytesIdenticalAcrossBackends) {
  // External-driver session with $dumpvars: every backend request must
  // record the same signals in the same order with the same value-change
  // bytes as the event kernel.
  const char* src = R"(
module m (input wire clk, input wire [3:0] x);
  reg [3:0] a;
  wire [3:0] b;
  assign b = x ^ a;
  initial begin
    $dumpfile("wave.vcd");
    $dumpvars;
    a = 4'd3;
  end
  always @(posedge clk) a <= a + x;
endmodule
)";
  auto drive = [](Simulation& s) {
    for (unsigned long long x : {1ull, 7ull, 2ull}) {
      s.poke("x", x);
      s.poke("clk", 1);
      s.settle();
      s.poke("clk", 0);
      s.settle();
    }
    return s.run();
  };
  auto e = make_sim(src, "m", event_cfg());
  const RunResult re = drive(*e);
  EXPECT_EQ(re.vcd_name, "wave.vcd");
  EXPECT_NE(re.vcd_text.find("$var"), std::string::npos);
  for (const Backend b : kNonEventBackends) {
    SimConfig cfg;
    cfg.backend = b;
    auto c = make_sim(src, "m", cfg);
    ASSERT_STREQ(c->backend(), "event");
    EXPECT_NE(c->fallback_reason().find("$dumpfile"), std::string::npos)
        << c->fallback_reason();
    const RunResult rc = drive(*c);
    EXPECT_EQ(rc.vcd_name, re.vcd_name);
    EXPECT_EQ(rc.vcd_text, re.vcd_text) << "VCD bytes diverged";
  }
}

// ---- Cache observability ----------------------------------------------------

TEST(VsimCompiled, DesignCacheCountsHitsAndSimulationsShareOnePlan) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const double d_hits0 = m.counter_value("vsim.design_cache.hits");
  const double compiles0 = m.counter_value("vsim.compile.designs");

  // Unique text (per-test suffix comment) so the first load is a miss.
  const std::string src = std::string(kSyncDesign) + "// cache-probe\n";
  auto d1 = load_design(src, "m");
  auto d2 = load_design(src, "m");
  EXPECT_EQ(d1.get(), d2.get()) << "second load must share the elaboration";
  EXPECT_GE(m.counter_value("vsim.design_cache.hits"), d_hits0 + 1.0);

  Simulation s1(d1);
  Simulation s2(d1);  // same Design -> the plan it keeps
  ASSERT_STREQ(s1.backend(), "compiled");
  ASSERT_STREQ(s2.backend(), "compiled");
  EXPECT_EQ(m.counter_value("vsim.compile.designs"), compiles0 + 1.0)
      << "two Simulations of one design compiled it twice";

  obs::set_enabled(was_enabled);
}

TEST(VsimCompiled, PlanLivesExactlyAsLongAsItsDesign) {
  // A Design owns its plan and every plan pointer shares the Design's
  // ownership: the plan is freed the moment the last holder of either lets
  // go, and stays put while one holds on. Fresh elaborations bypass the
  // design LRU, which would hold them.
  const SourceUnit su = parse(kSyncDesign);
  std::weak_ptr<const CompiledDesign> dropped;
  {
    const std::shared_ptr<const Design> d = elaborate(su, "m");
    dropped = compiled_plan(d, nullptr);
    ASSERT_FALSE(dropped.expired());
  }
  EXPECT_TRUE(dropped.expired()) << "a plan outlived every design holder";

  const std::shared_ptr<const Design> held = elaborate(su, "m");
  const std::weak_ptr<const CompiledDesign> held_plan =
      compiled_plan(held, nullptr);
  ASSERT_FALSE(held_plan.expired()) << "a held design lost its plan";
  EXPECT_EQ(compiled_plan(held, nullptr).get(), held_plan.lock().get());

  // A plan pointer alone keeps its design alive.
  std::weak_ptr<const Design> owner;
  std::shared_ptr<const CompiledDesign> plan;
  {
    const std::shared_ptr<const Design> d = elaborate(su, "m");
    owner = d;
    plan = compiled_plan(d, nullptr);
  }
  ASSERT_FALSE(owner.expired()) << "a held plan lost its design";
  EXPECT_EQ(plan->design, owner.lock().get());
  plan.reset();
  EXPECT_TRUE(owner.expired());
}

TEST(VsimCompiled, FailedCompilationIsMemoizedToo) {
  auto design = load_design(R"(
module m;
  reg r;
  initial #1 r = 1;
endmodule
)",
                            "m");
  std::string why1, why2;
  EXPECT_EQ(compiled_plan(design, &why1), nullptr);
  EXPECT_EQ(compiled_plan(design, &why2), nullptr);
  EXPECT_EQ(why1, why2);
  EXPECT_FALSE(why1.empty());
}

TEST(VsimCompiled, StatsCountEventsAndCommitsOnCompiledBackend) {
  auto sim = make_sim(kSyncDesign, "m");
  ASSERT_STREQ(sim->backend(), "compiled");
  const SimStats before = sim->stats();
  sim->poke("rst", 0);
  sim->poke("x", 9);
  sim->poke("clk", 1);
  sim->settle();
  const SimStats after = sim->stats();
  EXPECT_GT(after.events, before.events);
  EXPECT_GT(after.nba_commits, before.nba_commits);
  EXPECT_GT(after.delta_cycles, before.delta_cycles);
}

}  // namespace
}  // namespace hlsw::vsim
