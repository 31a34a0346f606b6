// Backend selection and fallback behavior of the compiled cycle-based
// vsim engine (compile.h): cycle-schedulable designs silently get the
// levelized backend, anything with time control / $finish / zero-delay
// feedback silently keeps the event kernel — and the two backends are
// observably identical (values, $display text, VCD bytes, stats-visible
// protocol) wherever both can run.
#include <gtest/gtest.h>

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
  cfg.compiled = false;
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

TEST(VsimCompiled, CompiledFalseForcesEventBackend) {
  auto sim = make_sim(kSyncDesign, "m", event_cfg());
  EXPECT_STREQ(sim->backend(), "event");
  EXPECT_EQ(sim->fallback_reason(), "");
}

// ---- Observable-output equivalence -----------------------------------------

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
  auto c = make_sim(src, "m");
  auto e = make_sim(src, "m", event_cfg());
  ASSERT_STREQ(c->backend(), "compiled");
  const RunResult rc = c->run();
  const RunResult re = e->run();
  EXPECT_EQ(rc.display, re.display);
  ASSERT_EQ(rc.display.size(), 3u);
  EXPECT_EQ(rc.display[0], "a=-5 u=abc b=1100");
  EXPECT_EQ(rc.display[2], "100% done");
}

TEST(VsimCompiled, VcdBytesIdenticalAcrossBackends) {
  // External-driver session with $dumpvars: both backends must record the
  // same signals in the same order with the same value-change bytes.
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
  auto c = make_sim(src, "m");
  auto e = make_sim(src, "m", event_cfg());
  ASSERT_STREQ(c->backend(), "compiled");
  const RunResult rc = drive(*c);
  const RunResult re = drive(*e);
  EXPECT_EQ(rc.vcd_name, "wave.vcd");
  EXPECT_EQ(rc.vcd_name, re.vcd_name);
  EXPECT_EQ(rc.vcd_text, re.vcd_text) << "VCD bytes diverged";
  EXPECT_NE(rc.vcd_text.find("$var"), std::string::npos);
}

// ---- Cache observability ----------------------------------------------------

TEST(VsimCompiled, PlanAndDesignCachesCountHits) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const double d_hits0 = m.counter_value("vsim.design_cache.hits");
  const double p_hits0 = m.counter_value("vsim.plan_cache.hits");

  // Unique text (per-test suffix comment) so the first load is a miss.
  const std::string src = std::string(kSyncDesign) + "// cache-probe\n";
  auto d1 = load_design(src, "m");
  auto d2 = load_design(src, "m");
  EXPECT_EQ(d1.get(), d2.get()) << "second load must share the elaboration";
  EXPECT_GE(m.counter_value("vsim.design_cache.hits"), d_hits0 + 1.0);

  Simulation s1(d1);
  Simulation s2(d1);  // same Design* -> memoized plan
  ASSERT_STREQ(s1.backend(), "compiled");
  ASSERT_STREQ(s2.backend(), "compiled");
  EXPECT_GE(m.counter_value("vsim.plan_cache.hits"), p_hits0 + 1.0);

  obs::set_enabled(was_enabled);
}

TEST(VsimCompiled, PlanCacheReleasesDesignsOnlyItCanReach) {
  // A compiled plan owns its Design, so the cache's weak key alone never
  // expires: once the cache outgrows its sweep threshold it must also drop
  // entries nobody else can reach, and keep the ones a caller still holds.
  // Fresh elaborations bypass the design LRU, which would hold them.
  const SourceUnit su = parse(kSyncDesign);
  std::weak_ptr<const Design> dropped;
  {
    const std::shared_ptr<const Design> d = elaborate(su, "m");
    ASSERT_NE(compiled_plan(d, nullptr), nullptr);
    dropped = d;
  }
  ASSERT_FALSE(dropped.expired()) << "the cached plan owns the design";
  const std::shared_ptr<const Design> held = elaborate(su, "m");
  const CompiledDesign* held_plan = compiled_plan(held, nullptr).get();
  ASSERT_NE(held_plan, nullptr);

  for (int i = 0; i < 70; ++i)
    ASSERT_NE(compiled_plan(elaborate(su, "m"), nullptr), nullptr);

  EXPECT_TRUE(dropped.expired())
      << "plan cache kept a design no caller can present again";
  EXPECT_EQ(compiled_plan(held, nullptr).get(), held_plan)
      << "a design still held by a caller lost its memoized plan";
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
