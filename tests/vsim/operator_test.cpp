// The operator table end to end: one continuous assign per unary and
// binary spelling the vsim front end accepts — including spellings the
// emitter never produces (^~, ~&, ~|, !==, %, ...) — over unsigned and
// signed operands of 8 and 64 bits plus a mixed-signedness pair, driven
// with edge values: 0, +-1, min, max, shift amounts at and past the width,
// division by 0 and by -1. The event kernel, the compiled tape interpreter
// and the one-lane native engine (when a host toolchain is present) must
// agree on every result, value for value; a handful of hand-computed
// results pin the sizing rules all three share through the elaborator.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/pack.h"
#include "vsim/sim.h"

namespace hlsw::vsim {
namespace {

const char* const kUnary[] = {"-", "+", "~",  "!", "&",  "~&",
                              "|", "~|", "^", "~^", "^~"};
const char* const kBinary[] = {"+",  "-",  "*",   "/",  "%",   "&",
                               "|",  "^",  "~^",  "^~", "<<",  "<<<",
                               ">>", ">>>", "<",  "<=", ">",   ">=",
                               "==", "!=", "===", "!==", "&&", "||"};

// One operand class: the two input ports an operator reads, and the
// declaration of the wires its results land in (wider than the 8-bit
// operands, so context-width extension is exercised too).
struct OperandClass {
  const char* tag;
  const char* a;
  const char* b;
  const char* result_decl;
};
const OperandClass kClasses[] = {
    {"u8", "ua", "ub", "wire [15:0]"},
    {"s8", "sa", "sb", "wire signed [15:0]"},
    {"m8", "sa", "ub", "wire [15:0]"},  // signed op unsigned: unsigned
    {"u64", "wa", "wb", "wire [63:0]"},
    {"s64", "xa", "xb", "wire signed [63:0]"},
};

std::string result_name(const OperandClass& c, bool unary, int i) {
  return std::string(c.tag) + (unary ? "_u" : "_b") + std::to_string(i);
}

// The module, plus the result wire names in declaration order.
std::string operator_module(std::vector<std::string>* results) {
  std::string decls, assigns;
  for (const OperandClass& c : kClasses) {
    for (int i = 0; i < static_cast<int>(std::size(kUnary)); ++i) {
      const std::string n = result_name(c, true, i);
      results->push_back(n);
      decls += "  " + std::string(c.result_decl) + " " + n + ";\n";
      assigns += "  assign " + n + " = " + kUnary[i] + c.a + ";\n";
    }
    for (int i = 0; i < static_cast<int>(std::size(kBinary)); ++i) {
      const std::string n = result_name(c, false, i);
      results->push_back(n);
      decls += "  " + std::string(c.result_decl) + " " + n + ";\n";
      assigns += "  assign " + n + " = " + c.a + " " + kBinary[i] + " " +
                 c.b + ";\n";
    }
  }
  return "module ops (\n"
         "  input wire [7:0] ua, input wire [7:0] ub,\n"
         "  input wire signed [7:0] sa, input wire signed [7:0] sb,\n"
         "  input wire [63:0] wa, input wire [63:0] wb,\n"
         "  input wire signed [63:0] xa, input wire signed [63:0] xb\n"
         ");\n" +
         decls + assigns + "endmodule\n";
}

constexpr std::uint64_t kMin64 = 1ULL << 63;
const std::uint64_t kEdge8[] = {0, 1, 0xff, 0x80, 0x7f, 7, 8, 9, 200};
const std::uint64_t kEdge64[] = {0,      1,  ~0ULL, kMin64, kMin64 - 1,
                                 63,     64, 65,    1000};

// Drives one edge-value pair into every operand class of a one-lane
// engine, settles, and reads every result wire.
std::vector<std::uint64_t> evaluate(PackedEngine& e,
                                    const std::vector<std::string>& results,
                                    int i, int j) {
  const Design& d = e.design();
  const auto poke = [&](const char* name, std::uint64_t v) {
    e.poke(d.find(name), v, e.full_mask());
  };
  poke("ua", kEdge8[i]);
  poke("sa", kEdge8[i]);
  poke("ub", kEdge8[j]);
  poke("sb", kEdge8[j]);
  poke("wa", kEdge64[i]);
  poke("xa", kEdge64[i]);
  poke("wb", kEdge64[j]);
  poke("xb", kEdge64[j]);
  e.settle();
  std::vector<std::uint64_t> out;
  out.reserve(results.size());
  for (const std::string& r : results) out.push_back(e.peek(d.find(r), 0));
  return out;
}

int index_of(const char* const* table, int n, const std::string& spelling) {
  for (int i = 0; i < n; ++i)
    if (spelling == table[i]) return i;
  return -1;
}

TEST(VsimOperators, EveryEngineAgreesOnEverySpellingAtEdgeValues) {
  std::vector<std::string> results;
  const auto design = load_design(operator_module(&results), "ops");

  std::string why;
  const auto engine = [&](Backend backend) {
    SimConfig cfg;
    cfg.backend = backend;
    return make_packed_engine(design, 1, cfg, &why);
  };
  const auto event = engine(Backend::kEvent);
  const auto compiled = engine(Backend::kCompiled);
  ASSERT_STREQ(compiled->backend(), "compiled") << why;
  std::unique_ptr<PackedEngine> native;
  if (codegen_available()) {
    native = engine(Backend::kPackedCodegen);
    ASSERT_STREQ(native->backend(), "packed_codegen") << why;
  }

  const int n = static_cast<int>(std::size(kEdge8));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const auto ev = evaluate(*event, results, i, j);
      const auto cv = evaluate(*compiled, results, i, j);
      for (std::size_t r = 0; r < results.size(); ++r)
        ASSERT_EQ(ev[r], cv[r]) << results[r] << " at operands (" << i
                                << ", " << j << "): event vs compiled";
      if (!native) continue;
      const auto nv = evaluate(*native, results, i, j);
      for (std::size_t r = 0; r < results.size(); ++r)
        ASSERT_EQ(ev[r], nv[r]) << results[r] << " at operands (" << i
                                << ", " << j << "): event vs native";
    }
  }
  if (!native) GTEST_SKIP() << "no host C++ toolchain: native leg not run";
}

TEST(VsimOperators, HandComputedResultsPinTheSizingRules) {
  std::vector<std::string> results;
  const auto design = load_design(operator_module(&results), "ops");
  SimConfig cfg;
  cfg.backend = Backend::kEvent;
  Simulation sim(design, cfg);

  const auto at = [&](const char* tag, const char* spelling, bool unary,
                      std::uint64_t a, std::uint64_t b) {
    const OperandClass* c = nullptr;
    for (const OperandClass& k : kClasses)
      if (std::string(k.tag) == tag) c = &k;
    const int i = unary ? index_of(kUnary, std::size(kUnary), spelling)
                        : index_of(kBinary, std::size(kBinary), spelling);
    EXPECT_TRUE(c != nullptr && i >= 0) << tag << " " << spelling;
    const bool wide = tag[1] == '6';
    sim.poke(wide ? "wa" : "ua", a);
    sim.poke(wide ? "xa" : "sa", a);
    sim.poke(wide ? "wb" : "ub", b);
    sim.poke(wide ? "xb" : "sb", b);
    sim.settle();
    return sim.peek(result_name(*c, unary, i));
  };

  // Signed division in a 16-bit context: -128 / -1 = 128 fits; by zero is
  // zero; the 64-bit -min / -1 wraps to min and its remainder is zero.
  EXPECT_EQ(at("s8", "/", false, 0x80, 0xff), 0x0080u);
  EXPECT_EQ(at("s8", "%", false, 0x80, 0), 0u);
  EXPECT_EQ(at("u8", "/", false, 0xff, 0), 0u);
  EXPECT_EQ(at("s64", "/", false, kMin64, ~0ULL), kMin64);
  EXPECT_EQ(at("s64", "%", false, kMin64, ~0ULL), 0u);
  // Shifts past the width: >>> fills with the sign only in a signed
  // context, and a shift's signedness is its left operand's.
  EXPECT_EQ(at("s8", ">>>", false, 0x80, 200), 0xffffu);
  EXPECT_EQ(at("u8", ">>>", false, 0x80, 9), 0u);
  EXPECT_EQ(at("m8", ">>>", false, 0x80, 1), 0xffc0u);
  EXPECT_EQ(at("u64", "<<", false, ~0ULL, 64), 0u);
  EXPECT_EQ(at("s64", ">>>", false, kMin64, 1000), ~0ULL);
  // Comparisons are signed only when both operands are.
  EXPECT_EQ(at("s8", "<", false, 0x80, 0x7f), 1u);
  EXPECT_EQ(at("m8", "<", false, 0x80, 0x7f), 0u);
  EXPECT_EQ(at("s8", "!==", false, 0xff, 0xff), 0u);
  // Unary minus extends to the context first; reductions are 1 bit.
  EXPECT_EQ(at("s8", "-", true, 0x80, 0), 0x0080u);
  EXPECT_EQ(at("u8", "-", true, 0x80, 0), 0xff80u);
  EXPECT_EQ(at("u8", "~&", true, 0xff, 0), 0u);
  EXPECT_EQ(at("u8", "^~", true, 0x7f, 0), 0u);
  EXPECT_EQ(at("u8", "~|", true, 0, 0), 1u);
}

}  // namespace
}  // namespace hlsw::vsim
