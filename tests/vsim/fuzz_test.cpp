// Robustness of the Verilog front end under hostile input. The corpus is
// what the flow really feeds it — the emitted module and the module plus
// its self-checking testbench for each of 13 architectures — and
// each trial mutates one corpus entry with byte flips, deletions,
// truncation and spliced token runs before running lex -> parse ->
// elaborate -> lint on it. Every input must either elaborate or throw
// std::runtime_error naming the offending source line; any other
// exception, a crash, a hang or (under HLSW_SANITIZE=address/undefined) an
// out-of-bounds access or undefined behaviour fails the test. The one
// error without a source line is a top module the mutation renamed away.
// A second test mutates the testbench text alone and elaborates it with its
// DUT instance bound to the unmutated module's design, under the same rule.
//
// Labeled `fuzz`: HLSW_FUZZ_ITERS=20000 ctest -L fuzz scales the trials.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "../fuzz_iters.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/elab.h"
#include "vsim/lint.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

struct Source {
  std::string text;
  std::string top;
  Bindings bound;  // the unmutated DUT, for a testbench parsed alone
};

// The 13 architectures: the ten exploration ones plus the feasibility
// oracle's three unrolled-and-pipelined extras (SRAM coefficients, a
// two-multiplier cap, a 3 ns clock).
std::vector<hls::Directives> architectures() {
  std::vector<hls::Directives> out;
  for (const qam::Architecture& a : qam::exploration_architectures())
    out.push_back(a.dir);
  for (int extra = 0; extra < 3; ++extra) {
    hls::Directives d;
    d.clock_period_ns = extra == 2 ? 3.0 : 10.0;
    if (extra == 0) {
      d.arrays["ffe_c"].mapping = hls::ArrayMapping::kMemory;
      d.arrays["dfe_c"].mapping = hls::ArrayMapping::kMemory;
    }
    if (extra == 1) d.max_real_multipliers = 2;
    for (const char* loop : {"ffe", "dfe"}) {
      d.loops[loop].unroll = 4;
      d.loops[loop].pipeline_ii = 1;
    }
    out.push_back(std::move(d));
  }
  return out;
}

// Emitted module, module + testbench, and (with `bound_tbs`) the testbench
// alone with its DUT's design bound, per architecture.
std::vector<Source> corpus(bool bound_tbs = false) {
  std::vector<Source> out;
  for (const hls::Directives& dir : architectures()) {
    const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), dir,
                                      hls::TechLibrary::asic90());
    const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
    qam::LinkStimulus stim((qam::LinkConfig()));
    const auto tvs = rtl::capture_vectors(r.transformed, r.schedule,
                                          qam::link_input_batch(&stim, 2));
    const std::string tb =
        rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
    out.push_back({v, r.transformed.name, {}});
    out.push_back({v + "\n" + tb, r.transformed.name + "_tb", {}});
    if (bound_tbs)
      out.push_back({tb, r.transformed.name + "_tb",
                     {{r.transformed.name,
                       elaborate(parse(v), r.transformed.name)}}});
  }
  return out;
}

bool is_space(char c) { return c == ' ' || c == '\n' || c == '\t'; }

// A run of 1..12 whitespace-delimited words of `donor` — in emitted
// Verilog nearly every token is its own word, so this splices token runs.
std::string word_run(const std::string& donor, std::mt19937_64* rng) {
  std::size_t b = (*rng)() % donor.size();
  while (b > 0 && !is_space(donor[b - 1])) --b;
  std::size_t e = b;
  const int words = 1 + static_cast<int>((*rng)() % 12);
  for (int w = 0; w < words && e < donor.size(); ++w) {
    while (e < donor.size() && is_space(donor[e])) ++e;
    while (e < donor.size() && !is_space(donor[e])) ++e;
  }
  return donor.substr(b, e - b);
}

std::string mutate(std::string s, const std::vector<Source>& all,
                   std::mt19937_64* rng) {
  static const char kBytes[] =
      "()[]{}:;,.@#?=!~&|^+-*/%<>'\"`$_ \n09azAZsdhbo\xff";
  const int n = 1 + static_cast<int>((*rng)() % 2);
  for (int m = 0; m < n && !s.empty(); ++m) {
    const std::size_t pos = (*rng)() % s.size();
    switch ((*rng)() % 10) {
      case 0: case 1: case 2: case 3:  // byte flip (NUL included)
        s[pos] = kBytes[(*rng)() % sizeof(kBytes)];
        break;
      case 4: case 5:  // deletion
        s.erase(pos, 1 + (*rng)() % 16);
        break;
      case 6:  // truncation
        s.resize(pos);
        break;
      default: {  // splice a token run from any corpus entry
        const std::string& donor = all[(*rng)() % all.size()].text;
        std::size_t at = pos;
        while (at < s.size() && !is_space(s[at])) ++at;
        s.insert(at, " " + word_run(donor, rng) + " ");
        break;
      }
    }
  }
  return s;
}

// Runs the front end; returns "" on success or the error message.
std::string front_end(const std::string& text, const std::string& top,
                      const Bindings& bound = {}) {
  try {
    const SourceUnit su = parse(text);
    const auto design = elaborate(su, top, bound);
    lint(*design);
    return "";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    return msg.empty() ? "<empty message>" : msg;
  }
}

bool names_a_line(const std::string& msg) {
  const std::size_t at = msg.find(" at line ");
  return at != std::string::npos && at + 9 < msg.size() &&
         msg[at + 9] >= '1' && msg[at + 9] <= '9';
}

TEST(VsimFuzz, MutatedSourcesElaborateOrFailNamingALine) {
  const std::vector<Source> all = corpus();
  for (const Source& s : all)
    ASSERT_EQ(front_end(s.text, s.top), "") << "unmutated " << s.top;

  std::mt19937_64 rng(0x5eed7e57);
  const int trials = fuzz_iters(400);
  int rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const Source& s = all[static_cast<std::size_t>(trial) % all.size()];
    const std::string text = mutate(s.text, all, &rng);
    std::string msg;
    try {
      msg = front_end(text, s.top);
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": " << s.top
             << " threw a non-runtime_error: " << e.what();
    }
    if (msg.empty()) continue;
    ++rejected;
    const bool top_gone =
        msg == "vsim elaboration error: unknown module '" + s.top + "'";
    ASSERT_TRUE(names_a_line(msg) || top_gone)
        << "trial " << trial << ": " << s.top << ": " << msg;
  }
  // Coverage evidence: the mutations really reach the error paths, and
  // some inputs still elaborate.
  EXPECT_GT(rejected, trials / 4);
  EXPECT_LT(rejected, trials);
}

TEST(VsimFuzz, MutatedTestbenchesBindOrFailNamingALine) {
  const std::vector<Source> all = corpus(/*bound_tbs=*/true);
  std::vector<const Source*> tbs;
  for (const Source& s : all)
    if (!s.bound.empty()) tbs.push_back(&s);
  ASSERT_EQ(tbs.size(), 13u);
  for (const Source* s : tbs)
    ASSERT_EQ(front_end(s->text, s->top, s->bound), "")
        << "unmutated " << s->top;

  std::mt19937_64 rng(0x5eed7e58);
  const int trials = fuzz_iters(400);
  int rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const Source& s = *tbs[static_cast<std::size_t>(trial) % tbs.size()];
    const std::string text = mutate(s.text, all, &rng);
    std::string msg;
    try {
      msg = front_end(text, s.top, s.bound);
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": " << s.top
             << " threw a non-runtime_error: " << e.what();
    }
    if (msg.empty()) continue;
    ++rejected;
    const bool top_gone =
        msg == "vsim elaboration error: unknown module '" + s.top + "'";
    ASSERT_TRUE(names_a_line(msg) || top_gone)
        << "trial " << trial << ": " << s.top << ": " << msg;
  }
  EXPECT_GT(rejected, trials / 4);
  EXPECT_LT(rejected, trials);
}

}  // namespace
}  // namespace hlsw::vsim
