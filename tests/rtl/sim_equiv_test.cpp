// Bit-equivalence battery for the compiled execution plan (the perf PR's
// safety net): the compiled simulator, the legacy interpretive simulator
// (SimOptions::compiled = false) and the untimed hls::Interpreter on the
// same transformed IR must agree on EVERYTHING observable — per-symbol
// PortIo outputs (all arrays and vars), cycle counts, the full SimStats
// instrument panel and the final architectural state — across every Table 1
// and exploration architecture plus randomized directive sets in the spirit
// of the DSE candidate generator. The batched run_stream() forms are pinned
// to the per-symbol run() loop the same way.
#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"

namespace hlsw::rtl {
namespace {

using hls::Directives;
using hls::Interpreter;
using hls::PortIo;
using hls::run_synthesis;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

// Full-map PortIo comparison (every port, both components, widths and
// complex flags — FxValue equality is member-wise).
void expect_same_io(const PortIo& a, const PortIo& b, const std::string& what,
                    int symbol) {
  ASSERT_TRUE(a.arrays == b.arrays && a.vars == b.vars)
      << what << " diverged at symbol " << symbol;
}

// Drives `symbols` link symbols through compiled, legacy and interpreter
// models of one synthesized design and asserts bit-identity everywhere.
void run_battery(const Directives& dir, const std::string& name,
                 int symbols) {
  const auto r =
      run_synthesis(qam::build_qam_decoder_ir(), dir, TechLibrary::asic90());
  Interpreter golden(r.transformed);
  Simulator compiled(r.transformed, r.schedule);
  Simulator legacy(r.transformed, r.schedule, {.compiled = false});
  ASSERT_TRUE(compiled.options().compiled);
  ASSERT_FALSE(legacy.options().compiled);

  LinkStimulus stim((LinkConfig()));
  for (int n = 0; n < symbols; ++n) {
    const auto s = stim.next();
    PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    const PortIo want = golden.run(io);
    const PortIo got_c = compiled.run(io);
    const PortIo got_l = legacy.run(io);
    expect_same_io(want, got_c, name + " interpreter-vs-compiled", n);
    expect_same_io(got_c, got_l, name + " compiled-vs-legacy", n);
    ASSERT_EQ(compiled.cycles(), legacy.cycles()) << name << " symbol " << n;
  }
  // The instrument panels must be indistinguishable: same cycles, same op
  // counts, same per-region activity, same commit-queue peaks.
  EXPECT_TRUE(compiled.stats() == legacy.stats()) << name;
  EXPECT_EQ(compiled.cycles(), symbols * r.schedule.latency_cycles) << name;
  // Final architectural state (coefficients, delay lines) bit-identical.
  for (const char* arr : {"ffe_c", "dfe_c", "x", "SV"}) {
    ASSERT_TRUE(compiled.array_state(arr) == legacy.array_state(arr))
        << name << " state " << arr;
    ASSERT_TRUE(compiled.array_state(arr) == golden.array_state(arr))
        << name << " state " << arr << " vs interpreter";
  }
}

class ArchitectureEquiv : public ::testing::TestWithParam<int> {};

TEST_P(ArchitectureEquiv, CompiledLegacyInterpreterBitIdentical) {
  const auto archs = qam::exploration_architectures();
  const auto& a = archs[static_cast<size_t>(GetParam())];
  run_battery(a.dir, a.name, 300);
}

std::string arch_equiv_name(const ::testing::TestParamInfo<int>& info) {
  auto n = qam::exploration_architectures()[static_cast<size_t>(info.param)]
               .name;
  std::string out;
  for (char c : n)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ArchitectureEquiv,
                         ::testing::Range(0, 9), arch_equiv_name);

TEST(SimEquiv, RandomizedDirectiveSets) {
  // Random points from the same design space the DSE candidate generator
  // walks: merge on/off x unroll {1,2,4} per loop x optional pipelining of
  // the (possibly merged) loop heads x clock period. Seeded, so failures
  // reproduce.
  const char* labels[] = {"ffe",       "dfe",       "ffe_adapt",
                          "dfe_adapt", "ffe_shift", "dfe_shift"};
  std::mt19937 rng(20260805);
  auto pick = [&](auto... v) {
    const int vals[] = {v...};
    return vals[rng() % (sizeof...(v))];
  };
  for (int cfg = 0; cfg < 8; ++cfg) {
    Directives dir;
    dir.clock_period_ns = pick(10, 10, 5);
    const bool merged = (rng() % 2) != 0;
    if (merged) dir.merge_groups = qam::default_merge_groups();
    for (const char* l : labels) {
      const int u = pick(1, 1, 2, 4);
      if (u > 1) dir.loops[l].unroll = u;
    }
    if (merged && (rng() % 2) != 0) {
      // Pipeline the merged loop heads (the architectures.cpp idiom).
      dir.loops["ffe"].pipeline_ii = 1;
      dir.loops["ffe_adapt"].pipeline_ii = 1;
      dir.loops["ffe"].unroll = 1;
      dir.loops["ffe_adapt"].unroll = 1;
      dir.loops["dfe"].unroll = 1;
      dir.loops["dfe_adapt"].unroll = 1;
    }
    run_battery(dir, "random#" + std::to_string(cfg), 120);
  }
}

TEST(SimEquiv, StreamFormsMatchPerSymbolRun) {
  // The batched API vs the per-symbol loop on identical stimulus: outputs,
  // cycle counts and SimStats must be bit-identical, on the pipelined
  // architecture where the plan is most intricate.
  const auto archs = qam::exploration_architectures();
  const qam::Architecture* pipe = nullptr;
  for (const auto& a : archs)
    if (a.name == "merge+pipe") pipe = &a;
  ASSERT_NE(pipe, nullptr);
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), pipe->dir,
                               TechLibrary::asic90());

  const int kSymbols = 500;
  LinkStimulus sa((LinkConfig())), sc((LinkConfig()));
  const std::vector<PortIo> batch = qam::link_input_batch(&sa, kSymbols);

  Simulator per_symbol(r.transformed, r.schedule);
  Simulator batched(r.transformed, r.schedule);

  std::vector<PortIo> ref;
  for (int n = 0; n < kSymbols; ++n) {
    const auto s = sc.next();
    PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    ref.push_back(per_symbol.run(io));
  }
  const std::vector<PortIo> got_batch = batched.run_stream(batch);

  ASSERT_EQ(got_batch.size(), ref.size());
  for (int n = 0; n < kSymbols; ++n)
    expect_same_io(ref[static_cast<size_t>(n)],
                   got_batch[static_cast<size_t>(n)], "run_stream(batch)", n);
  EXPECT_TRUE(per_symbol.stats() == batched.stats());
  EXPECT_EQ(per_symbol.cycles(), batched.cycles());
}

TEST(SimEquiv, StreamFormsWorkOnLegacyPathToo) {
  // run_stream is an API of the simulator, not of the compiled plan: the
  // legacy path must produce the same batched results.
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  const int kSymbols = 200;
  LinkStimulus sa((LinkConfig())), sb((LinkConfig()));
  const std::vector<PortIo> batch_l = qam::link_input_batch(&sa, kSymbols);
  const std::vector<PortIo> batch_c = qam::link_input_batch(&sb, kSymbols);

  Simulator legacy(r.transformed, r.schedule, {.compiled = false});
  Simulator compiled(r.transformed, r.schedule);
  const std::vector<PortIo> out_l = legacy.run_stream(batch_l);
  const std::vector<PortIo> out_c = compiled.run_stream(batch_c);
  ASSERT_EQ(out_l.size(), static_cast<std::size_t>(kSymbols));
  ASSERT_EQ(out_c.size(), static_cast<std::size_t>(kSymbols));
  for (int n = 0; n < kSymbols; ++n)
    expect_same_io(out_l[static_cast<size_t>(n)],
                   out_c[static_cast<size_t>(n)],
                   "legacy-stream vs compiled-batch", n);
  EXPECT_TRUE(legacy.stats() == compiled.stats());
}

TEST(SimEquiv, MissingStreamPortThrows) {
  const qam::Architecture a = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                               TechLibrary::asic90());
  Simulator sim(r.transformed, r.schedule);
  // No "x_in" port bound.
  EXPECT_THROW(sim.run_stream({PortIo{}}), std::invalid_argument);
}

}  // namespace
}  // namespace hlsw::rtl
