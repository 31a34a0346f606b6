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

#include <algorithm>
#include <cctype>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/builder.h"
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

// ---- Lane golden ------------------------------------------------------------
//
// Interpreter::run_streams runs a sweep batch's reference blocks in
// lockstep. Every lane must read exactly what a fresh run_stream of its
// block does.

// Blocks of `block` consecutive vectors, each replayed from reset.
std::vector<std::vector<PortIo>> blocks_of(const std::vector<PortIo>& v,
                                           std::size_t block) {
  std::vector<std::vector<PortIo>> out;
  for (std::size_t b = 0; b < v.size(); b += block)
    out.emplace_back(v.begin() + static_cast<long>(b),
                     v.begin() + static_cast<long>(std::min(b + block,
                                                            v.size())));
  return out;
}

// Runs `blocks` through run_streams `lanes` blocks at a time (the sweep's
// batches) and checks each lane against `want`; returns the ops executed.
long long check_lane_batches(const hls::Function& f,
                             const std::vector<std::vector<PortIo>>& blocks,
                             const std::vector<std::vector<PortIo>>& want,
                             std::size_t lanes, const std::string& what) {
  long long ops = 0;
  for (std::size_t first = 0; first < blocks.size(); first += lanes) {
    const std::size_t n = std::min(lanes, blocks.size() - first);
    const std::vector<std::vector<PortIo>> batch(
        blocks.begin() + static_cast<long>(first),
        blocks.begin() + static_cast<long>(first + n));
    Interpreter golden(f);
    std::vector<std::size_t> seen(n, 0);
    golden.run_streams(batch, [&](std::size_t l, std::size_t i, PortIo out) {
      ASSERT_EQ(i, seen[l]++) << what;
      expect_same_io(want[first + l][i], out,
                     what + " block " + std::to_string(first + l),
                     static_cast<int>(i));
    });
    for (std::size_t l = 0; l < n; ++l)
      EXPECT_EQ(seen[l], want[first + l].size()) << what;
    ops += golden.ops_executed();
  }
  return ops;
}

TEST(LaneGolden, EveryArchitectureMatchesPerBlockReplay) {
  std::vector<qam::Architecture> archs = qam::exploration_architectures();
  for (const auto& a : qam::table1_architectures()) archs.push_back(a);
  ASSERT_EQ(archs.size(), 14u);
  LinkStimulus stim((LinkConfig()));
  const auto blocks = blocks_of(qam::link_input_batch(&stim, 2000), 25);
  for (const auto& a : archs) {
    const auto r = run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                                 TechLibrary::asic90());
    std::vector<std::vector<PortIo>> want;
    long long ops = 0;
    for (const auto& b : blocks) {
      Interpreter one(r.transformed);
      want.push_back(one.run_stream(b));
      ops += one.ops_executed();
    }
    for (const std::size_t lanes : {1, 8, 64}) {
      const std::string what = a.name + " at " + std::to_string(lanes);
      EXPECT_EQ(check_lane_batches(r.transformed, blocks, want, lanes, what),
                ops)
          << what;
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LaneGolden, BadInputOnAnyLaneThrowsNamingThePort) {
  const auto r = run_synthesis(qam::build_qam_decoder_ir(),
                               qam::table1_architectures()[0].dir,
                               TechLibrary::asic90());
  LinkStimulus stim((LinkConfig()));
  const auto blocks = blocks_of(qam::link_input_batch(&stim, 40 * 4), 4);
  const auto expect_throw = [&](std::vector<std::vector<PortIo>> streams,
                                const char* what) {
    try {
      Interpreter(r.transformed)
          .run_streams(streams, [](std::size_t, std::size_t, PortIo) {});
      ADD_FAILURE() << what << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("x_in"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const std::size_t lane : {0, 5, 37}) {
    auto missing = blocks;
    missing[lane][2].arrays.erase("x_in");
    expect_throw(missing, "missing port");
    auto wrong = blocks;
    wrong[lane][1].arrays["x_in"].push_back(wrong[lane][1].arrays["x_in"][0]);
    expect_throw(wrong, "wrong length");
  }
}

// A state type wider than 64 bits keeps the lanes' planes at 128 bits.
TEST(LaneGolden, StateWiderThan64BitsMatchesPerStreamReplay) {
  hls::FunctionBuilder fb("wide_state");
  const int in = fb.add_var("in", hls::fx(40, 20), false, hls::PortDir::kIn);
  const int acc =
      fb.add_var("acc", hls::fx(96, 56), true, hls::PortDir::kOut);
  const int hist =
      fb.add_array("hist", 4, hls::fx(96, 56), true, hls::PortDir::kOut);
  {
    auto b = fb.loop("l", 4);
    const int x = b.var_read(in);
    const int sq = b.cast(hls::fx(96, 56), b.mul(x, x));
    const int sum = b.cast(hls::fx(96, 56), b.add(b.var_read(acc), sq));
    b.var_write(acc, sum);
    b.array_write(hist, {1, 0}, sum);
  }
  const hls::Function f = fb.build();
  std::mt19937_64 rng(96);
  std::vector<std::vector<PortIo>> streams(Interpreter::kLaneWidth / 2 + 1);
  for (auto& s : streams)
    for (int i = 0; i < 3; ++i) {
      PortIo io;
      hls::FxValue v;
      v.fw = 20;
      v.re = static_cast<long long>(rng() % (1ULL << 40)) - (1LL << 39);
      io.vars["in"] = v;
      s.push_back(io);
    }
  // One cycle per iteration, committed at its end: the op-by-op path runs
  // the untimed semantics here (no array is read).
  const hls::Schedule one_cycle = hls::untimed_schedule(f);
  std::vector<std::vector<PortIo>> want;
  for (const auto& s : streams) {
    want.push_back(Interpreter(f).run_stream(s));
    ASSERT_GT(want.back().back().vars.at("acc").re,
              static_cast<__int128>(1) << 64)
        << "the accumulator must leave 64 bits";
    Simulator legacy(f, one_cycle, {.compiled = false});
    const std::vector<PortIo> ref = legacy.run_stream(s);
    for (std::size_t i = 0; i < s.size(); ++i)
      expect_same_io(want.back()[i], ref[i], "run_stream vs op by op",
                     static_cast<int>(i));
  }
  EXPECT_GT(check_lane_batches(f, streams, want, streams.size(), "wide"), 0);
}

}  // namespace
}  // namespace hlsw::rtl
