// Randomized end-to-end property test of the whole engine: generate random
// loop-structured programs (random arrays, vars, arithmetic DAGs, loops
// with affine accesses), push them through random directive sets, and check
// the two invariants that define correctness:
//
//   1. the schedule passes the independent verifier;
//   2. the cycle-accurate RTL simulation of the scheduled design matches
//      the untimed interpreter of the same transformed IR bit for bit —
//      every output port and every array, on both the compiled plan and
//      the op-by-op interpretive path, with identical op counts.
//
// A wide generator mode declares types above 62 bits with SAT/SAT_SYM/WRAP
// casts, so its programs fail the plan compiler's int64 proof and run the
// 128-bit executor and the general (kFull) conversion. A conversion mode
// draws every quantization and overflow mode, narrow and wide, so both
// instantiations of the executor template see each one.
//
// The emitted Verilog of every random program is also executed: either the
// emitter refuses the program (a region can carry values wider than its
// 64-bit datapath) or the text matches the golden on every vsim engine.
//
// Unroll-only transforms are additionally checked against the ORIGINAL
// program (unrolling must preserve sequential semantics exactly); merges
// are excluded from that check since iteration-aligned merging legitimately
// reorders memory traffic (the engine warns).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <random>
#include <regex>
#include <stdexcept>

#include "../fuzz_iters.h"
#include "hls/builder.h"
#include "hls/dse.h"
#include "hls/feasibility.h"
#include "hls/interp.h"
#include "hls/plan.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::hls {
namespace {

struct RandomProgram {
  Function func;
  std::vector<std::string> in_vars;
  std::vector<std::string> loop_labels;
  bool wide = false;
};

// Wide mode: arrays, the accumulator and every cast are 60..63 bits with a
// random quantization and a SAT, SAT_SYM or WRAP overflow mode, and every
// arithmetic result is cast back into such a type, so operands stay <= 63
// bits and products fit the 128-bit executor exactly.
RandomProgram make_random_program(std::mt19937_64* rng, bool wide = false) {
  RandomProgram out;
  out.wide = wide;
  FunctionBuilder fb("fuzz");
  auto rnd = [&](int n) { return static_cast<int>((*rng)() % static_cast<uint64_t>(n)); };
  const auto wide_type = [&]() {
    constexpr fixpt::Ovf kOvf[] = {fixpt::Ovf::kSat, fixpt::Ovf::kSatSym,
                                   fixpt::Ovf::kWrap};
    const int w = 60 + rnd(4);
    const int iw = 12 + rnd(24);
    const auto q = static_cast<fixpt::Quant>(rnd(7));
    const fixpt::Ovf o = kOvf[rnd(3)];
    return fx(w, iw, false, q, o, /*sgn=*/rnd(4) != 0);
  };

  const int n_arrays = 1 + rnd(3);
  std::vector<int> arrays, lengths;
  for (int a = 0; a < n_arrays; ++a) {
    const int len = 4 + rnd(12);
    arrays.push_back(fb.add_array("arr" + std::to_string(a), len,
                                  wide ? wide_type() : fx(8 + rnd(8), rnd(4)),
                                  true));
    lengths.push_back(len);
  }
  const int n_in = 1 + rnd(2);
  std::vector<int> invars;
  for (int v = 0; v < n_in; ++v) {
    const std::string name = "in" + std::to_string(v);
    invars.push_back(fb.add_var(name, wide ? fx(48, 16) : fx(10, 2), false,
                                PortDir::kIn));
    out.in_vars.push_back(name);
  }
  const int acc = fb.add_var("acc", wide ? wide_type() : fx(30, 12), false,
                             PortDir::kOut);

  {
    auto b = fb.block("init");
    b.var_write(acc, b.cnst(fx(30, 12), 0.0));
    // Seed one array slot from an input.
    b.array_write(arrays[0], {0, 0}, b.var_read(invars[0]));
  }

  const int n_loops = 1 + rnd(3);
  for (int l = 0; l < n_loops; ++l) {
    const int which = rnd(n_arrays);
    const int len = lengths[static_cast<size_t>(which)];
    const int trip = 2 + rnd(len - 1);
    const std::string label = "loop" + std::to_string(l);
    out.loop_labels.push_back(label);
    auto b = fb.loop(label, trip);
    // Random small DAG: reads, arithmetic, accumulate, optional writeback.
    std::vector<int> vals;
    vals.push_back(b.array_read(arrays[static_cast<size_t>(which)],
                                {1, rnd(len - trip + 1)}));
    vals.push_back(b.var_read(invars[static_cast<size_t>(rnd(n_in))]));
    const int n_ops = 1 + rnd(4);
    for (int o = 0; o < n_ops; ++o) {
      const int a = vals[static_cast<size_t>(rnd(static_cast<int>(vals.size())))];
      const int c = vals[static_cast<size_t>(rnd(static_cast<int>(vals.size())))];
      switch (rnd(4)) {
        case 0: vals.push_back(b.add(a, c)); break;
        case 1: vals.push_back(b.sub(a, c)); break;
        case 2: vals.push_back(b.mul(a, c)); break;
        case 3:
          vals.push_back(b.cast(wide ? wide_type()
                                     : fx(9 + rnd(6), 2 + rnd(3), false,
                                          fixpt::Quant::kRnd, fixpt::Ovf::kSat),
                                a));
          break;
      }
      if (wide) vals.back() = b.cast(wide_type(), vals.back());
    }
    b.var_write(acc, b.add(b.var_read(acc), vals.back()));
    if (rnd(2) == 0) {
      // Writeback to a different offset of the same array (in range for
      // every k: offset_w in [0, len - trip]).
      b.array_write(arrays[static_cast<size_t>(which)],
                    {1, rnd(len - trip + 1)}, vals.back());
    }
  }
  out.func = fb.build();
  return out;
}

// Conversion mode: the accumulator, every array and every cast draw one of
// all 7 quantization and all 4 overflow modes, and every arithmetic result
// is cast into such a type. Narrow programs keep every type at 30 bits or
// fewer (casts at most 20), so aligned operands and products stay far below
// the plan's int64 bound; wide programs use 60..63-bit types and run on
// the 128-bit executor.
RandomProgram make_conversion_program(std::mt19937_64* rng, bool wide) {
  RandomProgram out;
  out.wide = wide;
  FunctionBuilder fb("convfuzz");
  auto rnd = [&](int n) { return static_cast<int>((*rng)() % static_cast<uint64_t>(n)); };
  const auto any_mode_type = [&](int w_lo, int w_hi) {
    const int w = w_lo + rnd(w_hi - w_lo + 1);
    const int iw = 1 + rnd(wide ? 36 : w);
    return fx(w, iw, false, static_cast<fixpt::Quant>(rnd(7)),
              static_cast<fixpt::Ovf>(rnd(4)), /*sgn=*/rnd(4) != 0);
  };
  const auto cast_type = [&] {
    return wide ? any_mode_type(60, 63) : any_mode_type(4, 20);
  };

  const int n_arrays = 1 + rnd(3);
  std::vector<int> arrays, lengths;
  for (int a = 0; a < n_arrays; ++a) {
    const int len = 4 + rnd(12);
    arrays.push_back(fb.add_array("arr" + std::to_string(a), len,
                                  wide ? any_mode_type(60, 63)
                                       : any_mode_type(6, 16),
                                  true));
    lengths.push_back(len);
  }
  const int n_in = 1 + rnd(2);
  std::vector<int> invars;
  for (int v = 0; v < n_in; ++v) {
    const std::string name = "in" + std::to_string(v);
    invars.push_back(fb.add_var(name, wide ? fx(48, 16) : fx(10, 2), false,
                                PortDir::kIn));
    out.in_vars.push_back(name);
  }
  const int acc = fb.add_var(
      "acc", wide ? any_mode_type(60, 63) : any_mode_type(16, 30), false,
      PortDir::kOut);

  {
    auto b = fb.block("init");
    b.var_write(acc, b.cnst(fx(30, 12), 0.0));
    b.array_write(arrays[0], {0, 0}, b.var_read(invars[0]));
  }

  const int n_loops = 1 + rnd(3);
  for (int l = 0; l < n_loops; ++l) {
    const int which = rnd(n_arrays);
    const int len = lengths[static_cast<size_t>(which)];
    const int trip = 2 + rnd(len - 1);
    const std::string label = "loop" + std::to_string(l);
    out.loop_labels.push_back(label);
    auto b = fb.loop(label, trip);
    std::vector<int> vals;
    vals.push_back(b.array_read(arrays[static_cast<size_t>(which)],
                                {1, rnd(len - trip + 1)}));
    vals.push_back(b.var_read(invars[static_cast<size_t>(rnd(n_in))]));
    const int n_ops = 1 + rnd(4);
    for (int o = 0; o < n_ops; ++o) {
      const int a = vals[static_cast<size_t>(rnd(static_cast<int>(vals.size())))];
      const int c = vals[static_cast<size_t>(rnd(static_cast<int>(vals.size())))];
      int v = 0;
      switch (rnd(4)) {
        case 0: v = b.add(a, c); break;
        case 1: v = b.sub(a, c); break;
        case 2: v = b.mul(a, c); break;
        case 3: v = b.neg(a); break;
      }
      vals.push_back(b.cast(cast_type(), v));
    }
    b.var_write(acc, b.add(b.var_read(acc), vals.back()));
    if (rnd(2) == 0)
      b.array_write(arrays[static_cast<size_t>(which)],
                    {1, rnd(len - trip + 1)}, vals.back());
  }
  out.func = fb.build();
  return out;
}

Directives random_directives(const RandomProgram& p, std::mt19937_64* rng,
                             bool allow_merge) {
  auto rnd = [&](int n) { return static_cast<int>((*rng)() % static_cast<uint64_t>(n)); };
  Directives dir;
  dir.clock_period_ns = 4.0 + rnd(9);
  for (const auto& label : p.loop_labels) {
    const int u = 1 << rnd(3);
    if (u > 1) dir.loops[label].unroll = u;
    if (rnd(3) == 0) dir.loops[label].pipeline_ii = 1;
  }
  if (allow_merge && rnd(2) == 0) dir.auto_merge = true;
  if (rnd(4) == 0) dir.max_real_multipliers = 1 + rnd(4);
  return dir;
}

PortIo random_inputs(const RandomProgram& p, std::mt19937_64* rng) {
  PortIo io;
  for (const auto& name : p.in_vars) {
    FxValue v;
    if (p.wide) {
      v.fw = 32;  // exact in fx(48, 16)
      v.re = static_cast<long long>((*rng)() % (1ULL << 46)) - (1LL << 45);
    } else {
      v.fw = 8;
      v.re = static_cast<int>((*rng)() % 1024) - 512;
    }
    io.vars[name] = v;
  }
  return io;
}

// Synthesizes `p`, checks the schedule, then drives the golden interpreter,
// the compiled simulator and the legacy interpretive simulator with the
// same inputs: every output port (all of re, im, fw and cplx) and every
// array's state must agree after each invocation, and so must op counts.
void check_three_way(const RandomProgram& p, std::mt19937_64* rng,
                     int trial, SynthesisResult* out = nullptr) {
  const TechLibrary tech = TechLibrary::asic90();
  const Directives dir = random_directives(p, rng, /*allow_merge=*/true);
  SynthesisResult r = run_synthesis(p.func, dir, tech);

  const auto violations = verify_schedule(r.transformed, dir, tech,
                                          r.schedule);
  ASSERT_TRUE(violations.empty())
      << "trial " << trial << ": " << violations[0] << "\n"
      << r.transformed.dump();

  Interpreter golden(r.transformed);
  rtl::Simulator sim(r.transformed, r.schedule);
  rtl::Simulator legacy(r.transformed, r.schedule, {.compiled = false});
  for (int n = 0; n < 12; ++n) {
    const PortIo io = random_inputs(p, rng);
    const PortIo a = golden.run(io);
    const PortIo b = sim.run(io);
    const PortIo c = legacy.run(io);
    ASSERT_TRUE(a.vars == b.vars && a.arrays == b.arrays)
        << "golden vs compiled: trial " << trial << " invocation " << n
        << "\n" << r.transformed.dump();
    ASSERT_TRUE(b.vars == c.vars && b.arrays == c.arrays)
        << "compiled vs legacy: trial " << trial << " invocation " << n
        << "\n" << r.transformed.dump();
    for (const Array& arr : r.transformed.arrays) {
      ASSERT_TRUE(golden.array_state(arr.name) == sim.array_state(arr.name) &&
                  sim.array_state(arr.name) == legacy.array_state(arr.name))
          << "array " << arr.name << ": trial " << trial << " invocation "
          << n << "\n" << r.transformed.dump();
    }
  }
  ASSERT_EQ(golden.ops_executed(), sim.stats().ops_executed)
      << "trial " << trial;
  ASSERT_EQ(sim.stats().ops_executed, legacy.stats().ops_executed)
      << "trial " << trial;
  if (out) *out = std::move(r);
}

TEST(Fuzz, ScheduleVerifiesAndRtlMatchesInterpreter) {
  std::mt19937_64 rng(20260707);
  const int trials = fuzz_iters(400);
  for (int trial = 0; trial < trials; ++trial) {
    const RandomProgram p = make_random_program(&rng);
    check_three_way(p, &rng, trial);
    if (HasFatalFailure()) return;
  }
}

TEST(Fuzz, WideProgramsMatchOnThe128BitPath) {
  std::mt19937_64 rng(0x3e67a1d5);
  const int trials = fuzz_iters(150);
  int wide_regions = 0, full_casts = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const RandomProgram p = make_random_program(&rng, /*wide=*/true);
    SynthesisResult r;
    check_three_way(p, &rng, trial, &r);
    if (HasFatalFailure()) return;
    // Coverage evidence: the golden's plan really left the int64 path and
    // converted through the general saturate/wrap stage.
    const ExecPlan plan(r.transformed, untimed_schedule(r.transformed));
    for (const RegionPlan& rp : plan.regions()) {
      if (rp.narrow) continue;
      ++wide_regions;
      for (const PlanOp& op : rp.ops)
        if (op.kind == OpKind::kCast && op.conv.mode == ConvSpec::Mode::kFull)
          ++full_casts;
    }
  }
  EXPECT_GT(wide_regions, 0) << "no wide trial failed the narrow proof";
  EXPECT_GT(full_casts, 0) << "no wide trial reached the kFull conversion";
}

// Every quantization and overflow mode, on both instantiations of the
// executor template: narrow programs run the int64 one (pipelined and
// sequential regions alike), wide programs the int128 one, each checked
// three-way against the op-by-op reference. The plans of both the untimed
// and the synthesized schedule must show each mode reaching the stage
// that implements it: every overflow mode the saturate/wrap stage (kFull)
// on a narrow pipelined region, a narrow sequential region and a wide
// region; every rounding mode kRound or kFull at both widths.
TEST(Fuzz, EveryConversionModeMatchesOnBothExecutors) {
  std::mt19937_64 rng(0x5c0e7a11);
  const int narrow_trials = fuzz_iters(200), wide_trials = fuzz_iters(100);
  enum { kNarrowPipelined, kNarrowSequential, kWide };
  int ovf_full[3][4] = {};
  int quant_rounds[2][7] = {};  // [wide][quant]
  const auto count = [&](const ExecPlan& plan) {
    for (const RegionPlan& rp : plan.regions()) {
      const int where = !rp.narrow     ? kWide
                        : rp.pipelined ? kNarrowPipelined
                                       : kNarrowSequential;
      for (const PlanOp& op : rp.ops) {
        switch (op.kind) {
          case OpKind::kConst:
          case OpKind::kVarRead:
          case OpKind::kArrayRead:
          case OpKind::kSignConj:
          case OpKind::kReal:
          case OpKind::kImag:
            continue;  // no conversion
          default:
            break;
        }
        const ConvSpec& cs = op.conv;
        if (cs.mode == ConvSpec::Mode::kFull)
          ++ovf_full[where][static_cast<int>(cs.o)];
        if (cs.mode == ConvSpec::Mode::kFull ||
            cs.mode == ConvSpec::Mode::kRound)
          ++quant_rounds[rp.narrow ? 0 : 1][static_cast<int>(cs.q)];
      }
    }
  };
  for (int trial = 0; trial < narrow_trials + wide_trials; ++trial) {
    const RandomProgram p =
        make_conversion_program(&rng, /*wide=*/trial >= narrow_trials);
    SynthesisResult r;
    check_three_way(p, &rng, trial, &r);
    if (HasFatalFailure()) return;
    count(ExecPlan(r.transformed, untimed_schedule(r.transformed)));
    count(ExecPlan(r.transformed, r.schedule));
  }
  const char* where_name[3] = {"narrow pipelined", "narrow sequential",
                               "wide"};
  for (int w = 0; w < 3; ++w)
    for (int o = 0; o < 4; ++o)
      EXPECT_GT(ovf_full[w][o], 0)
          << fixpt::to_string(static_cast<fixpt::Ovf>(o))
          << " never reached kFull on a " << where_name[w] << " region";
  for (int w = 0; w < 2; ++w)
    for (int q = 0; q < 7; ++q)
      EXPECT_GT(quant_rounds[w][q], 0)
          << fixpt::to_string(static_cast<fixpt::Quant>(q))
          << " never reached kRound or kFull on a "
          << (w ? "wide" : "narrow") << " region";
}

// Interpreter::run_streams runs independent streams in lockstep through
// one op stream. Narrow, wide and conversion-mode programs run at 1, 3
// (run lane by lane), half the lane width (idle lanes in a full-width
// step), the lane width - 1, the lane width and the lane width + 1
// streams of 0..6 vectors each: every lane's outputs must equal a fresh
// run_stream of its stream and rtl::Simulator's op-by-op path, arrive in
// symbol order, and ops_executed must equal the sum over the lanes.
TEST(Fuzz, LaneGoldenMatchesScalarRuns) {
  std::mt19937_64 rng(0x1a9e5017);
  const TechLibrary tech = TechLibrary::asic90();
  constexpr int kW = Interpreter::kLaneWidth;
  const int counts[] = {1, 3, kW / 2, kW - 1, kW, kW + 1};
  const int trials = fuzz_iters(120);
  for (int trial = 0; trial < trials; ++trial) {
    const RandomProgram p = trial % 3 == 0 ? make_random_program(&rng)
                            : trial % 3 == 1
                                ? make_random_program(&rng, /*wide=*/true)
                                : make_conversion_program(&rng, trial % 2 == 0);
    const Directives dir = random_directives(p, &rng, /*allow_merge=*/true);
    const SynthesisResult r = run_synthesis(p.func, dir, tech);
    const int n =
        counts[static_cast<std::size_t>(trial / 3) % std::size(counts)];
    std::vector<std::vector<PortIo>> streams(static_cast<std::size_t>(n));
    for (auto& s : streams) {
      const int len = static_cast<int>(rng() % 7);
      for (int i = 0; i < len; ++i) s.push_back(random_inputs(p, &rng));
    }

    Interpreter lanes(r.transformed);
    std::vector<std::vector<PortIo>> got(streams.size());
    lanes.run_streams(streams, [&](std::size_t l, std::size_t i, PortIo out) {
      ASSERT_EQ(i, got[l].size()) << "lane " << l << " out of order";
      got[l].push_back(std::move(out));
    });
    if (HasFatalFailure()) return;
    long long ops = 0;
    for (std::size_t l = 0; l < streams.size(); ++l) {
      Interpreter one(r.transformed);
      const std::vector<PortIo> want = one.run_stream(streams[l]);
      ops += one.ops_executed();
      rtl::Simulator legacy(r.transformed, r.schedule, {.compiled = false});
      const std::vector<PortIo> ref = legacy.run_stream(streams[l]);
      ASSERT_EQ(got[l].size(), want.size())
          << "trial " << trial << " lane " << l << " of " << n;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got[l][i].vars == want[i].vars &&
                    got[l][i].arrays == want[i].arrays)
            << "lanes vs run_stream: trial " << trial << " lane " << l
            << " of " << n << " symbol " << i << "\n"
            << r.transformed.dump();
        ASSERT_TRUE(want[i].vars == ref[i].vars &&
                    want[i].arrays == ref[i].arrays)
            << "run_stream vs op by op: trial " << trial << " lane " << l
            << " symbol " << i << "\n" << r.transformed.dump();
      }
    }
    ASSERT_EQ(lanes.ops_executed(), ops) << "trial " << trial;
    // The lanes ran on their own planes: the interpreter's state is still
    // the reset state.
    const Interpreter fresh(r.transformed);
    for (const Array& arr : r.transformed.arrays)
      ASSERT_TRUE(lanes.array_state(arr.name) == fresh.array_state(arr.name))
          << "trial " << trial << " array " << arr.name;
  }
}

TEST(Fuzz, EmittedVerilogIsStructurallySound) {
  // Every random scheduled program must emit Verilog where each declared
  // wire has exactly one driver and the module structure is balanced.
  std::mt19937_64 rng(777);
  const TechLibrary tech = TechLibrary::asic90();
  const std::regex decl_re(R"(wire signed \[\d+:0\] (\w+);)");
  const std::regex assign_re(R"(assign (\w+) =)");
  const int trials = fuzz_iters(50);
  for (int trial = 0; trial < trials; ++trial) {
    RandomProgram p = make_random_program(&rng);
    const Directives dir = random_directives(p, &rng, /*allow_merge=*/true);
    const SynthesisResult r = run_synthesis(p.func, dir, tech);
    const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
    ASSERT_NE(v.find("module fuzz ("), std::string::npos);
    ASSERT_NE(v.find("endmodule"), std::string::npos);
    std::map<std::string, int> declared, driven;
    for (auto it = std::sregex_iterator(v.begin(), v.end(), decl_re);
         it != std::sregex_iterator(); ++it)
      ++declared[(*it)[1]];
    for (auto it = std::sregex_iterator(v.begin(), v.end(), assign_re);
         it != std::sregex_iterator(); ++it)
      ++driven[(*it)[1]];
    for (const auto& [name, n] : declared) {
      ASSERT_EQ(n, 1) << "trial " << trial << ": duplicate wire " << name;
      ASSERT_EQ(driven[name], 1)
          << "trial " << trial << ": wire " << name << " has "
          << driven[name] << " drivers";
    }
    for (const auto& [name, n] : driven)
      ASSERT_TRUE(declared.count(name))
          << "trial " << trial << ": assign to undeclared " << name;
  }
}

// Points HLSW_VSIM_CODEGEN_CACHE at a fresh directory for one scope, so
// the native legs below neither read nor leave anything in a shared cache.
class PrivateCodegenCache {
 public:
  PrivateCodegenCache() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "hlsw-fuzz-cg-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) != nullptr) dir_ = tmpl;
    if (const char* e = std::getenv("HLSW_VSIM_CODEGEN_CACHE")) {
      had_old_ = true;
      old_ = e;
    }
    ::setenv("HLSW_VSIM_CODEGEN_CACHE", dir_.c_str(), 1);
  }
  ~PrivateCodegenCache() {
    if (had_old_)
      ::setenv("HLSW_VSIM_CODEGEN_CACHE", old_.c_str(), 1);
    else
      ::unsetenv("HLSW_VSIM_CODEGEN_CACHE");
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  PrivateCodegenCache(const PrivateCodegenCache&) = delete;
  PrivateCodegenCache& operator=(const PrivateCodegenCache&) = delete;

 private:
  std::string dir_, old_;
  bool had_old_ = false;
};

// Every trial emits its program's Verilog. The emitter either refuses it
// or the text matches the golden on every engine: rtl::Simulator, the vsim
// event kernel and compiled interpreter (one sequential block each), and a
// 3-lane PackedDutHarness whose lanes replay prefixes of different
// lengths, so they freeze at different times and each lane must still
// equal the golden's prefix. The first few emitted narrow trials also run
// the native engine, at one lane and at three, both through
// PackedDutHarness; each native leg costs one .so build.
TEST(Fuzz, EmittedVerilogMatchesOnEveryEngine) {
  std::mt19937_64 rng(0x5eed0e1d);
  const TechLibrary tech = TechLibrary::asic90();
  const bool native = vsim::codegen_available();
  PrivateCodegenCache cache;
  constexpr int kNativeTrials = 3;
  constexpr std::size_t kVectors = 6;
  constexpr int kLanes = 3;
  int run = 0, refused_narrow = 0, refused_wide = 0, native_trials = 0;
  long long splits = 0;

  const int narrow_trials = fuzz_iters(400), wide_trials = fuzz_iters(150);
  for (int trial = 0; trial < narrow_trials + wide_trials; ++trial) {
    const bool wide = trial >= narrow_trials;
    const RandomProgram p = make_random_program(&rng, wide);
    const Directives dir = random_directives(p, &rng, /*allow_merge=*/true);
    const SynthesisResult r = run_synthesis(p.func, dir, tech);
    std::vector<PortIo> vectors;
    for (std::size_t i = 0; i < kVectors; ++i)
      vectors.push_back(random_inputs(p, &rng));
    std::string verilog;
    try {
      verilog = rtl::emit_verilog(r.transformed, r.schedule);
    } catch (const std::invalid_argument&) {
      ++(wide ? refused_wide : refused_narrow);
      continue;
    }
    ++run;
    const auto design = vsim::load_design(verilog, r.transformed.name);
    const auto plan = vsim::compiled_plan(design, nullptr);
    ASSERT_NE(plan, nullptr) << "trial " << trial << ": not cycle-schedulable";

    const Function& f = r.transformed;
    vsim::SimConfig event_cfg, compiled_cfg, native_cfg;
    event_cfg.backend = vsim::Backend::kEvent;
    compiled_cfg.backend = vsim::Backend::kCompiled;
    native_cfg.backend = vsim::Backend::kPackedCodegen;
    const auto scalar_leg = [&](const vsim::SimConfig& cfg,
                                const char* backend) -> CosimFactory {
      return [&f, &design, cfg, backend, trial] {
        auto h = std::make_shared<vsim::PackedDutHarness>(f, design, 1, cfg);
        EXPECT_STREQ(h->backend(), backend)
            << "trial " << trial << ": " << h->fallback_reason();
        return [h](const std::vector<PortIo>& ins) {
          return h->run_streams({ins}).front();
        };
      };
    };
    // Lane l replays the first n - 2l vectors (n, n-2, n-4): a lane that
    // runs out is frozen while the others keep ticking, and its outputs
    // must still be the matching prefix of lane 0's full-block outputs.
    const auto packed_leg = [&](const vsim::SimConfig& cfg,
                                const char* backend) -> CosimFactory {
      return [&f, &plan, &splits, cfg, backend, trial] {
        return [&f, &plan, &splits, cfg, backend,
                trial](const std::vector<PortIo>& ins) {
          std::vector<std::vector<PortIo>> streams;
          for (int l = 0; l < kLanes; ++l)
            streams.emplace_back(ins.begin(),
                                 ins.end() - std::min<long>(
                                                 2L * l, ins.size() - 1));
          vsim::PackedDutHarness h(f, plan, kLanes, cfg);
          EXPECT_STREQ(h.backend(), backend)
              << "trial " << trial << ": " << h.fallback_reason();
          const auto out = h.run_streams(streams);
          for (int l = 1; l < kLanes; ++l)
            for (std::size_t i = 0; i < out[l].size(); ++i)
              EXPECT_TRUE(out[l][i].vars == out[0][i].vars &&
                          out[l][i].arrays == out[0][i].arrays)
                  << "trial " << trial << ": lane " << l << " vector " << i
                  << " differs from lane 0";
          splits += h.sim().divergence_splits();
          return out[0];
        };
      };
    };

    std::vector<CosimLeg> legs = {
        {"golden",
         [&f] {
           return [in = std::make_shared<Interpreter>(f)](
                      const std::vector<PortIo>& ins) {
             return in->run_stream(ins);
           };
         }},
        {"rtl",
         [&f, &r] {
           return [s = std::make_shared<rtl::Simulator>(f, r.schedule)](
                      const std::vector<PortIo>& ins) {
             return s->run_stream(ins);
           };
         }},
        {"vsim-event", scalar_leg(event_cfg, "event")},
        {"vsim-compiled", scalar_leg(compiled_cfg, "compiled")},
        {"vsim-packed", packed_leg(compiled_cfg, "compiled")},
    };
    if (native && !wide && native_trials < kNativeTrials) {
      ++native_trials;
      legs.push_back(
          {"vsim-native", scalar_leg(native_cfg, "packed_codegen")});
      legs.push_back(
          {"vsim-native-packed", packed_leg(native_cfg, "packed_codegen")});
    }
    const CosimResult res = cosim_sweep_nway(
        legs, vectors, {.block_size = vectors.size(), .mismatch_limit = 4});
    ASSERT_TRUE(res.ok()) << "trial " << trial << (wide ? " (wide)" : "")
                          << ": "
                          << (res.mismatches.empty() ? ""
                                                     : res.mismatches.front())
                          << "\n"
                          << f.dump();
    if (HasFailure()) return;
  }

  std::printf(
      "[ fuzz     ] emitted-verilog trials: %d run, %d refused narrow, %d "
      "refused wide, %d native, %lld divergence splits\n",
      run, refused_narrow, refused_wide, native_trials, splits);
  RecordProperty("trials_run", run);
  RecordProperty("refused_narrow", refused_narrow);
  RecordProperty("refused_wide", refused_wide);
  RecordProperty("native_trials", native_trials);
  RecordProperty("divergence_splits", static_cast<int>(splits));
  // Coverage evidence: the generator still reaches the emitter and, in both
  // modes, the refusal (the default budget refuses 2 narrow programs and
  // every wide one), and the native engines really ran. The emitted FSMs
  // branch only on state, loop counter and start, which stay in lockstep
  // across the lanes, so no split is expected.
  EXPECT_GT(run, 0);
  EXPECT_GT(refused_narrow, 0);
  EXPECT_GT(refused_wide, 0);
  if (native) {
    EXPECT_EQ(native_trials, kNativeTrials);
  }
}

TEST(Fuzz, UnrollingPreservesSequentialSemantics) {
  std::mt19937_64 rng(424242);
  const TechLibrary tech = TechLibrary::asic90();
  const int trials = fuzz_iters(250);
  for (int trial = 0; trial < trials; ++trial) {
    RandomProgram p = make_random_program(&rng);
    Directives dir = random_directives(p, &rng, /*allow_merge=*/false);
    const TransformResult t = apply_transforms(p.func, dir);
    ASSERT_TRUE(t.warnings.empty()) << t.warnings[0];

    Interpreter orig(p.func);
    Interpreter xform(t.func);
    for (int n = 0; n < 12; ++n) {
      const PortIo io = random_inputs(p, &rng);
      ASSERT_EQ(static_cast<long long>(orig.run(io).vars.at("acc").re),
                static_cast<long long>(xform.run(io).vars.at("acc").re))
          << "trial " << trial << " invocation " << n << "\n"
          << p.func.dump();
    }
  }
}

// A directive set deliberately aimed at the degenerate corners the
// feasibility canonicalizer claims to handle: unrolls past (or below) the
// trip count, negative or sub-floor pipeline IIs, pipelining on loops a
// merge folds away, zero/negative/oversubscribed memory ports, directives
// naming loops and arrays the design does not have, and junk merge groups.
Directives degenerate_directives(const RandomProgram& p,
                                 std::mt19937_64* rng) {
  auto rnd = [&](int n) {
    return static_cast<int>((*rng)() % static_cast<uint64_t>(n));
  };
  const auto label = [&]() -> const std::string& {
    return p.loop_labels[static_cast<size_t>(
        rnd(static_cast<int>(p.loop_labels.size())))];
  };
  Directives dir;
  dir.clock_period_ns = 3.0 + rnd(8);
  const int n_mut = 1 + rnd(3);
  for (int m = 0; m < n_mut; ++m) {
    switch (rnd(9)) {
      case 0:  // way past any trip count (trips are <= 15)
        dir.loops[label()].unroll = 17 + rnd(100);
        break;
      case 1:  // zero or negative unroll
        dir.loops[label()].unroll = -2 + rnd(3);
        break;
      case 2:  // negative II request
        dir.loops[label()].pipeline_ii = -3 + rnd(3);
        break;
      case 3:  // II on loops auto-merge may fold away
        dir.auto_merge = true;
        dir.loops[label()].pipeline_ii = 1 + rnd(2);
        break;
      case 4: {  // starved memory ports
        auto& ad = dir.arrays["arr" + std::to_string(rnd(3))];
        ad.mapping = ArrayMapping::kMemory;
        ad.mem_read_ports = -1 + rnd(3);
        ad.mem_write_ports = -1 + rnd(3);
        break;
      }
      case 5: {  // oversubscribed: unrolled reads through one port, II=1
        auto& ad = dir.arrays["arr0"];
        ad.mapping = ArrayMapping::kMemory;
        const std::string& l = label();
        dir.loops[l].unroll = 2 + rnd(3);
        dir.loops[l].pipeline_ii = 1;
        break;
      }
      case 6:  // unknown loop
        dir.loops["ghost_loop"].unroll = 2 + rnd(4);
        break;
      case 7:  // unknown array
        dir.arrays["ghost_array"].mapping = ArrayMapping::kMemory;
        break;
      default:  // junk merge group: maybe duplicated, reversed, unknown
        dir.merge_groups.push_back(
            {label(), rnd(3) == 0 ? "ghost_loop" : label()});
        break;
    }
  }
  return dir;
}

// Robustness of the feasibility analysis under hostile directives: never
// crashes, returns the same verdict on repeated calls, its clamped form
// synthesizes to the same metrics as the original (terminating in the
// process), and its bounds stay true lower bounds.
TEST(Fuzz, FeasibilityVerdictsAreStableAndSoundOnDegenerateDirectives) {
  std::mt19937_64 rng(0xde9e7e4a7e);
  const TechLibrary tech = TechLibrary::asic90();
  const int trials = fuzz_iters(200);
  for (int trial = 0; trial < trials; ++trial) {
    RandomProgram p = make_random_program(&rng);
    const Directives dir = degenerate_directives(p, &rng);
    const std::uint64_t fp = function_fingerprint(p.func);

    DesignBounds b1, b2;
    const FeasibilityVerdict v1 = check_feasibility(p.func, dir, tech, &b1);
    const FeasibilityVerdict v2 = check_feasibility(p.func, dir, tech, &b2);
    ASSERT_EQ(v1.status, v2.status) << "trial " << trial;
    ASSERT_EQ(v1.kind, v2.kind) << "trial " << trial;
    ASSERT_EQ(v1.reason, v2.reason) << "trial " << trial;
    ASSERT_EQ(b1.min_latency_cycles, b2.min_latency_cycles);
    ASSERT_EQ(b1.min_area, b2.min_area);
    ASSERT_EQ(dse_cache_key(fp, v1.clamped, tech),
              dse_cache_key(fp, v2.clamped, tech))
        << "trial " << trial << ": clamped form not deterministic";

    if (v1.status == FeasibilityStatus::kInfeasible) {
      ASSERT_NE(v1.kind, InfeasibleKind::kNone) << "trial " << trial;
      ASSERT_FALSE(v1.reason.empty()) << "trial " << trial;
    } else {
      ASSERT_EQ(v1.kind, InfeasibleKind::kNone) << "trial " << trial;
    }

    // Both spellings must terminate and agree — the redirect soundness
    // contract, under directives far outside the explore() sweep.
    const SynthesisResult orig = run_synthesis(p.func, dir, tech);
    const SynthesisResult clamp = run_synthesis(p.func, v1.clamped, tech);
    ASSERT_EQ(orig.latency_cycles(), clamp.latency_cycles())
        << "trial " << trial << "\n"
        << v1.reason << "\n"
        << p.func.dump();
    ASSERT_DOUBLE_EQ(orig.area.total, clamp.area.total) << "trial " << trial;
    ASSERT_LE(b1.min_latency_cycles, orig.latency_cycles())
        << "trial " << trial;
    ASSERT_LE(b1.min_area, orig.area.total + 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace hlsw::hls
