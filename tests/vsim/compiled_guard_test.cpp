// Performance ratio guards for the vsim backend ladder (labeled
// bench_smoke in ctest, run serially): on the merge architecture the
// compiled backend must beat the event-driven backend by at least 2x
// per-symbol while the event kernel stays within 8x of it, the
// one-lane native engine (a one-lane Backend::kPackedCodegen harness) must
// beat the compiled interpreter by at least 2x, and the 64-lane native
// engine must beat per-block scalar replay by at least 10x in DUT
// throughput. Every floor sits below the measured gap (BENCH_vsim.json:
// ~5.7x, ~8.6x and ~13x respectively; the packed guard's own 10-symbol
// shape read 11.4-13.8x on a 4-vCPU VM), so CI noise cannot flake the
// guards, but they are tight enough to catch a backend silently falling
// back or regressing to the tier below. The 64-lane native engine must
// also beat 64 one-lane native engines by at least 2.5x, the line below
// which lane packing would not pay for itself. A last guard keeps the
// golden reference every sweep pays for on the compiled plan, its lanes
// must beat per-lane replay by at least 2x, and a whole 64-lane sweep must
// beat the one-lane sweep of the same blocks by at least 2x. The generated
// testbench with its DUT bound must beat the flattened event run by at
// least 2.5x (3.54-4.07x over 16 runs of the RelWithDebInfo binary on a
// 4-vCPU VM).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

double run_symbols_ms(PackedDutHarness& dut,
                      const std::vector<PortIo>& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  dut.run_streams({batch});
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(VsimCompiledGuard, CompiledBeatsEventByAtLeast2xOnMergeArch) {
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 60);

  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;
  PackedDutHarness event_dut(r.transformed, design, 1, event_cfg);
  PackedDutHarness compiled_dut(r.transformed, design, 1);
  ASSERT_STREQ(event_dut.backend(), "event");
  ASSERT_STREQ(compiled_dut.backend(), "compiled")
      << compiled_dut.fallback_reason();

  // Warm both paths (plan compile, allocator), then take best-of-3 per
  // backend so a scheduler hiccup on one run cannot fail the guard.
  run_symbols_ms(compiled_dut, batch);
  run_symbols_ms(event_dut, batch);
  double t_compiled = 1e300, t_event = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t_compiled = std::min(t_compiled, run_symbols_ms(compiled_dut, batch));
    t_event = std::min(t_event, run_symbols_ms(event_dut, batch));
  }

  ASSERT_GT(t_compiled, 0.0);
  const double ratio = t_event / t_compiled;
  EXPECT_GE(ratio, 2.0) << "compiled backend only " << ratio
                        << "x faster than event (event " << t_event
                        << " ms vs compiled " << t_compiled << " ms)";
}

TEST(VsimCompiledGuard, EventKernelStaysWithin8xOfCompiledOnMergeArch) {
  // The other side of the ratio above. The event kernel replays every
  // generated testbench, so its per-node cost is on the verify path: it
  // dispatches on the Op the parser resolved, not on operator spellings.
  // The string-comparing kernel measured 11-13x the compiled interpreter
  // here, the Op-switching one 4.4-7.4x (4-vCPU VM); the 8x ceiling
  // catches a return to per-evaluation string dispatch.
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 100);

  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;
  PackedDutHarness event_dut(r.transformed, design, 1, event_cfg);
  PackedDutHarness compiled_dut(r.transformed, design, 1);
  ASSERT_STREQ(event_dut.backend(), "event");
  ASSERT_STREQ(compiled_dut.backend(), "compiled")
      << compiled_dut.fallback_reason();

  run_symbols_ms(compiled_dut, batch);
  run_symbols_ms(event_dut, batch);
  double t_compiled = 1e300, t_event = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_compiled = std::min(t_compiled, run_symbols_ms(compiled_dut, batch));
    t_event = std::min(t_event, run_symbols_ms(event_dut, batch));
  }

  ASSERT_GT(t_compiled, 0.0);
  const double ratio = t_event / t_compiled;
  EXPECT_LE(ratio, 8.0) << "event kernel takes " << ratio
                        << "x the compiled backend's time (event " << t_event
                        << " ms vs compiled " << t_compiled << " ms)";
}

TEST(VsimCodegenGuard, CodegenBeatsCompiledByAtLeast2xOnMergeArch) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — codegen backend unavailable";
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 60);

  SimConfig codegen_cfg;
  codegen_cfg.backend = Backend::kPackedCodegen;
  PackedDutHarness compiled_dut(r.transformed, design, 1);
  PackedDutHarness codegen_dut(r.transformed, design, 1, codegen_cfg);
  ASSERT_STREQ(compiled_dut.backend(), "compiled")
      << compiled_dut.fallback_reason();
  ASSERT_STREQ(codegen_dut.backend(), "packed_codegen")
      << codegen_dut.fallback_reason();

  // Warmup absorbs the one-time generate+compile+dlopen, then best-of-3.
  run_symbols_ms(codegen_dut, batch);
  run_symbols_ms(compiled_dut, batch);
  double t_codegen = 1e300, t_compiled = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t_codegen = std::min(t_codegen, run_symbols_ms(codegen_dut, batch));
    t_compiled = std::min(t_compiled, run_symbols_ms(compiled_dut, batch));
  }

  ASSERT_GT(t_codegen, 0.0);
  const double ratio = t_compiled / t_codegen;
  EXPECT_GE(ratio, 2.0) << "codegen backend only " << ratio
                        << "x faster than compiled (compiled " << t_compiled
                        << " ms vs codegen " << t_codegen << " ms)";
}

TEST(VsimPackedGuard, Packed64BeatsScalarReplayByAtLeast10xDutThroughput) {
  // 64 independent 10-symbol blocks: per-block one-lane harness replay vs
  // one 64-lane kAuto PackedDutHarness over the same streams — the DUT-side
  // work a packed sweep saves (the golden interpreter leg is identical on
  // both sides of a full sweep, so it is excluded here). The harness must
  // run the generated engine: the 10x floor also catches the kAuto packed
  // path sliding back to an interpreter, whose lanes cost what scalar
  // replay does.
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — packed codegen unavailable";
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const int kLanes = 64, kBlock = 10;
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, kLanes * kBlock);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (int b = 0; b < kLanes; ++b)
    streams[static_cast<std::size_t>(b)].assign(
        batch.begin() + b * kBlock, batch.begin() + (b + 1) * kBlock);

  const auto scalar_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& s : streams) {
      PackedDutHarness dut(r.transformed, design, 1);
      dut.run_streams({s});
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto packed_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    PackedDutHarness dut(r.transformed, plan, kLanes);
    dut.run_streams(streams);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  {
    PackedDutHarness probe(r.transformed, plan, kLanes);
    ASSERT_STREQ(probe.backend(), "packed_codegen")
        << probe.fallback_reason();
  }
  scalar_ms();  // warm the plan, .so cache and allocator on both paths
  packed_ms();
  // Best of 5: the packed leg is ~2 ms, so one scheduler hiccup under a
  // loaded machine is a large share of it.
  double t_scalar = 1e300, t_packed = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_scalar = std::min(t_scalar, scalar_ms());
    t_packed = std::min(t_packed, packed_ms());
  }

  ASSERT_GT(t_packed, 0.0);
  const double ratio = t_scalar / t_packed;
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, 10.0) << "packed 64-lane engine only " << ratio
                        << "x faster than scalar replay (scalar " << t_scalar
                        << " ms vs packed " << t_packed << " ms)";
}

TEST(VsimPackedGuard, Packed64BeatsOneLaneNativeByAtLeast2_5x) {
  // 64 independent 25-symbol blocks of merge: one one-lane native engine
  // per block (a one-lane harness, Backend::kPackedCodegen) vs one 64-lane
  // native PackedDutHarness over the same streams. Both legs run generated
  // code, so the ratio is what the lane dimension buys; below 2.5x a sweep
  // would do as well on one-lane engines, one block per pool task.
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — packed codegen unavailable";
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const int kLanes = 64, kBlock = 25;
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, kLanes * kBlock);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (int b = 0; b < kLanes; ++b)
    streams[static_cast<std::size_t>(b)].assign(
        batch.begin() + b * kBlock, batch.begin() + (b + 1) * kBlock);
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;

  const auto lane1_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& s : streams) {
      PackedDutHarness dut(r.transformed, design, 1, cfg);
      dut.run_streams({s});
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto packed_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    PackedDutHarness dut(r.transformed, plan, kLanes, cfg);
    dut.run_streams(streams);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  {
    PackedDutHarness one(r.transformed, design, 1, cfg);
    ASSERT_STREQ(one.backend(), "packed_codegen") << one.fallback_reason();
    PackedDutHarness wide(r.transformed, plan, kLanes, cfg);
    ASSERT_STREQ(wide.backend(), "packed_codegen") << wide.fallback_reason();
  }
  lane1_ms();  // warm the module and the allocator on both paths
  packed_ms();
  double t_lane1 = 1e300, t_packed = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_lane1 = std::min(t_lane1, lane1_ms());
    t_packed = std::min(t_packed, packed_ms());
  }

  ASSERT_GT(t_packed, 0.0);
  const double ratio = t_lane1 / t_packed;
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, 2.5) << "64-lane engine only " << ratio
                        << "x the throughput of 64 one-lane engines (one-lane "
                        << t_lane1 << " ms vs 64-lane " << t_packed << " ms)";
}

TEST(GoldenGuard, CompiledGoldenKeepsPaceWithCompiledRtlSim) {
  // hls::Interpreter runs the same plan compiler as rtl::Simulator, untimed
  // (one span per iteration, writes landing at once instead of queueing for
  // an end-of-cycle commit), so on one transformed design it must not be
  // meaningfully slower than the compiled simulator. The op-by-op golden
  // (a switch over FxValue with a run-time fx_convert per op) measured
  // 1.8-3.2x the simulator's time, the compiled golden 0.76-0.93x (4-vCPU
  // VM): the 1.5x ceiling catches a silent return to an interpretive
  // golden.
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 1600);

  const auto time_ms = [&](auto& model) {
    const auto t0 = std::chrono::steady_clock::now();
    model.run_stream(batch);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto golden_ms = [&] {
    hls::Interpreter golden(r.transformed);
    return time_ms(golden);
  };
  const auto sim_ms = [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    return time_ms(sim);
  };

  // Best of 5 rather than 3: the two legs are ~5 ms each, so one scheduler
  // hiccup under a loaded parallel test run is a large share of either.
  golden_ms();  // warm the allocator on both paths
  sim_ms();
  double t_golden = 1e300, t_sim = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_golden = std::min(t_golden, golden_ms());
    t_sim = std::min(t_sim, sim_ms());
  }

  ASSERT_GT(t_sim, 0.0);
  const double ratio = t_golden / t_sim;
  EXPECT_LE(ratio, 1.5) << "golden interpreter takes " << ratio
                        << "x the compiled simulator's time (golden "
                        << t_golden << " ms vs simulator " << t_sim << " ms)";
}

// 64 independent 25-symbol blocks of merge, best of 5 each: `lanes` ms for
// one run_streams call over the blocks, `lane1` ms for one interpreter
// replaying them one by one, reset between blocks.
struct GoldenLaneTimes {
  double lanes = 1e300, lane1 = 1e300;
};

GoldenLaneTimes time_golden_lanes() {
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const int kLanes = 64, kBlock = 25;
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, kLanes * kBlock);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (int b = 0; b < kLanes; ++b)
    streams[static_cast<std::size_t>(b)].assign(
        batch.begin() + b * kBlock, batch.begin() + (b + 1) * kBlock);
  const auto lanes_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    hls::Interpreter golden(r.transformed);
    golden.run_streams(streams, [](std::size_t, std::size_t, PortIo) {});
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto lane1_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    hls::Interpreter golden(r.transformed);
    for (std::size_t l = 0; l < streams.size(); ++l) {
      if (l > 0) golden.reset();
      golden.run_stream(streams[l]);
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  lanes_ms();  // warm the allocator on both paths
  lane1_ms();
  GoldenLaneTimes t;
  for (int rep = 0; rep < 5; ++rep) {
    t.lanes = std::min(t.lanes, lanes_ms());
    t.lane1 = std::min(t.lane1, lane1_ms());
  }
  return t;
}

TEST(GoldenGuard, LaneGoldenBeatsPerLaneReplayByAtLeast1_6x) {
  // The sweep's reference leg: a batch's blocks through one run_streams
  // call, kLaneWidth lanes in lockstep, vs the reset-per-lane run_stream
  // loop it replaced, on the same blocks. 16 runs of the tier-1 binary
  // read 2.03-2.79x (median 2.25x, 4-vCPU VM); the floor is 80% of the
  // lowest.
  const GoldenLaneTimes t = time_golden_lanes();
  ASSERT_GT(t.lanes, 0.0);
  const double ratio = t.lane1 / t.lanes;
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, 1.6) << "lane golden only " << ratio
                        << "x faster than per-lane replay (per-lane "
                        << t.lane1 << " ms vs lanes " << t.lanes << " ms)";
}

TEST(VsimPackedGuard, Sweep64BeatsOneLaneSweepByAtLeast2x) {
  // A whole differential sweep of 64 independent 25-symbol blocks of merge
  // on the calling thread: 64 lanes (one 64-lane native DUT, the golden
  // lanes in lockstep) vs one lane (a one-lane native DUT and a one-lane
  // golden per block), on the same blocks. Both report no mismatch. 16
  // runs of the tier-1 binary read 3.16-4.25x (median 3.31x, 4-vCPU VM);
  // the floor is at most 80% of the lowest.
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — packed codegen unavailable";
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 64 * 25);
  SimConfig cfg;
  cfg.backend = Backend::kPackedCodegen;
  const auto sweep_ms = [&](int lanes) {
    const auto t0 = std::chrono::steady_clock::now();
    const hls::CosimResult res = vsim_sweep(
        r.transformed, r.schedule, batch,
        {.block_size = 25, .lanes = lanes}, cfg);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_TRUE(res.ok()) << lanes << " lanes";
    EXPECT_EQ(res.blocks, 64u);
    return ms;
  };
  sweep_ms(1);  // build or load both engines and warm the allocator
  sweep_ms(64);
  double t_lane1 = 1e300, t_packed = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_lane1 = std::min(t_lane1, sweep_ms(1));
    t_packed = std::min(t_packed, sweep_ms(64));
  }
  ASSERT_GT(t_packed, 0.0);
  const double ratio = t_lane1 / t_packed;
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, 2.0) << "64-lane sweep only " << ratio
                        << "x faster than the one-lane sweep (one lane "
                        << t_lane1 << " ms vs 64 lanes " << t_packed
                        << " ms)";
}

TEST(VsimTestbenchGuard, BoundTestbenchBeatsFlattenedByAtLeast2_5x) {
  // The generated testbench of 8 vectors on merge, with its DUT bound
  // (the event kernel runs the testbench, the compiled engine the DUT)
  // against the flattened run, where the event kernel runs both. Both legs
  // go through run_testbench: the bound one parses the testbench text on
  // every call, the flattened one hits the design cache.
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  LinkStimulus stim((LinkConfig()));
  const auto tvs = rtl::capture_vectors(r.transformed, r.schedule,
                                        qam::link_input_batch(&stim, 8));
  const std::string tb =
      rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
  const std::string top = r.transformed.name + "_tb";
  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;

  const auto run_ms = [&](const SimConfig& cfg, const char* backend) {
    const auto t0 = std::chrono::steady_clock::now();
    const TestbenchResult res = run_testbench(verilog, tb, top, cfg);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.backend, backend) << res.fallback_reason;
    return ms;
  };
  run_ms({}, "compiled");  // warm the design cache, plan, allocator
  run_ms(event_cfg, "event");
  double t_bound = 1e300, t_flat = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    t_bound = std::min(t_bound, run_ms({}, "compiled"));
    t_flat = std::min(t_flat, run_ms(event_cfg, "event"));
  }
  ASSERT_GT(t_bound, 0.0);
  const double ratio = t_flat / t_bound;
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, 2.5) << "bound testbench only " << ratio
                          << "x faster than flattened (flattened " << t_flat
                          << " ms vs bound " << t_bound << " ms)";
}

}  // namespace
}  // namespace hlsw::vsim
