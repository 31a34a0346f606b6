// Parallel vsim_sweep on the compiled cycle-based backend: the ONE
// elaborated Design and the ONE execution plan it owns (compiled_plan) are
// shared read-only across worker threads while every shard builds its own
// CompiledSim state. Serial and parallel sweeps must agree byte for byte,
// and the compiled sweep must agree with the event-driven sweep of the
// same design. Threads racing the first request for a plan, and for its
// generated module, get one of each. This file is also compiled into a
// ThreadSanitizer variant (vsim_compiled_sweep_test_tsan), which is what
// actually certifies the shared-plan claim.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hls/builder.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/pack.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

using hls::CosimResult;
using hls::Directives;
using hls::FxValue;
using hls::PortIo;
using hls::run_synthesis;
using hls::TechLibrary;

// Stateless squared-MAC (the sweep_test idiom): acc is rewritten from a
// constant every invocation, so vector blocks are independent and the
// sweep may shard freely.
hls::Function build_stateless_mac() {
  hls::FunctionBuilder fb("sqmac");
  const int x = fb.add_array("x", 16, hls::fx(10, 0), false,
                             hls::PortDir::kIn);
  const int acc =
      fb.add_var("acc", hls::fx(28, 8), false, hls::PortDir::kOut);
  {
    auto b0 = fb.block("init");
    b0.var_write(acc, b0.cnst(hls::fx(28, 8), 0.0));
  }
  {
    auto l = fb.loop("mac", 16);
    const int xv = l.array_read(x, {1, 0});
    l.var_write(acc, l.add(l.var_read(acc), l.mul(xv, xv)));
  }
  return fb.build();
}

std::vector<PortIo> random_mac_vectors(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<PortIo> out;
  for (int i = 0; i < n; ++i) {
    PortIo io;
    std::vector<FxValue> xs(16);
    for (auto& e : xs) {
      e.fw = 10;
      e.re = static_cast<int>(rng() % 1024) - 512;
    }
    io.arrays["x"] = xs;
    out.push_back(std::move(io));
  }
  return out;
}

TEST(VsimCompiledSweep, SerialAndParallelCompiledSweepsAgree) {
  const hls::Function f = build_stateless_mac();
  Directives dir;
  dir.loops["mac"].pipeline_ii = 1;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());

  const auto vectors = random_mac_vectors(96, 11);
  const SimConfig compiled_cfg{};  // compiled defaults to true
  util::ThreadPool four(4);
  const CosimResult serial = vsim_sweep(r.transformed, r.schedule, vectors,
                                        {.block_size = 16}, compiled_cfg);
  const CosimResult parallel =
      vsim_sweep(r.transformed, r.schedule, vectors,
                 {.block_size = 16, .pool = &four}, compiled_cfg);
  EXPECT_TRUE(serial.ok())
      << (serial.mismatches.empty() ? "" : serial.mismatches.front());
  EXPECT_TRUE(parallel.ok());
  EXPECT_EQ(serial.vectors, 96u);
  EXPECT_EQ(serial.blocks, 6u);
  EXPECT_EQ(parallel.blocks, serial.blocks);
  EXPECT_EQ(parallel.mismatches, serial.mismatches);

  // An externally owned pool shared across sweeps behaves the same.
  util::ThreadPool pool(3);
  const CosimResult pooled =
      vsim_sweep(r.transformed, r.schedule, vectors,
                 {.block_size = 16, .pool = &pool}, compiled_cfg);
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.blocks, serial.blocks);
}

TEST(VsimCompiledSweep, CompiledAndEventSweepsAgreeOnStatefulDecoder) {
  // The QAM decoder carries state across symbols; block_size >= vectors
  // keeps one sequential replay from reset. Both backends execute the same
  // parsed text against the same interpreter golden — and both must pass.
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 20);
  util::ThreadPool two(2);
  const hls::CosimOptions opts{.block_size = vectors.size(), .pool = &two};
  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;
  const CosimResult compiled =
      vsim_sweep(r.transformed, r.schedule, vectors, opts, SimConfig{});
  const CosimResult event =
      vsim_sweep(r.transformed, r.schedule, vectors, opts, event_cfg);
  EXPECT_TRUE(compiled.ok())
      << (compiled.mismatches.empty() ? "" : compiled.mismatches.front());
  EXPECT_TRUE(event.ok())
      << (event.mismatches.empty() ? "" : event.mismatches.front());
  EXPECT_EQ(compiled.vectors, 20u);
  EXPECT_EQ(compiled.blocks, 1u);
  EXPECT_EQ(event.blocks, compiled.blocks);
  EXPECT_EQ(event.mismatches, compiled.mismatches);
}

TEST(VsimCompiledSweep, ConcurrentConstructionSharesOnePlan) {
  // Many threads racing Simulation construction on the same Design must
  // all land on the compiled backend with the one plan the Design keeps —
  // and every simulation must compute the same answer.
  const hls::Function f = build_stateless_mac();
  const auto r = run_synthesis(f, Directives(), TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  auto design = load_design(verilog, r.transformed.name);

  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);

  const auto vectors = random_mac_vectors(4, 3);
  hls::Interpreter interp(r.transformed);
  const auto golden = interp.run_stream(vectors);

  constexpr int kThreads = 8;
  std::vector<std::string> backends(kThreads);
  std::vector<std::vector<PortIo>> outs(kThreads);
  {
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        PackedDutHarness h(r.transformed, design, 1);
        backends[t] = h.backend();
        outs[t] = h.run_streams({vectors}).front();
      });
    }
    for (auto& th : ts) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(backends[t], "compiled") << "thread " << t;
    ASSERT_EQ(outs[t].size(), golden.size()) << "thread " << t;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(outs[t][i].vars.at("acc").re, golden[i].vars.at("acc").re)
          << "thread " << t << " vector " << i;
    }
  }
  // The design handed back the same plan it compiled up front.
  EXPECT_EQ(compiled_plan(design, nullptr).get(), plan.get());
}

TEST(VsimCompiledSweep, RacingFirstRequestsBuildOnePlanAndOneModule) {
  // Eight threads, released at once, race the first compiled_plan, then the
  // first 4-lane packed_codegen_plan, on a fresh elaboration nothing else
  // holds: the Design compiles its plan once, the plan builds its module
  // once, and every thread gets the same pointers. TSan watches both slots.
  const auto r = run_synthesis(qam::build_qam_decoder_ir(),
                               qam::table1_architectures()[0].dir,
                               TechLibrary::asic90());
  const auto design = elaborate(
      parse(rtl::emit_verilog(r.transformed, r.schedule)), r.transformed.name);
  const bool native = codegen_available();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const auto loads = [&m] {
    return m.counter_value("vsim.codegen.so_cache.hits") +
           m.counter_value("vsim.codegen.so_cache.misses");
  };
  const double compiles0 = m.counter_value("vsim.compile.designs");
  const double loads0 = loads();

  constexpr int kThreads = 8;
  std::vector<const CompiledDesign*> plans(kThreads);
  std::vector<const PackedCodegenModule*> mods(kThreads);
  std::vector<std::string> whys(kThreads);
  std::atomic<bool> go{false};
  {
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        const auto plan = compiled_plan(design, nullptr);
        plans[t] = plan.get();
        if (native) mods[t] = packed_codegen_plan(plan, 4, &whys[t]).get();
      });
    }
    go.store(true);
    for (auto& th : ts) th.join();
  }
  obs::set_enabled(was_enabled);

  ASSERT_NE(plans[0], nullptr);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(plans[t], plans[0]) << "thread " << t;
  EXPECT_EQ(m.counter_value("vsim.compile.designs"), compiles0 + 1.0);
  if (!native)
    GTEST_SKIP() << "no host C++ toolchain: the module half did not run";
  ASSERT_NE(mods[0], nullptr) << whys[0];
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(mods[t], mods[0]) << "thread " << t;
  EXPECT_EQ(loads(), loads0 + 1.0) << "the module was loaded or built twice";
}

}  // namespace
}  // namespace hlsw::vsim
