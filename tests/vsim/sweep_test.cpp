// Parallel vsim_sweep: the ONE elaborated Design is shared read-only across
// worker threads while every shard builds its own harness — serial and
// parallel sweeps must agree byte for byte (results AND mismatch lists),
// merged deterministically via util::map_ordered. This file is also
// compiled into a ThreadSanitizer variant (vsim_sweep_test_tsan), which is
// what actually certifies the shared-Design claim.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
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
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::CosimResult;
using hls::Directives;
using hls::FxValue;
using hls::PortIo;
using hls::run_synthesis;
using hls::TechLibrary;

// Stateless squared-MAC (the cosim_test idiom): acc is rewritten from a
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

TEST(VsimSweep, SerialAndParallelSweepsAgree) {
  const hls::Function f = build_stateless_mac();
  Directives dir;
  dir.loops["mac"].pipeline_ii = 1;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());

  const auto vectors = random_mac_vectors(96, 7);
  const CosimResult serial = vsim_sweep(r.transformed, r.schedule, vectors,
                                        {.threads = 0, .block_size = 16});
  const CosimResult parallel = vsim_sweep(r.transformed, r.schedule, vectors,
                                          {.threads = 4, .block_size = 16});
  EXPECT_TRUE(serial.ok())
      << (serial.mismatches.empty() ? "" : serial.mismatches.front());
  EXPECT_TRUE(parallel.ok());
  EXPECT_EQ(serial.vectors, 96u);
  EXPECT_EQ(serial.blocks, 6u);
  EXPECT_EQ(parallel.blocks, serial.blocks);
  EXPECT_EQ(parallel.mismatches, serial.mismatches);

  // An externally owned pool shared across sweeps behaves the same.
  util::ThreadPool pool(3);
  const CosimResult pooled = vsim_sweep(r.transformed, r.schedule, vectors,
                                        {.block_size = 16, .pool = &pool});
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.blocks, serial.blocks);
}

TEST(VsimSweep, StatefulDecoderSweepsAsOneBlock) {
  // The QAM decoder carries state across symbols; block_size >= vectors
  // keeps one sequential replay from reset — still through the pool, still
  // executing parsed Verilog text on a worker thread.
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 20);
  const CosimResult res =
      vsim_sweep(r.transformed, r.schedule, vectors,
                 {.threads = 2, .block_size = vectors.size()});
  EXPECT_TRUE(res.ok()) << (res.mismatches.empty() ? ""
                                                   : res.mismatches.front());
  EXPECT_EQ(res.blocks, 1u);
  EXPECT_EQ(res.vectors, 20u);
}

TEST(VsimSweep, RepeatSweepsShareOneParsedDesign) {
  // Every sweep entry point — vsim_sweep, the nway battery legs, the
  // packed multi-lane path — funnels through load_design's process-wide
  // LRU, so re-sweeping the same emitted text must be all cache hits: the
  // module is parsed and elaborated at most once, never once per leg.
  const hls::Function f = build_stateless_mac();
  Directives dir;
  dir.loops["mac"].pipeline_ii = 1;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());
  const auto vectors = random_mac_vectors(32, 11);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();

  // Prime the cache (first contact may miss), then measure a re-sweep.
  vsim_sweep(r.transformed, r.schedule, vectors, {.block_size = 8});
  const double hits0 = m.counter_value("vsim.design_cache.hits");
  const double misses0 = m.counter_value("vsim.design_cache.misses");
  const CosimResult again = vsim_sweep(r.transformed, r.schedule, vectors,
                                       {.threads = 2, .block_size = 8});
  EXPECT_TRUE(again.ok());
  EXPECT_GE(m.counter_value("vsim.design_cache.hits"), hits0 + 1.0)
      << "re-sweeping the same design did not hit the design cache";
  EXPECT_EQ(m.counter_value("vsim.design_cache.misses"), misses0)
      << "re-sweeping the same design re-parsed it";

  // The packed multi-lane path funnels through the same LRU: a lanes > 1
  // re-sweep of the same text must also be pure cache hits, not a
  // per-lane or per-batch re-elaboration.
  const double hits1 = m.counter_value("vsim.design_cache.hits");
  const double misses1 = m.counter_value("vsim.design_cache.misses");
  const CosimResult packed = vsim_sweep(r.transformed, r.schedule, vectors,
                                        {.block_size = 8, .lanes = 4});
  EXPECT_TRUE(packed.ok());
  EXPECT_GE(m.counter_value("vsim.design_cache.hits"), hits1 + 1.0)
      << "packed re-sweep of the same design did not hit the design cache";
  EXPECT_EQ(m.counter_value("vsim.design_cache.misses"), misses1)
      << "packed re-sweep of the same design re-parsed it";

  obs::set_enabled(was_enabled);
}

// The DUT's pins take raw bits at their port's binary point, while both IR
// executors convert what they are given: a value stated at another binary
// point would reach the models as two different numbers, so the vsim legs
// refuse it and the IR-only sweep still agrees.
TEST(VsimSweep, ValueAtAnotherBinaryPointIsRefused) {
  const hls::Function f = build_stateless_mac();
  Directives dir;
  dir.loops["mac"].pipeline_ii = 1;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());
  auto vectors = random_mac_vectors(32, 11);
  vectors[9].arrays["x"][3].fw = 12;  // x is fx(10, 0): fw 10

  const auto refused = [](const std::function<void()>& run) {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("x_3"), std::string::npos) << what;
      EXPECT_NE(what.find("10"), std::string::npos) << what;
      EXPECT_NE(what.find("12"), std::string::npos) << what;
      return true;
    }
    return false;
  };
  EXPECT_TRUE(refused([&] {
    vsim_sweep(r.transformed, r.schedule, vectors, {.block_size = 8});
  }));
  EXPECT_TRUE(refused([&] {
    vsim_sweep(r.transformed, r.schedule, vectors,
               {.threads = 2, .block_size = 8, .lanes = 4});
  }));
  EXPECT_TRUE(refused(
      [&] { verify_emitted(r.transformed, r.schedule, vectors); }));

  // golden against rtl::Simulator: both take the value at its stated
  // binary point.
  const hls::Function& t = r.transformed;
  const CosimResult ir = hls::cosim_sweep(
      [&t]() -> hls::CosimModel {
        auto in = std::make_shared<hls::Interpreter>(t);
        return [in](const std::vector<PortIo>& v) { return in->run_stream(v); };
      },
      [&r]() -> hls::CosimModel {
        auto sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule);
        return [sim](const std::vector<PortIo>& v) {
          return sim->run_stream(v);
        };
      },
      vectors, {.block_size = 8});
  EXPECT_TRUE(ir.ok()) << (ir.mismatches.empty() ? "" : ir.mismatches.front());
}

TEST(VsimSweep, MissingInputPortIsRefused) {
  const hls::Function f = build_stateless_mac();
  const auto r = run_synthesis(f, Directives(), TechLibrary::asic90());
  const auto design = load_design(rtl::emit_verilog(r.transformed, r.schedule),
                                  r.transformed.name);
  PackedDutHarness h(r.transformed, design, 2);
  auto stream = random_mac_vectors(3, 5);
  stream[1].arrays.erase("x");
  try {
    h.run_streams({random_mac_vectors(3, 6), stream});
    ADD_FAILURE() << "a vector without input port x ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("port x"), std::string::npos)
        << e.what();
  }
}

TEST(VsimSweep, EmptyVectorSetIsTriviallyOk) {
  const hls::Function f = build_stateless_mac();
  const auto r = run_synthesis(f, Directives(), TechLibrary::asic90());
  const CosimResult res = vsim_sweep(r.transformed, r.schedule, {});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.vectors, 0u);
}

// Every batch opens one vsim_sweep.dut and one vsim_sweep.golden span on
// its worker, carrying the lanes that carry a block and the vectors they
// replay; over a sweep the args add up to its blocks and vectors.
TEST(VsimSweep, EachBatchRecordsOneDutAndOneGoldenSpan) {
  const hls::Function f = build_stateless_mac();
  const auto r = run_synthesis(f, Directives(), TechLibrary::asic90());
  const auto vectors = random_mac_vectors(50, 17);  // 13 blocks of <= 4
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  util::ThreadPool pool(2);
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE("lanes = " + std::to_string(lanes));
    obs::TraceSession::instance().clear();
    const CosimResult res = vsim_sweep(
        r.transformed, r.schedule, vectors,
        {.block_size = 4, .pool = &pool, .lanes = lanes});
    EXPECT_TRUE(res.ok());
    const std::size_t batches = lanes == 1 ? 13 : 4;
    for (const char* name : {"vsim_sweep.dut", "vsim_sweep.golden"}) {
      std::size_t spans = 0;
      long long blocks = 0, vecs = 0;
      for (const auto& e : obs::TraceSession::instance().snapshot()) {
        if (e.name != name) continue;
        ++spans;
        ASSERT_NE(e.args.find("lanes"), nullptr) << name;
        ASSERT_NE(e.args.find("vectors"), nullptr) << name;
        blocks += e.args.find("lanes")->as_int();
        vecs += e.args.find("vectors")->as_int();
      }
      EXPECT_EQ(spans, batches) << name;
      EXPECT_EQ(blocks, 13) << name;
      EXPECT_EQ(vecs, 50) << name;
    }
  }
  obs::TraceSession::instance().clear();
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace hlsw::vsim
