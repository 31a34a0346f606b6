// Parallel vsim_sweep: the ONE elaborated Design is shared read-only across
// worker threads while every shard builds its own harness — serial and
// parallel sweeps must agree byte for byte (results AND mismatch lists),
// merged deterministically via util::map_ordered. This file is also
// compiled into a ThreadSanitizer variant (vsim_sweep_test_tsan), which is
// what actually certifies the shared-Design claim.
#include <gtest/gtest.h>

#include <memory>
#include <random>
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
#include "util/thread_pool.h"
#include "vsim/harness.h"

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

TEST(VsimSweep, EmptyVectorSetIsTriviallyOk) {
  const hls::Function f = build_stateless_mac();
  const auto r = run_synthesis(f, Directives(), TechLibrary::asic90());
  const CosimResult res = vsim_sweep(r.transformed, r.schedule, {});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.vectors, 0u);
}

}  // namespace
}  // namespace hlsw::vsim
