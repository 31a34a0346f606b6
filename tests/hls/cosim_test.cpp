// Parallel co-simulation sweep (hls::cosim_sweep): golden-vs-DUT replay
// sharded into blocks across a thread pool, with fresh model instances per
// block and a deterministic merge. The tests pin four properties: the one
// block driver (hls::sweep_blocks) joins any grouping of blocks into tasks
// in block order and caps once, serial and parallel sweeps produce
// identical results (including the mismatch list, byte for byte), real
// divergences are reported deterministically, and a stateful design
// verifies end-to-end when replayed as one block.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hls/builder.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "util/thread_pool.h"

namespace hlsw::hls {
namespace {

// A design with NO cross-invocation state (acc is rewritten from a
// constant every run), so test-vector blocks are independent by
// construction and the sweep may shard freely.
Function build_stateless_mac() {
  FunctionBuilder fb("sqmac");
  const int x = fb.add_array("x", 16, fx(10, 0), false, PortDir::kIn);
  const int acc = fb.add_var("acc", fx(28, 8), false, PortDir::kOut);
  {
    auto b0 = fb.block("init");
    b0.var_write(acc, b0.cnst(fx(28, 8), 0.0));
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

// The one block driver every sweep runs on, with a synthetic task: block b
// reports b % 3 + 1 lines. 25 vectors in blocks of 2 make 13 blocks (the
// last one ragged), so 4 and 7 blocks per task leave a ragged last task.
// Inline and on a pool of 3, at every grouping, the joined list reads in
// block order, every block is handed out exactly once, and the cap applies
// once: one "suppressed" line whatever the grouping.
TEST(CosimSweep, BlockDriverJoinsInBlockOrderAndCapsOnce) {
  constexpr std::size_t kBlocks = 13;
  const std::vector<PortIo> vectors(2 * kBlocks - 1);
  const auto report = [](std::size_t b, std::vector<std::string>* out) {
    for (std::size_t k = 0; k <= b % 3; ++k)
      out->push_back("block " + std::to_string(b) + " report " +
                     std::to_string(k));
  };
  std::vector<std::string> all;
  for (std::size_t b = 0; b < kBlocks; ++b) report(b, &all);

  util::ThreadPool three(3);
  for (const std::size_t limit : {0, 1, 5}) {
    std::vector<std::string> want(all);
    if (limit != 0) {
      want.resize(limit);
      want.push_back("... " + std::to_string(all.size() - limit) +
                     " more mismatches suppressed");
    }
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                   &three}) {
      for (const std::size_t per : {1, 4, 7}) {
        SCOPED_TRACE("limit " + std::to_string(limit) + ", " +
                     std::to_string(per) + " blocks per task" +
                     (pool ? ", pool of 3" : ", inline"));
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> tasks;
        const CosimResult res = sweep_blocks(
            vectors,
            {.block_size = 2, .pool = pool, .mismatch_limit = limit}, per,
            [&](std::size_t first, std::size_t n) {
              {
                std::lock_guard<std::mutex> lock(mu);
                tasks.emplace_back(first, n);
              }
              std::vector<std::string> out;
              for (std::size_t b = first; b < first + n; ++b) report(b, &out);
              return out;
            });
        EXPECT_EQ(res.vectors, vectors.size());
        EXPECT_EQ(res.blocks, kBlocks);
        EXPECT_EQ(res.total_mismatches, all.size());
        EXPECT_EQ(res.mismatches, want);
        // Consecutive runs of `per` blocks, the last one ragged.
        std::sort(tasks.begin(), tasks.end());
        ASSERT_EQ(tasks.size(), (kBlocks + per - 1) / per);
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          EXPECT_EQ(tasks[t].first, t * per);
          EXPECT_EQ(tasks[t].second, std::min(per, kBlocks - t * per));
        }
      }
    }
  }
}

TEST(CosimSweep, SerialAndParallelSweepsAgree) {
  const Function f = build_stateless_mac();
  Directives dir;
  dir.loops["mac"].pipeline_ii = 1;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());

  const CosimFactory golden = [&] {
    return [in = std::make_shared<Interpreter>(r.transformed)](
               const std::vector<PortIo>& v) { return in->run_stream(v); };
  };
  const CosimFactory dut = [&] {
    return [sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule)](
               const std::vector<PortIo>& v) { return sim->run_stream(v); };
  };

  const auto vectors = random_mac_vectors(1000, 7);
  util::ThreadPool four(4);
  const CosimResult serial =
      cosim_sweep(golden, dut, vectors, {.block_size = 64});
  const CosimResult parallel =
      cosim_sweep(golden, dut, vectors, {.block_size = 64, .pool = &four});

  EXPECT_TRUE(serial.ok());
  EXPECT_TRUE(parallel.ok());
  EXPECT_EQ(serial.vectors, 1000u);
  EXPECT_EQ(serial.blocks, 16u);  // ceil(1000 / 64)
  EXPECT_EQ(parallel.vectors, serial.vectors);
  EXPECT_EQ(parallel.blocks, serial.blocks);
  EXPECT_EQ(parallel.mismatches, serial.mismatches);

  // An externally owned pool shared across sweeps behaves the same.
  util::ThreadPool pool(3);
  const CosimResult pooled =
      cosim_sweep(golden, dut, vectors, {.block_size = 64, .pool = &pool});
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.blocks, serial.blocks);
}

TEST(CosimSweep, ReportsMismatchesDeterministically) {
  const Function f = build_stateless_mac();
  Directives dir;
  const auto r = run_synthesis(f, dir, TechLibrary::asic90());

  const CosimFactory golden = [&] {
    return [in = std::make_shared<Interpreter>(r.transformed)](
               const std::vector<PortIo>& v) { return in->run_stream(v); };
  };
  // DUT corrupts the accumulator of every 97th result — a sparse, known
  // divergence the sweep must localize by absolute vector index.
  const CosimFactory bad_dut = [&] {
    auto sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule);
    auto count = std::make_shared<int>(0);
    return [sim, count](const std::vector<PortIo>& v) {
      std::vector<PortIo> outs = sim->run_stream(v);
      for (auto& o : outs)
        if ((*count)++ % 97 == 0) o.vars.at("acc").re += 1;
      return outs;
    };
  };

  const auto vectors = random_mac_vectors(400, 11);
  // Serial run: one DUT instance sees all vectors in order, so corruption
  // lands on absolute indices 0, 97, 194, 291, 388.
  const CosimResult serial =
      cosim_sweep(golden, bad_dut, vectors, {.block_size = 4096});
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.mismatches.size(), 5u);
  // Two serial runs are byte-identical.
  const CosimResult again =
      cosim_sweep(golden, bad_dut, vectors, {.block_size = 4096});
  EXPECT_EQ(serial.mismatches, again.mismatches);
  // Mismatch reports carry the absolute vector index.
  for (const auto& m : serial.mismatches)
    EXPECT_NE(m.find("vector"), std::string::npos) << m;
  EXPECT_NE(serial.mismatches[0].find("0"), std::string::npos);
  EXPECT_NE(serial.mismatches[1].find("97"), std::string::npos);

  // Parallel with per-block replay: each block's DUT restarts its counter,
  // so vector 0 of EVERY block mismatches — still deterministic across
  // worker schedules.
  util::ThreadPool four(4), two(2);
  const CosimResult par1 = cosim_sweep(golden, bad_dut, vectors,
                                       {.block_size = 50, .pool = &four});
  const CosimResult par2 = cosim_sweep(golden, bad_dut, vectors,
                                       {.block_size = 50, .pool = &two});
  ASSERT_FALSE(par1.ok());
  EXPECT_EQ(par1.blocks, 8u);
  EXPECT_EQ(par1.mismatches.size(), 8u);  // one corrupted vector per block
  EXPECT_EQ(par1.mismatches, par2.mismatches);
}

TEST(CosimSweep, StatefulDecoderVerifiesAsOneSequentialBlock) {
  // The QAM decoder carries state across symbols (delay lines, adapting
  // coefficients), so the documented recipe is block_size >= vectors:
  // one sequential replay from reset, still through the sweep machinery.
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 500);

  const CosimFactory golden = [&] {
    return [in = std::make_shared<Interpreter>(r.transformed)](
               const std::vector<PortIo>& v) { return in->run_stream(v); };
  };
  const CosimFactory dut = [&] {
    return [sim = std::make_shared<rtl::Simulator>(r.transformed, r.schedule)](
               const std::vector<PortIo>& v) { return sim->run_stream(v); };
  };
  util::ThreadPool two(2);
  const CosimResult res = cosim_sweep(
      golden, dut, vectors, {.block_size = vectors.size(), .pool = &two});
  EXPECT_TRUE(res.ok()) << (res.mismatches.empty() ? ""
                                                   : res.mismatches.front());
  EXPECT_EQ(res.blocks, 1u);
  EXPECT_EQ(res.vectors, 500u);
}

TEST(CosimSweep, EmptyVectorSetIsTriviallyOk) {
  const CosimFactory none = [] {
    return [](const std::vector<PortIo>& v) { return v; };
  };
  const CosimResult res = cosim_sweep(none, none, {});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.vectors, 0u);
  EXPECT_EQ(res.blocks, 0u);
}

}  // namespace
}  // namespace hlsw::hls
