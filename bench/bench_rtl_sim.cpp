// Experiment F4 (verification performance): the paper notes RTL simulation
// "is too slow to perform functional verification of the system", which is
// why FPGA prototyping exists in the flow. This harness quantifies the gap
// in our stack: symbols/second through (a) the native fixed-point C model,
// (b) the untimed IR interpreter, and (c) the cycle-accurate RTL simulator
// for each Table 1 architecture — and verifies bit-exactness while doing
// so.
//
// The harness-measured sections additionally track the compiled-plan
// simulator against its legacy interpretive path (SimOptions::compiled =
// false), the batched run_stream API and the untimed golden
// (hls::Interpreter::run_stream on the same transformed IR), producing
// BENCH_rtl_sim.json (--reps/--warmup/--json; see bench_main.h). The
// program exits 1 when the timed series disagree bit for bit. Regenerate
// the committed baseline from the repo root with:
//   ./build/bench/bench_rtl_sim --reps 5 --warmup 1
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "bench_main.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_fixed.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"

namespace {

using namespace hlsw;
using hls::Interpreter;
using hls::PortIo;
using hls::run_synthesis;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkSample;
using qam::LinkStimulus;

void print_speed_ladder() {
  std::printf("\n== Model speed ladder (experiment F4): why the paper "
              "verifies on FPGA, not in RTL simulation ==\n");
  const int symbols = 3000;
  auto rate = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return symbols / dt;
  };

  // Native C model.
  const double r_native = rate([&] {
    LinkStimulus stim((LinkConfig()));
    qam::QamDecoderFixed<> dec;
    for (int n = 0; n < symbols; ++n) {
      const LinkSample s = stim.next();
      const qam::QamDecoderFixed<>::input_type x_in[2] = {
          {fixpt::fixed<10, 0>::from_raw(
               fixpt::wide_int<10>(static_cast<long long>(s.q0.re))),
           fixpt::fixed<10, 0>::from_raw(
               fixpt::wide_int<10>(static_cast<long long>(s.q0.im)))},
          {fixpt::fixed<10, 0>::from_raw(
               fixpt::wide_int<10>(static_cast<long long>(s.q1.re))),
           fixpt::fixed<10, 0>::from_raw(
               fixpt::wide_int<10>(static_cast<long long>(s.q1.im)))}};
      fixpt::wide_int<6, false> data;
      dec.decode(x_in, &data);
      benchmark::DoNotOptimize(data);
    }
  });
  std::printf("  %-34s %12.0f symbols/s\n", "native C model (fixpt)",
              r_native);

  // IR interpreter.
  const auto ir = qam::build_qam_decoder_ir();
  const double r_interp = rate([&] {
    LinkStimulus stim((LinkConfig()));
    Interpreter in(ir);
    for (int n = 0; n < symbols; ++n) {
      const LinkSample s = stim.next();
      PortIo io;
      io.arrays["x_in"] = {s.q0, s.q1};
      benchmark::DoNotOptimize(in.run(io));
    }
  });
  std::printf("  %-34s %12.0f symbols/s  (%.1fx slower than C)\n",
              "untimed IR interpreter", r_interp, r_native / r_interp);

  // RTL simulation per architecture (compiled plan — the default).
  for (const auto& a : qam::table1_architectures()) {
    const auto r = run_synthesis(ir, a.dir, TechLibrary::asic90());
    const double r_rtl = rate([&] {
      LinkStimulus stim((LinkConfig()));
      rtl::Simulator sim(r.transformed, r.schedule);
      for (int n = 0; n < symbols; ++n) {
        const LinkSample s = stim.next();
        PortIo io;
        io.arrays["x_in"] = {s.q0, s.q1};
        benchmark::DoNotOptimize(sim.run(io));
      }
    });
    std::printf("  %-34s %12.0f symbols/s  (%.1fx slower than C)\n",
                ("RTL simulation, " + a.name).c_str(), r_rtl,
                r_native / r_rtl);
  }
  std::printf("\n(an FPGA prototype at 5 MBaud would run 5e6 symbols/s — "
              "orders of magnitude above any software model here, which is "
              "the paper's point)\n\n");
}

// Interpretive vs compiled vs batched-stream series on the pipelined
// (ii=1) equalizer — the configuration where the interpretive path's
// O(trip x total_cycles x ops) rescan hurts most — and the untimed golden
// on the same IR, plus a 10k-symbol link sweep comparing per-symbol run()
// against batched run_stream(). Returns whether every timed series agreed
// bit for bit.
bool run_harness_sections(bench::Harness* h) {
  const auto archs = qam::exploration_architectures();
  const qam::Architecture* pipe = nullptr;
  for (const auto& a : archs)
    if (a.name == "merge+pipe") pipe = &a;
  if (pipe == nullptr) throw std::logic_error("merge+pipe arch not found");

  const auto ir = qam::build_qam_decoder_ir();
  const auto r = run_synthesis(ir, pipe->dir, TechLibrary::asic90());

  // Fixed stimulus generated once, outside every timed section, so each
  // series times simulation only (identical inputs in every series).
  const int kSymbols = 2000;
  LinkStimulus stim_a((LinkConfig()));
  const std::vector<PortIo> batch = qam::link_input_batch(&stim_a, kSymbols);

  const auto t_interp = h->measure("interpretive_run", [&] {
    rtl::Simulator sim(r.transformed, r.schedule, {.compiled = false});
    for (const auto& in : batch) benchmark::DoNotOptimize(sim.run(in));
  });
  const auto t_comp = h->measure("compiled_run", [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    for (const auto& in : batch) benchmark::DoNotOptimize(sim.run(in));
  });
  const auto t_stream = h->measure("compiled_stream", [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    benchmark::DoNotOptimize(sim.run_stream(batch));
  });
  h->measure("golden_stream", [&] {
    Interpreter golden(r.transformed);
    benchmark::DoNotOptimize(golden.run_stream(batch));
  });

  // Bit-identity audit of what was just timed: outputs, cycle counts and
  // SimStats must agree across the three simulator series, and the
  // golden's outputs must equal the compiled simulator's.
  bool identical = true;
  {
    rtl::Simulator legacy(r.transformed, r.schedule, {.compiled = false});
    rtl::Simulator comp(r.transformed, r.schedule);
    rtl::Simulator strm(r.transformed, r.schedule);
    std::vector<PortIo> comp_out;
    for (const auto& in : batch) comp_out.push_back(comp.run(in));
    std::vector<PortIo> legacy_out;
    for (const auto& in : batch) legacy_out.push_back(legacy.run(in));
    const std::vector<PortIo> strm_out = strm.run_stream(batch);
    const std::vector<PortIo> golden_out =
        Interpreter(r.transformed).run_stream(batch);
    for (int n = 0; n < kSymbols && identical; ++n) {
      const PortIo& c = comp_out[static_cast<size_t>(n)];
      const PortIo& l = legacy_out[static_cast<size_t>(n)];
      const PortIo& st = strm_out[static_cast<size_t>(n)];
      const PortIo& g = golden_out[static_cast<size_t>(n)];
      identical = c.arrays == l.arrays && c.vars == l.vars &&
                  st.arrays == c.arrays && st.vars == c.vars &&
                  g.arrays == c.arrays && g.vars == c.vars;
    }
    identical = identical && legacy.stats() == comp.stats() &&
                legacy.stats() == strm.stats() &&
                legacy.cycles() == comp.cycles();
  }

  h->note("config", obs::Json::object()
                        .set("architecture", pipe->name)
                        .set("symbols", kSymbols)
                        .set("paths_bit_identical", identical));
  h->note("speedup_compiled_vs_interpretive",
          t_interp.min_ms / t_comp.min_ms);
  h->note("speedup_stream_batch_vs_interpretive",
          t_interp.min_ms / t_stream.min_ms);

  // 10k-symbol link sweep: per-symbol run() vs the batched stream.
  const int kSweep = 10000;
  LinkStimulus stim_c((LinkConfig()));
  const std::vector<PortIo> sweep_batch =
      qam::link_input_batch(&stim_c, kSweep);

  const auto t_sweep_run = h->measure("link10k_per_symbol_run", [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    for (const auto& in : sweep_batch) benchmark::DoNotOptimize(sim.run(in));
  });
  const auto t_sweep_stream = h->measure("link10k_run_stream", [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    benchmark::DoNotOptimize(sim.run_stream(sweep_batch));
  });
  h->note("speedup_stream_vs_per_symbol_10k",
          t_sweep_run.min_ms / t_sweep_stream.min_ms);
  return identical;
}

void BM_RtlSimSymbol(benchmark::State& state) {
  const auto arch =
      qam::table1_architectures()[static_cast<size_t>(state.range(0))];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  rtl::Simulator sim(r.transformed, r.schedule);
  LinkStimulus stim((LinkConfig()));
  for (auto _ : state) {
    const LinkSample s = stim.next();
    PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    benchmark::DoNotOptimize(sim.run(io));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(arch.name);
}
BENCHMARK(BM_RtlSimSymbol)->DenseRange(0, 3);

void BM_InterpreterSymbol(benchmark::State& state) {
  Interpreter in(qam::build_qam_decoder_ir());
  LinkStimulus stim((LinkConfig()));
  for (auto _ : state) {
    const LinkSample s = stim.next();
    PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    benchmark::DoNotOptimize(in.run(io));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpreterSymbol);

void BM_VerilogEmit(benchmark::State& state) {
  const auto arch = qam::table1_architectures()[0];
  const auto r = run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                               TechLibrary::asic90());
  for (auto _ : state)
    benchmark::DoNotOptimize(rtl::emit_verilog(r.transformed, r.schedule));
}
BENCHMARK(BM_VerilogEmit);

}  // namespace

int main(int argc, char** argv) {
  hlsw::bench::Harness harness("rtl_sim", &argc, argv);
  const bool identical = run_harness_sections(&harness);
  print_speed_ladder();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  harness.write();
  if (!identical) {
    std::fprintf(stderr,
                 "bench_rtl_sim: the timed series disagree bit for bit "
                 "(paths_bit_identical = false)\n");
    return 1;
  }
  return 0;
}
