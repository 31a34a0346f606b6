// Verification-performance ladder for the in-process Verilog simulator:
// where does executing the emitted TEXT sit relative to the cycle-accurate
// rtl::Simulator and the untimed interpreter? Sections time the vsim
// front end (parse + elaborate of the emitted module), the generated
// self-checking testbench run (DUT bound vs flattened), one-lane
// PackedDutHarness execution, the
// serial vs thread-pooled vsim_sweep, and lane-packed sweeps on the
// generated native engine against scalar replay (the only lane-packed
// engine; without a toolchain its legs run one compiled Simulation per
// lane and the config note says so), the golden leg's lanes against
// per-block replay, and per Table 1 design the 64-lane native DUT against
// 64 one-lane native engines — producing BENCH_vsim.json
// (--reps/--warmup/--json; see bench_main.h). Regenerate the committed
// baseline from the repo root with:
//   ./build/bench/bench_vsim --reps 5 --warmup 1
#include <benchmark/benchmark.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/lint.h"
#include "vsim/pack.h"
#include "vsim/parser.h"

namespace {

using namespace hlsw;
using hls::PortIo;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

void run_harness_sections(bench::Harness* h) {
  const auto ir = qam::build_qam_decoder_ir();
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(ir, arch.dir, TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);

  // Front end: source text -> AST -> elaborated netlist.
  h->measure("parse_emitted_module",
             [&] { benchmark::DoNotOptimize(vsim::parse(verilog)); });
  const auto su = vsim::parse(verilog);
  h->measure("elaborate_emitted_module", [&] {
    benchmark::DoNotOptimize(vsim::elaborate(su, r.transformed.name));
  });
  auto design = vsim::elaborate(su, r.transformed.name);
  h->measure("lint_emitted_module",
             [&] { benchmark::DoNotOptimize(vsim::lint(*design)); });

  // Compiling the levelized execution plan is part of the compiled
  // backend's cost story: measured cold (a fresh Design each rep, which
  // holds no plan yet, so compiled_plan compiles every time).
  h->measure("compile_plan_cold", [&] {
    auto fresh = vsim::elaborate(su, r.transformed.name);
    benchmark::DoNotOptimize(vsim::compiled_plan(fresh, nullptr));
  });

  // Per-symbol execution ladder: rtl::Simulator vs both vsim backends on
  // the same stimulus (the event backend evaluates the stratified queue,
  // the compiled backend replays levelized tapes; rtl::Simulator replays a
  // pre-scheduled plan — the remaining gap is the price of executing text).
  const int kSymbols = 100;
  LinkStimulus stim((LinkConfig()));
  const std::vector<PortIo> batch = qam::link_input_batch(&stim, kSymbols);
  const auto t_rtl = h->measure("rtl_sim_100_symbols", [&] {
    rtl::Simulator sim(r.transformed, r.schedule);
    for (const auto& in : batch) benchmark::DoNotOptimize(sim.run(in));
  });
  const auto t_vsim = h->measure("vsim_harness_100_symbols", [&] {
    vsim::PackedDutHarness dut(r.transformed, design, 1);
    benchmark::DoNotOptimize(dut.run_streams({batch}));
  });
  vsim::SimConfig event_cfg;
  event_cfg.backend = vsim::Backend::kEvent;
  const auto t_vsim_event = h->measure("vsim_harness_100_symbols_event", [&] {
    vsim::PackedDutHarness dut(r.transformed, design, 1, event_cfg);
    benchmark::DoNotOptimize(dut.run_streams({batch}));
  });

  // Native engine at one lane: same harness loop through the generated
  // .so. The first construction pays generate+compile+dlopen (absorbed by
  // warmup; later reps hit the on-disk cache); on toolchain-less machines
  // this silently measures the compiled-interpreter fallback — the note
  // records which backend actually ran.
  vsim::SimConfig codegen_cfg;
  codegen_cfg.backend = vsim::Backend::kPackedCodegen;
  std::string codegen_backend = "unknown";
  const auto t_vsim_codegen =
      h->measure("vsim_harness_100_symbols_codegen", [&] {
        vsim::PackedDutHarness dut(r.transformed, design, 1, codegen_cfg);
        codegen_backend = dut.backend();
        benchmark::DoNotOptimize(dut.run_streams({batch}));
      });

  // Instrumentation overhead: the same 100 symbols through a module
  // emitted with on-chip perf counters (hls::InstrumentOptions) vs the
  // plain module — the cost of measuring the hardware while simulating it.
  rtl::VerilogOptions inst_opts;
  inst_opts.instrument.enabled = true;
  const std::string verilog_inst =
      rtl::emit_verilog(r.transformed, r.schedule, inst_opts);
  auto design_inst = vsim::load_design(verilog_inst, r.transformed.name);
  const auto t_vsim_inst =
      h->measure("vsim_harness_100_symbols_instrumented", [&] {
        vsim::PackedDutHarness dut(r.transformed, design_inst, 1);
        benchmark::DoNotOptimize(dut.run_streams({batch}));
      });

  // The end-to-end testbench path the examples use: the generated
  // self-checking testbench run to its PASS/FAIL summary in-process, by
  // default with its DUT bound and on the compiled engine, and flattened
  // on the event kernel (kEvent, the oracle).
  const auto tvs = rtl::capture_vectors(r.transformed, r.schedule,
                                        {batch.begin(), batch.begin() + 8});
  const std::string tb =
      rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
  bool tb_passed = true;
  const auto testbench_leg = [&](const char* name,
                                 const vsim::SimConfig& cfg) {
    return h->measure(name, [&] {
      const auto res =
          vsim::run_testbench(verilog, tb, r.transformed.name + "_tb", cfg);
      tb_passed = tb_passed && res.passed;
      benchmark::DoNotOptimize(res);
    });
  };
  const auto t_tb = testbench_leg("testbench_8_vectors", {});
  const auto t_tb_flat =
      testbench_leg("testbench_8_vectors_flattened", event_cfg);

  // Differential sweep, inline vs on a pool of 4 (stateless per-vector
  // replay is not valid for the stateful decoder, so shards are blocks),
  // on both backends — one elaborated Design and one memoized plan are
  // shared across every leg.
  util::ThreadPool pool4(4);
  const auto t_serial = h->measure("vsim_sweep_serial", [&] {
    benchmark::DoNotOptimize(vsim::vsim_sweep(r.transformed, r.schedule, batch,
                                              {.block_size = batch.size()}));
  });
  const auto t_par = h->measure("vsim_sweep_pool4", [&] {
    benchmark::DoNotOptimize(vsim::vsim_sweep(
        r.transformed, r.schedule, batch,
        {.block_size = batch.size() / 4, .pool = &pool4}));
  });
  const auto t_serial_event = h->measure("vsim_sweep_serial_event", [&] {
    benchmark::DoNotOptimize(vsim::vsim_sweep(r.transformed, r.schedule, batch,
                                              {.block_size = batch.size()},
                                              event_cfg));
  });
  const auto t_par_event = h->measure("vsim_sweep_pool4_event", [&] {
    benchmark::DoNotOptimize(vsim::vsim_sweep(
        r.transformed, r.schedule, batch,
        {.block_size = batch.size() / 4, .pool = &pool4}, event_cfg));
  });

  // Lane-packed sweeps: 64 independent 25-symbol blocks (every block its
  // own burst, replayed from reset on both legs) through one scalar
  // compiled sweep vs 8- and 64-lane runs of the SAME blocks on the
  // generated lane-major engine, requested explicitly with kPackedCodegen.
  // Every full-sweep leg runs the golden reference of a batch's blocks in
  // lockstep (hls::Interpreter::run_streams). Throughput is reported per
  // lane so the lane-scaling efficiency is visible next to the raw
  // speedup.
  vsim::SimConfig packed_cg_cfg;
  packed_cg_cfg.backend = vsim::Backend::kPackedCodegen;
  const int kSweepSymbols = 1600;
  const std::size_t kSweepBlock = 25;
  const std::vector<PortIo> sweep_batch =
      qam::link_input_batch(&stim, kSweepSymbols);
  const auto t_sweep1 = h->measure("vsim_sweep_blocks_scalar", [&] {
    benchmark::DoNotOptimize(
        vsim::vsim_sweep(r.transformed, r.schedule, sweep_batch,
                         {.block_size = kSweepBlock}));
  });
  const auto t_sweep8_cg = h->measure("vsim_sweep_blocks_packed8_codegen", [&] {
    benchmark::DoNotOptimize(vsim::vsim_sweep(
        r.transformed, r.schedule, sweep_batch,
        {.block_size = kSweepBlock, .lanes = 8}, packed_cg_cfg));
  });
  const auto t_sweep64_cg =
      h->measure("vsim_sweep_blocks_packed64_codegen", [&] {
        benchmark::DoNotOptimize(vsim::vsim_sweep(
            r.transformed, r.schedule, sweep_batch,
            {.block_size = kSweepBlock, .lanes = 64}, packed_cg_cfg));
      });
  // DUT-only throughput pair: the same 64 blocks replayed per-block
  // through one-lane harnesses vs one 64-lane PackedDutHarness. A full
  // differential sweep runs the golden interpreter leg identically on both
  // sides (an Amdahl floor the lane count cannot touch), so this pair
  // isolates what lane packing actually accelerates — the simulator-side
  // sweep work.
  std::string pack_why;
  const auto pack_plan = vsim::compiled_plan(design, &pack_why);
  const int kDutLanes = 64;
  std::vector<std::vector<PortIo>> dut_streams(kDutLanes);
  for (int b = 0; b < kDutLanes; ++b)
    dut_streams[static_cast<std::size_t>(b)]
        .assign(sweep_batch.begin() + b * static_cast<long>(kSweepBlock),
                sweep_batch.begin() + (b + 1) * static_cast<long>(kSweepBlock));
  const auto t_dut_scalar = h->measure("vsim_sweep_dut_scalar", [&] {
    for (const auto& s : dut_streams) {
      vsim::PackedDutHarness dut(r.transformed, design, 1);
      benchmark::DoNotOptimize(dut.run_streams({s}));
    }
  });
  // Same streams through one 64-lane native engine; the note records which
  // backend actually ran (toolchain-less machines degrade to one compiled
  // Simulation per lane, making this leg ~equal to the scalar one above).
  std::string packed_cg_backend = "unknown";
  const auto t_dut_packed_cg =
      h->measure("vsim_sweep_dut_packed64_codegen", [&] {
        vsim::PackedDutHarness dut(r.transformed, pack_plan, kDutLanes,
                                   packed_cg_cfg);
        packed_cg_backend = dut.backend();
        benchmark::DoNotOptimize(dut.run_streams(dut_streams));
      });

  // The golden leg alone, on the same 64 blocks: one run_streams call
  // (the blocks in lockstep, Interpreter::kLaneWidth at a time) vs one
  // interpreter replaying them one by one, reset between blocks.
  const auto t_golden_lanes = h->measure("vsim_sweep_golden_lanes64", [&] {
    hls::Interpreter golden(r.transformed);
    golden.run_streams(dut_streams, [](std::size_t, std::size_t, PortIo out) {
      benchmark::DoNotOptimize(out);
    });
  });
  const auto t_golden_lane1 = h->measure("vsim_sweep_golden_lane1x64", [&] {
    hls::Interpreter golden(r.transformed);
    for (std::size_t l = 0; l < dut_streams.size(); ++l) {
      if (l > 0) golden.reset();
      benchmark::DoNotOptimize(golden.run_stream(dut_streams[l]));
    }
  });

  // What the lane dimension buys on each Table 1 design: the same 64
  // blocks through one 64-lane native engine vs 64 one-lane native engines
  // (a one-lane harness per block, Backend::kPackedCodegen). Both legs run
  // generated code; ROADMAP's rule drops the lanes below 2.5x.
  std::vector<std::pair<std::string, double>> lane_ratios;
  for (const qam::Architecture& a : qam::table1_architectures()) {
    const auto ra = hls::run_synthesis(ir, a.dir, TechLibrary::asic90());
    const auto da = vsim::load_design(
        rtl::emit_verilog(ra.transformed, ra.schedule), ra.transformed.name);
    const auto pa = vsim::compiled_plan(da, nullptr);
    std::string tag = a.name;
    for (char& c : tag)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    const auto t_wide = h->measure("vsim_dut_packed64_" + tag, [&] {
      vsim::PackedDutHarness dut(ra.transformed, pa, kDutLanes, packed_cg_cfg);
      benchmark::DoNotOptimize(dut.run_streams(dut_streams));
    });
    const auto t_one = h->measure("vsim_dut_lane1x64_" + tag, [&] {
      for (const auto& s : dut_streams) {
        vsim::PackedDutHarness dut(ra.transformed, da, 1, codegen_cfg);
        benchmark::DoNotOptimize(dut.run_streams({s}));
      }
    });
    lane_ratios.emplace_back(tag, t_one.min_ms / t_wide.min_ms);
  }

  const auto throughput_note = [&](const std::string& label, int symbols,
                                   double min_ms, int lanes) {
    const double sym_per_sec = symbols / (min_ms / 1000.0);
    h->note(label, obs::Json::object()
                       .set("lanes", lanes)
                       .set("symbols_per_sec", sym_per_sec)
                       .set("symbols_per_sec_per_lane", sym_per_sec / lanes));
  };
  const auto sweep_note = [&](const std::string& label, double min_ms,
                              int lanes) {
    throughput_note(label, kSweepSymbols, min_ms, lanes);
  };
  sweep_note("sweep_blocks_scalar", t_sweep1.min_ms, 1);
  sweep_note("sweep_blocks_packed8_codegen", t_sweep8_cg.min_ms, 8);
  sweep_note("sweep_blocks_packed64_codegen", t_sweep64_cg.min_ms, 64);
  sweep_note("sweep_dut_scalar", t_dut_scalar.min_ms, 1);
  sweep_note("sweep_dut_packed64_codegen", t_dut_packed_cg.min_ms, kDutLanes);
  throughput_note("harness_compiled", kSymbols, t_vsim.min_ms, 1);
  throughput_note("harness_codegen", kSymbols, t_vsim_codegen.min_ms, 1);

  h->note("config", obs::Json::object()
                        .set("architecture", arch.name)
                        .set("symbols", kSymbols)
                        .set("sweep_symbols", kSweepSymbols)
                        .set("sweep_block_size",
                             static_cast<long long>(kSweepBlock))
                        .set("codegen_backend", codegen_backend)
                        .set("packed_codegen_backend", packed_cg_backend)
                        .set("testbench_passed", tb_passed));
  h->note("slowdown_vsim_vs_rtl_sim", t_vsim.min_ms / t_rtl.min_ms);
  h->note("overhead_instrumented_vs_plain",
          t_vsim_inst.min_ms / t_vsim.min_ms);
  h->note("slowdown_vsim_event_vs_rtl_sim",
          t_vsim_event.min_ms / t_rtl.min_ms);
  h->note("speedup_compiled_vs_event", t_vsim_event.min_ms / t_vsim.min_ms);
  h->note("speedup_testbench_bound_vs_flattened",
          t_tb_flat.min_ms / t_tb.min_ms);
  h->note("speedup_codegen_vs_compiled",
          t_vsim.min_ms / t_vsim_codegen.min_ms);
  h->note("speedup_packed8_codegen_vs_scalar_sweep",
          t_sweep1.min_ms / t_sweep8_cg.min_ms);
  h->note("speedup_packed64_codegen_vs_scalar_sweep",
          t_sweep1.min_ms / t_sweep64_cg.min_ms);
  h->note("speedup_packed64_codegen_dut_vs_scalar_dut",
          t_dut_scalar.min_ms / t_dut_packed_cg.min_ms);
  for (const auto& [tag, ratio] : lane_ratios)
    h->note("speedup_packed64_vs_lane1_dut_" + tag, ratio);
  h->note("speedup_golden_lanes64_vs_lane1",
          t_golden_lane1.min_ms / t_golden_lanes.min_ms);
  h->note("speedup_sweep_pool4_vs_serial", t_serial.min_ms / t_par.min_ms);
  h->note("speedup_sweep_pool4_vs_serial_event",
          t_serial_event.min_ms / t_par_event.min_ms);
}

void BM_VsimSymbol(benchmark::State& state) {
  const auto arch =
      qam::table1_architectures()[static_cast<size_t>(state.range(0))];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  auto design = vsim::load_design(verilog, r.transformed.name);
  vsim::PackedDutHarness dut(r.transformed, design, 1);
  LinkStimulus stim((LinkConfig()));
  for (auto _ : state) {
    const auto s = stim.next();
    PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    benchmark::DoNotOptimize(dut.run_streams({{io}}));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(arch.name);
}
BENCHMARK(BM_VsimSymbol)->DenseRange(0, 3);

void BM_VsimLoadDesignCached(benchmark::State& state) {
  // load_design memoizes elaborated designs in a process-wide LRU; after
  // the first call this measures the cache-hit path (key build + lookup).
  const auto arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  for (auto _ : state)
    benchmark::DoNotOptimize(vsim::load_design(verilog, r.transformed.name));
}
BENCHMARK(BM_VsimLoadDesignCached);

}  // namespace

int main(int argc, char** argv) {
  hlsw::bench::Harness harness("vsim", &argc, argv);
  run_harness_sections(&harness);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  harness.write();
  return 0;
}
