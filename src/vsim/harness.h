// The emit→verify loop closed in-process: glue between the HLS pipeline and
// the vsim Verilog interpreter.
//
//  - load_design:    parse + elaborate emitted Verilog text (traced),
//  - DutHarness:     drives an elaborated emitted module through the
//                    clk/rst/start/done protocol and speaks PortIo, so the
//                    executed Verilog text slots into hls::cosim_sweep as
//                    just another model,
//  - run_testbench:  runs the generated self-checking testbench (module +
//                    testbench text) to its PASS/FAIL summary,
//  - vsim_sweep:     parallel differential sweep (untimed golden vs executed
//                    Verilog text) — one elaborated design shared by every
//                    shard, a fresh Simulation per block,
//  - verify_emitted: the full third cosim leg — golden vs rtl::Simulator vs
//                    vsim, bit-for-bit, plus lint and the testbench run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/profile.h"
#include "hls/schedule.h"
#include "hls/verify.h"
#include "rtl/testbench.h"
#include "vsim/lint.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// Parses Verilog source text and elaborates `top` (spans vsim.parse and
// vsim.elaborate). Throws std::runtime_error with a diagnostic on any
// lex/parse/elaboration failure. Results are memoized in a small
// process-wide LRU keyed by (text, top) — repeated run_testbench/replay of
// the same source skips re-parsing and re-elaboration (counters
// vsim.design_cache.hits / .misses). The returned Design is immutable, so
// sharing one instance across callers and threads is safe.
std::shared_ptr<const Design> load_design(const std::string& verilog,
                                          const std::string& top);

// Drives an elaborated emit_verilog module: pokes flattened input pins,
// toggles clk, pulses start, waits for done, and reads flattened output
// pins back into PortIo form. State (register files, adaptive weights)
// carries across run() calls exactly as in rtl::Simulator.
class DutHarness {
 public:
  DutHarness(const hls::Function& f, std::shared_ptr<const Design> design,
             const SimConfig& cfg = {});

  // Applies reset (rst high across a few clock edges). Called on
  // construction; call again to replay from scratch.
  void reset();

  hls::PortIo run(const hls::PortIo& in);
  std::vector<hls::PortIo> run_stream(const std::vector<hls::PortIo>& ins);

  // Posedges from start assertion until done was observed high for the most
  // recent vector (== schedule latency_cycles + 1 for the emitted FSM).
  long long last_cycles() const { return last_cycles_; }

  // Reads the instrumented design's perf_* counter registers (cumulative
  // since the last reset) straight out of the simulated module — the
  // measurement leg of hls::reconcile_profile. The map must come from the
  // same InstrumentOptions the module was emitted with; throws (via
  // signal_handle) if a mapped counter does not exist in the design.
  hls::CounterValues read_counters(
      const std::vector<hls::PerfCounter>& map) const;

  Simulation& sim() { return sim_; }

 private:
  void tick();

  std::vector<rtl::PortPin> pins_;
  Simulation sim_;
  // Signal handles resolved once at construction: tick()/run() poke and
  // peek by index instead of re-hashing pin names every cycle.
  std::vector<int> pin_handle_;
  int h_clk_ = -1;
  int h_rst_ = -1;
  int h_start_ = -1;
  int h_done_ = -1;
  long long last_cycles_ = 0;
};

struct TestbenchResult {
  bool passed = false;    // PASS summary printed and no FAIL lines
  bool finished = false;  // reached $finish
  long long end_time = 0;
  std::vector<std::string> display;
  std::string vcd_name;  // $dumpfile argument ("" if the tb did not dump)
  std::string vcd_text;
};

// Parses `sources` (module + generated testbench in one string), elaborates
// `tb_module`, free-runs to $finish and scans the display log.
TestbenchResult run_testbench(const std::string& sources,
                              const std::string& tb_module,
                              const SimConfig& cfg = {});

// Emits Verilog for (f, s) and differentially sweeps the executed text
// against the untimed interpreter golden. The design is parsed and
// elaborated once (and the compiled execution plan, unless `cfg` asks for
// the event kernel, is memoized process-wide), so every shard shares the
// front-end work and only per-leg Simulation state is rebuilt; sharded per
// CosimOptions (thread pool, block size). Stateful designs need block_size
// >= vectors.size(), as with cosim_sweep. `cfg` selects the vsim backend
// for every leg (event vs compiled benchmarking).
hls::CosimResult vsim_sweep(const hls::Function& f, const hls::Schedule& s,
                            const std::vector<hls::PortIo>& vectors,
                            const hls::CosimOptions& opts = {},
                            const SimConfig& cfg = {});

struct VerifyEmittedResult {
  hls::CosimResult cosim;              // three-way mismatch reports
  std::vector<LintIssue> lint_issues;  // emitted module must lint clean
  TestbenchResult testbench;           // generated tb executed by vsim
  bool ok() const {
    return cosim.ok() && lint_issues.empty() && testbench.passed;
  }
};

// The full closed loop for one scheduled design: three-way differential
// (untimed golden vs rtl::Simulator vs vsim-executed Verilog text,
// bit-for-bit), structural lint of the emitted module, and the generated
// self-checking testbench run through vsim. The testbench replays the
// first (up to) 8 vectors; the differential covers all of them.
VerifyEmittedResult verify_emitted(const hls::Function& f,
                                   const hls::Schedule& s,
                                   const std::vector<hls::PortIo>& vectors,
                                   const hls::CosimOptions& opts = {});

}  // namespace hlsw::vsim
