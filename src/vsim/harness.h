// The emit→verify loop closed in-process: glue between the HLS pipeline and
// the vsim Verilog interpreter. The emitted module is driven through its
// clk/rst/start/done protocol by PackedDutHarness (pack.h), the one DUT
// harness, at one lane or many.
//
//  - load_design:    parse + elaborate emitted Verilog text (traced),
//  - run_testbench:  runs the generated self-checking testbench to its
//                    PASS/FAIL summary: the testbench text parsed alone,
//                    its DUT instance bound to the loaded module and run
//                    on the compiled engine, its own processes on the
//                    event kernel,
//  - vsim_sweep:     differential sweep (untimed golden vs executed Verilog
//                    text) on hls::sweep_blocks, the one block driver —
//                    one elaborated design shared by every task, a fresh
//                    harness per batch of lanes,
//  - verify_emitted: the full third cosim leg — golden vs rtl::Simulator vs
//                    vsim, bit-for-bit, plus lint and the testbench run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/schedule.h"
#include "hls/verify.h"
#include "vsim/lint.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// Parses Verilog source text and elaborates `top` (spans vsim.parse and
// vsim.elaborate). Throws std::runtime_error with a diagnostic on any
// lex/parse/elaboration failure. Results are memoized in a small
// process-wide LRU keyed by (text, top) — a sweep, a verify and its
// testbench's DUT all load one emitted module, and only the first load
// parses and elaborates it (counters vsim.design_cache.hits / .misses).
// The returned Design is immutable, so sharing one instance across
// callers and threads is safe.
std::shared_ptr<const Design> load_design(const std::string& verilog,
                                          const std::string& top);

struct TestbenchResult {
  bool passed = false;    // PASS summary printed and no FAIL lines
  bool finished = false;  // reached $finish
  long long end_time = 0;
  std::vector<std::string> display;
  std::string vcd_name;  // $dumpfile argument ("" if the tb did not dump)
  std::string vcd_text;
  // "compiled" when the modules the testbench instantiates from
  // module_source ran bound on the compiled engine, "event" when the whole
  // design ran on the event kernel (flattened, or nothing to bind).
  std::string backend;
  // Why the DUT ran flattened: the construct, or the levelizer's reason
  // ("" when it ran bound, and when kEvent was asked for).
  std::string fallback_reason;
};

// Runs the testbench `tb_module` of `tb_source` against the modules of
// `module_source` to $finish and scans the display log. Spans: vsim.parse
// and vsim.elaborate (the testbench), vsim.run.
//
// By default the testbench text is parsed alone, and each module it
// instantiates but does not define is loaded from `module_source`
// (load_design, a cache hit after a verify's own load) and bound, not
// flattened: the event kernel runs the testbench's processes, and the DUT
// runs on the compiled engine behind its ports (sim.h has the step
// order). The bound design stays out of load_design's cache, since it
// holds its DUT. Three cases run the flattened design over
// module_source + "\n" + tb_source on the event kernel instead:
// cfg.backend == kEvent (the oracle), a testbench that calls $dumpvars
// (its VCD shows the DUT's internals), and a DUT the levelizer refuses.
// Display lines, finished, end_time and the verdict are the flattened
// run's either way.
TestbenchResult run_testbench(const std::string& module_source,
                              const std::string& tb_source,
                              const std::string& tb_module,
                              const SimConfig& cfg = {});

// Emits Verilog for (f, s) and differentially sweeps the executed text
// against the untimed interpreter golden. The design is parsed and
// elaborated once (and the compiled execution plan, unless `cfg` asks for
// the event kernel, is memoized process-wide), so every task shares the
// front-end work and only per-batch harness state is rebuilt. Vectors
// split into blocks of CosimOptions::block_size, each replayed from reset
// in its own lane; CosimOptions::lanes consecutive blocks share one
// PackedDutHarness (a one-lane sweep runs batches of one), and each batch
// is one task of hls::sweep_blocks, on CosimOptions::pool or inline. A
// sweep that fits one batch gets an engine of exactly its block count;
// otherwise every batch runs at the lane budget and the ragged last batch
// gives its spare lanes empty streams. Each batch's golden blocks run in
// lockstep through one hls::Interpreter::run_streams call on the batch's
// copy of one interpreter compiled per sweep, every output compared as
// soon as its symbol completes. With tracing on, each batch records a
// vsim_sweep.dut and a vsim_sweep.golden span on its worker (args: lanes
// carrying a block, vectors). Mismatch reports read as
// hls::cosim_sweep's, joined in block order and capped once by the
// driver. Stateful designs need block_size >= vectors.size(), as with
// cosim_sweep. `cfg` selects the engine (make_packed_engine, pack.h).
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
// (untimed golden from hls::interpreter_factory vs rtl::Simulator vs
// vsim-executed Verilog text on a one-lane harness, bit-for-bit, through
// hls::cosim_sweep_nway), structural lint of the emitted module, and the
// generated self-checking testbench run through vsim. The testbench
// replays the first (up to) 8 vectors; the differential covers all of
// them.
VerifyEmittedResult verify_emitted(const hls::Function& f,
                                   const hls::Schedule& s,
                                   const std::vector<hls::PortIo>& vectors,
                                   const hls::CosimOptions& opts = {});

}  // namespace hlsw::vsim
