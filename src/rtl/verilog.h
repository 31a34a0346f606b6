// Verilog-2001 emitter: renders a scheduled design as a synthesizable
// FSM + datapath module — the "generated RTL" of the paper's flow, suitable
// for RTL synthesis or FPGA prototyping (paper section 1: the generated RTL
// is used to obtain an FPGA prototype for functional verification).
//
// Generated module shape:
//  * start/done handshake around one invocation;
//  * one always-block FSM, one state per scheduled (region, cycle), loop
//    regions driven by an iteration counter;
//  * arrays as register files (`reg [..] name [0:N-1]`), variables and
//    per-op pipeline values as registers;
//  * all datapath values carried as 64-bit signed wires at their natural
//    binary scale, with quantization/overflow logic emitted inline per the
//    destination type (the same rounding rules as fixpt::round_increment).
//
// hlsw::rtl::Simulator is the executable semantics of this text; the
// emitter and simulator are generated from the same schedule, and the
// structural tests in tests/rtl/verilog_test.cpp keep them aligned.
#pragma once

#include <string>

#include "hls/ir.h"
#include "hls/profile.h"
#include "hls/schedule.h"

namespace hlsw::rtl {

struct VerilogOptions {
  std::string module_name;  // defaults to the function name when empty
  // On-chip performance counters (hls/profile.h). Off by default; with
  // instrument.enabled == false the emitted text is byte-identical to an
  // uninstrumented module. When enabled, every counter named by
  // hls::instrument_map(f, s, instrument) is synthesized as a `perf_*`
  // register: zeroed on rst, cumulative across invocations otherwise, and
  // optionally readable through a perf_sel/perf_rdata mux.
  hls::InstrumentOptions instrument;
};

// Emits the full module text for a scheduled (post-transform) function.
// Throws std::invalid_argument naming the region when hls::ExecPlan's
// interval proof cannot show that every value of some region fits in 64
// bits: the emitted datapath is 64 bits wide and would silently disagree
// with the C model there.
std::string emit_verilog(const hls::Function& f, const hls::Schedule& s,
                         const VerilogOptions& opts = {});

}  // namespace hlsw::rtl
