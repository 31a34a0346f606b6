// Self-checking Verilog testbench generator: captures stimulus/response
// vectors from the cycle-accurate rtl::Simulator and renders a testbench
// that drives the emitted module and compares every output — so the
// generated RTL can be verified bit-for-bit in any Verilog simulator,
// including the in-process vsim::run_testbench, completing the paper's
// "verify the generated RTL" flow without external tools.
#pragma once

#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/schedule.h"

namespace hlsw::rtl {

struct TestVector {
  hls::PortIo inputs;
  hls::PortIo outputs;  // expected (from the simulator)
};

// Runs the simulator over `inputs` and returns paired vectors.
std::vector<TestVector> capture_vectors(const hls::Function& f,
                                        const hls::Schedule& s,
                                        const std::vector<hls::PortIo>& inputs);

// One flattened Verilog pin of the emitted module: scalar ports map to one
// pin (two when complex), array ports to one pin per element/component.
// Shared by the testbench emitter and vsim::PackedDutHarness so both agree
// with emit_verilog on pin naming.
struct PortPin {
  std::string name;  // Verilog pin name (e.g. "x_in_0_re")
  int width;
  bool is_input;
  // Locator in a PortIo plus the fixed-point shape for reconstruction.
  bool from_array;
  std::string port;
  int index;
  bool re;    // real component (false = imaginary)
  int fw;     // fraction width of the port's type
  bool cplx;  // the port's type is complex
  bool sgn;   // the port's type is signed (unsigned pins zero-extend)
};

std::vector<PortPin> flatten_port_pins(const hls::Function& f);

// Raw two's-complement component value of the pin in `io` (0 if absent).
// Throws std::invalid_argument when the pin's array port is present but
// too short to hold the pin's element.
long long pin_value(const PortPin& p, const hls::PortIo& io);

struct TestbenchOptions {
  // When non-empty the testbench opens a waveform dump: $dumpfile("...")
  // plus an argumentless $dumpvars before the first vector.
  std::string dumpfile;
};

// Emits a self-checking testbench for the module produced by emit_verilog
// with the same function/schedule. The testbench pulses start, waits for
// done, and $display's PASS/FAIL per vector plus a summary.
std::string emit_testbench(const hls::Function& f,
                           const std::vector<TestVector>& vectors,
                           const std::string& module_name,
                           const TestbenchOptions& opts = {});

}  // namespace hlsw::rtl
