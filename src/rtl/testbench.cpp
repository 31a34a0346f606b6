#include "rtl/testbench.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "rtl/sim.h"

namespace hlsw::rtl {

using hls::Array;
using hls::Function;
using hls::FxValue;
using hls::PortDir;
using hls::PortIo;
using hls::Var;

std::vector<TestVector> capture_vectors(const Function& f,
                                        const hls::Schedule& s,
                                        const std::vector<PortIo>& inputs) {
  Simulator sim(f, s);
  // One batched pass through the design: state carries across vectors
  // exactly as the old per-vector run() loop did.
  std::vector<PortIo> outputs = sim.run_stream(inputs);
  std::vector<TestVector> out;
  out.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    TestVector tv;
    tv.inputs = inputs[i];
    tv.outputs = std::move(outputs[i]);
    out.push_back(std::move(tv));
  }
  return out;
}

namespace {

long long component(const FxValue& v, bool re) {
  return static_cast<long long>(re ? v.re : v.im);
}

}  // namespace

std::vector<PortPin> flatten_port_pins(const Function& f) {
  std::vector<PortPin> pins;
  for (const auto& v : f.vars) {
    if (v.port == PortDir::kNone) continue;
    const bool in = v.port == PortDir::kIn;
    const int fw = v.type.fw();
    if (v.type.cplx) {
      pins.push_back({v.name + "_re", v.type.w, in, false, v.name, 0, true, fw,
                      true, v.type.sgn});
      pins.push_back({v.name + "_im", v.type.w, in, false, v.name, 0, false,
                      fw, true, v.type.sgn});
    } else {
      pins.push_back({v.name, v.type.w, in, false, v.name, 0, true, fw, false,
                      v.type.sgn});
    }
  }
  for (const auto& a : f.arrays) {
    if (a.port == PortDir::kNone) continue;
    const bool in = a.port == PortDir::kIn;
    const int fw = a.elem.fw();
    for (int j = 0; j < a.length; ++j) {
      const std::string base = a.name + "_" + std::to_string(j);
      if (a.elem.cplx) {
        pins.push_back({base + "_re", a.elem.w, in, true, a.name, j, true, fw,
                        true, a.elem.sgn});
        pins.push_back({base + "_im", a.elem.w, in, true, a.name, j, false, fw,
                        true, a.elem.sgn});
      } else {
        pins.push_back({base, a.elem.w, in, true, a.name, j, true, fw, false,
                        a.elem.sgn});
      }
    }
  }
  return pins;
}

long long pin_value(const PortPin& p, const PortIo& io) {
  if (p.from_array) {
    auto it = io.arrays.find(p.port);
    if (it == io.arrays.end()) return 0;
    if (static_cast<std::size_t>(p.index) >= it->second.size())
      throw std::invalid_argument("rtl: array port " + p.port + " has " +
                                  std::to_string(it->second.size()) +
                                  " elements, pin " + p.name +
                                  " reads element " +
                                  std::to_string(p.index));
    return component(it->second[static_cast<size_t>(p.index)], p.re);
  }
  auto it = io.vars.find(p.port);
  if (it == io.vars.end()) return 0;
  return component(it->second, p.re);
}

namespace {

std::string vlit(int width, long long v) {
  std::ostringstream os;
  // Two's-complement literal of the pin width.
  const unsigned long long mask =
      width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  os << width << "'h" << std::hex
     << (static_cast<unsigned long long>(v) & mask);
  return os.str();
}

}  // namespace

std::string emit_testbench(const Function& f,
                           const std::vector<TestVector>& vectors,
                           const std::string& module_name,
                           const TestbenchOptions& opts) {
  const auto pins = flatten_port_pins(f);
  std::ostringstream os;
  os << "// Self-checking testbench for " << module_name << " ("
     << vectors.size() << " vectors captured from the hlsw RTL simulator)\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << module_name << "_tb;\n";
  os << "  reg clk = 0, rst = 1, start = 0;\n  wire done;\n";
  for (const auto& p : pins) {
    os << "  " << (p.is_input ? "reg" : "wire") << " signed [" << p.width - 1
       << ":0] " << p.name << ";\n";
  }
  os << "  integer errors = 0;\n\n";
  os << "  " << module_name << " dut (.clk(clk), .rst(rst), .start(start), "
     << ".done(done)";
  for (const auto& p : pins) os << ", ." << p.name << "(" << p.name << ")";
  os << ");\n\n";
  os << "  always #5 clk = ~clk;\n\n";
  os << "  task run_vector(input integer idx);\n"
     << "    begin\n"
     << "      @(negedge clk); start = 1;\n"
     << "      @(negedge clk); start = 0;\n"
     << "      @(posedge done);\n"
     << "      @(negedge clk);\n"
     << "    end\n"
     << "  endtask\n\n";
  os << "  initial begin\n";
  if (!opts.dumpfile.empty())
    os << "    $dumpfile(\"" << opts.dumpfile << "\");\n    $dumpvars;\n";
  os << "    repeat (3) @(negedge clk); rst = 0;\n";
  int idx = 0;
  for (const auto& tv : vectors) {
    os << "    // vector " << idx << "\n";
    for (const auto& p : pins) {
      if (!p.is_input) continue;
      os << "    " << p.name << " = " << vlit(p.width, pin_value(p, tv.inputs))
         << ";\n";
    }
    os << "    run_vector(" << idx << ");\n";
    for (const auto& p : pins) {
      if (p.is_input) continue;
      const long long expect = pin_value(p, tv.outputs);
      os << "    if (" << p.name << " !== " << vlit(p.width, expect)
         << ") begin errors = errors + 1; $display(\"FAIL v" << idx << " "
         << p.name << ": got %0d expected " << expect << "\", " << p.name
         << "); end\n";
    }
    ++idx;
  }
  os << "    if (errors == 0) $display(\"PASS: all " << vectors.size()
     << " vectors matched\");\n"
     << "    else $display(\"FAIL: %0d mismatches\", errors);\n"
     << "    $finish;\n  end\nendmodule\n";
  return os.str();
}

}  // namespace hlsw::rtl
