// RTL generation, closed loop: synthesize an architecture of the paper's
// decoder, emit the synthesizable Verilog module plus its self-checking
// testbench, then execute both in-process with hlsw::vsim — no external
// Verilog simulator involved. Prints the testbench's own PASS/FAIL verdict.
//
// Usage: verilog_codegen [arch-name] [output.v]
//        (defaults: merge, stdout)
#include <cstdio>
#include <fstream>
#include <iostream>

#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/harness.h"

int main(int argc, char** argv) {
  using namespace hlsw;
  const std::string pick = argc > 1 ? argv[1] : "merge";

  for (const auto& a : qam::exploration_architectures()) {
    if (a.name != pick) continue;
    const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), a.dir,
                                      hls::TechLibrary::asic90());
    rtl::VerilogOptions opts;
    opts.module_name = "qam_decoder";
    const std::string v = rtl::emit_verilog(r.transformed, r.schedule, opts);
    if (argc > 2) {
      std::ofstream out(argv[2]);
      out << v;
      std::fprintf(stderr,
                   "wrote %zu bytes of Verilog for '%s' (%d cycles, %.0f "
                   "gates) to %s\n",
                   v.size(), pick.c_str(), r.latency_cycles(), r.area.total,
                   argv[2]);
    } else {
      std::cout << v;
    }

    // Verify the emitted text right here: capture expected outputs from the
    // cycle-accurate simulator, render the self-checking testbench, and run
    // it in-process: the event-driven simulator runs the testbench, the
    // compiled engine the module it instantiates.
    std::vector<hls::PortIo> vecs;
    qam::LinkStimulus stim((qam::LinkConfig()));
    for (int i = 0; i < 8; ++i) {
      const auto s = stim.next();
      hls::PortIo io;
      io.arrays["x_in"] = {s.q0, s.q1};
      vecs.push_back(std::move(io));
    }
    const auto vectors = rtl::capture_vectors(r.transformed, r.schedule, vecs);
    const std::string tb =
        rtl::emit_testbench(r.transformed, vectors, "qam_decoder");
    const vsim::TestbenchResult res =
        vsim::run_testbench(v, tb, "qam_decoder_tb");
    for (const auto& line : res.display)
      std::fprintf(stderr, "  tb| %s\n", line.c_str());
    std::fprintf(stderr,
                 "vsim: testbench %s after %lld ns (DUT on the %s engine)\n",
                 res.passed ? "PASS" : "FAIL",
                 static_cast<long long>(res.end_time), res.backend.c_str());
    return res.passed ? 0 : 2;
  }
  std::fprintf(stderr, "no architecture named '%s'\n", pick.c_str());
  return 1;
}
