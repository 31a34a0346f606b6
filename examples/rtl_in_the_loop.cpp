// RTL-in-the-loop link simulation: the complete Figure 1 verification
// story in one run. The receiver in the link is not a C model but the
// cycle-accurate simulation of the GENERATED hardware (scheduled FSM +
// datapath) for a chosen Table 1 architecture — while the untimed C model
// runs in lockstep as the checker. Prints SER, the number of hardware
// cycles simulated, and the emulated real-time data rate at 100 MHz.
//
// Usage: rtl_in_the_loop [arch-name] [symbols]   (default: merge+U2, 5000)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dsp/metrics.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/sim.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/harness.h"

int main(int argc, char** argv) {
  using namespace hlsw;
  const std::string pick = argc > 1 ? argv[1] : "merge+U2";
  const int symbols = argc > 2 ? std::atoi(argv[2]) : 5000;

  const qam::Architecture* arch = nullptr;
  for (const auto& a : qam::exploration_architectures())
    if (a.name == pick) {
      static qam::Architecture chosen;
      chosen = a;
      arch = &chosen;
    }
  if (!arch) {
    std::fprintf(stderr, "unknown architecture '%s'\n", pick.c_str());
    return 1;
  }

  const auto ir = qam::build_qam_decoder_ir();
  const auto r = hls::run_synthesis(ir, arch->dir, hls::TechLibrary::asic90());
  std::printf("architecture '%s': %d cycles/symbol @ %.0f ns -> %.2f Mbps "
              "in hardware\n\n",
              arch->name.c_str(), r.latency_cycles(), r.latency_ns(),
              r.data_rate_mbps(6));

  // Train the float reference, download coefficients into BOTH models.
  qam::LinkConfig cfg;
  qam::LinkStimulus stim(cfg);
  const auto trained = qam::train_float_reference(&stim, 6000);
  hls::Interpreter golden(r.transformed);
  rtl::Simulator dut(r.transformed, r.schedule);
  golden.set_array_state("ffe_c", qam::coeffs_to_fxvalues(trained, true, 10));
  golden.set_array_state("dfe_c", qam::coeffs_to_fxvalues(trained, false, 10));
  dut.set_array_state("ffe_c", qam::coeffs_to_fxvalues(trained, true, 10));
  dut.set_array_state("dfe_c", qam::coeffs_to_fxvalues(trained, false, 10));

  dsp::ErrorCounter errs;
  long long mismatches = 0;
  for (int n = 0; n < symbols; ++n) {
    const qam::LinkSample s = stim.next();
    hls::PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    const auto a = golden.run(io);
    const auto b = dut.run(io);
    const long long got = static_cast<long long>(b.vars.at("data").re);
    if (static_cast<long long>(a.vars.at("data").re) != got) ++mismatches;
    const int want = stim.sent_delayed(cfg.decision_delay);
    if (want >= 0 && n > 16) errs.update(want, static_cast<int>(got & 63), 6);
  }

  std::printf("simulated %lld hardware cycles for %d symbols\n",
              dut.cycles(), symbols);
  std::printf("RTL vs untimed C model: %lld mismatches (must be 0)\n",
              mismatches);
  std::printf("link SER through the generated hardware: %.3e (%llu errors)\n",
              errs.ser(),
              static_cast<unsigned long long>(errs.symbol_errors()));
  std::printf("emulated real time at 100 MHz: %.3f ms of air time\n",
              dut.cycles() * 10.0 / 1e6);

  // Close the loop on the emitted TEXT too: generate the self-checking
  // testbench and execute it with the in-process Verilog simulator (vsim):
  // its event kernel runs the testbench, its compiled engine the module —
  // no external tools.
  std::vector<hls::PortIo> vecs;
  qam::LinkStimulus s2(cfg);
  for (int i = 0; i < 8; ++i) {
    const auto s = s2.next();
    hls::PortIo io;
    io.arrays["x_in"] = {s.q0, s.q1};
    vecs.push_back(std::move(io));
  }
  const auto vectors = rtl::capture_vectors(r.transformed, r.schedule, vecs);
  rtl::VerilogOptions vopts;
  vopts.module_name = "qam_decoder";
  const std::string module =
      rtl::emit_verilog(r.transformed, r.schedule, vopts);
  const std::string tb =
      rtl::emit_testbench(r.transformed, vectors, "qam_decoder");
  const auto tbres = vsim::run_testbench(module, tb, "qam_decoder_tb");
  std::printf("\nemitted Verilog testbench (8 vectors) replayed in-process "
              "by vsim: %s\n",
              tbres.passed ? "PASS" : "FAIL");
  return mismatches == 0 && tbres.passed ? 0 : 2;
}
