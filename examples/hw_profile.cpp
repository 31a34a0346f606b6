// The closed predicted-vs-measured loop, end to end: synthesize one
// architecture with on-chip perf counters, run the instrumented RTL
// through the cycle-accurate simulator and both vsim backends, read the
// counters back, and reconcile every measurement against the schedule's
// predictions and the certified feasibility lower bounds.
//
// Usage: hw_profile [arch-name] [symbols] [--report <path>]
//        (defaults: merge+pipe — the architecture where the schedule and
//        emitted timing models genuinely differ — 8 symbols, report to
//        profile_run.json; "none" disables the artifact)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hls/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "vsim/profile.h"

int main(int argc, char** argv) {
  using namespace hlsw;
  std::string pick = "merge+pipe";
  int symbols = 8;
  std::string report = "profile_run.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report = argv[++i];
    } else if (std::atoi(argv[i]) > 0) {
      symbols = std::atoi(argv[i]);
    } else {
      pick = argv[i];
    }
  }
  obs::set_enabled(true);

  const qam::Architecture* arch = nullptr;
  auto archs = qam::exploration_architectures();
  for (const auto& a : qam::table1_architectures()) archs.push_back(a);
  for (const auto& a : archs)
    if (a.name == pick) arch = &a;
  if (arch == nullptr) {
    std::printf("no architecture named '%s'; known:\n", pick.c_str());
    for (const auto& a : archs) std::printf("  %s\n", a.name.c_str());
    return 1;
  }

  qam::LinkStimulus stim((qam::LinkConfig()));
  vsim::ProfileRunOptions opts;
  if (report != "none") opts.report_path = report;
  const vsim::ProfileRunResult res = vsim::profile_run(
      qam::build_qam_decoder_ir(), arch->dir, hls::TechLibrary::asic90(),
      qam::link_input_batch(&stim, symbols), opts);

  std::printf("%s: predicted %d cycles (schedule), feasibility floor %d, "
              "%zu counters, %zu legs\n\n",
              res.function.c_str(), res.synthesis.latency_cycles(),
              res.bounds.min_latency_cycles,
              res.counter_map.size(), res.counters.size());
  for (const hls::ProfileReport& rep : res.reports) {
    std::printf("[%s] measured %lld active cycles/invocation "
                "(schedule predicts %lld, serialized emission %lld)\n",
                rep.source.c_str(), rep.measured_active_cycles,
                rep.predicted_latency_cycles, rep.emitted_latency_cycles);
    for (const auto& l : rep.loops) {
      if (!l.is_loop) continue;
      std::printf("  loop %-12s trip %2d  II sched %d  measured %.2f  "
                  "stall %lld\n",
                  l.label.c_str(), l.trip, l.scheduled_ii, l.measured_ii,
                  l.measured_stall);
    }
    for (const auto& d : rep.deviations)
      std::printf("  %s: %s\n", d.explained ? "explained" : "DEVIATION",
                  d.what.c_str());
  }
  for (const auto& s : res.cross_issues)
    std::printf("CROSS-LEG: %s\n", s.c_str());
  for (const auto& s : res.notes) std::printf("note: %s\n", s.c_str());

  std::printf("\n%s\n",
              obs::MetricsRegistry::instance().summary_table().c_str());
  if (!opts.report_path.empty())
    std::printf("profile run report written: %s\n",
                opts.report_path.c_str());
  std::printf("verdict: %s\n", res.ok() ? "MEASURED MATCHES PREDICTED"
                                        : "UNEXPLAINED DEVIATIONS");
  return res.ok() ? 0 : 1;
}
