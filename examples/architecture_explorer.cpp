// Architecture exploration walkthrough: the designer loop of the paper's
// Figure 1 — pick directives, synthesize, inspect the reports (summary,
// Gantt chart, bill of materials, critical path), repeat. Runs the full
// Table 1 set plus the extended exploration set and then deep-dives one
// architecture chosen on the command line.
//
// Usage: architecture_explorer [arch-name] [--trace <path>]
//                              [--dse-report <path>]       (default arch:
//                              merge+U2)
//
// Runs with tracing on: at exit it prints the metrics summary and writes
// the Chrome trace (default explorer_trace.json; "none" disables it) —
// open it at https://ui.perfetto.dev (or chrome://tracing) to see the
// per-pass synthesis spans and the DSE candidate timeline. The automated
// sweep writes its dse_run StructuredReport to --dse-report (default
// explorer_dse_run.json; "none" disables it). See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstring>
#include <string>

#include "hls/dse.h"
#include "hls/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace hlsw;
  const char* pick = "merge+U2";
  std::string trace_path = "explorer_trace.json";
  std::string dse_report_path = "explorer_dse_run.json";
  for (int i = 1; i < argc; ++i) {
    const auto take = [&](const char* flag, std::string* dst) {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      *dst = argv[++i];
      return true;
    };
    if (take("--trace", &trace_path)) continue;
    if (take("--dse-report", &dse_report_path)) continue;
    pick = argv[i];
  }
  obs::set_enabled(true);

  const auto tech = hls::TechLibrary::asic90();
  const auto ir = qam::build_qam_decoder_ir();
  const auto archs = qam::exploration_architectures();

  std::printf("Exploring %zu architectures of qam_decoder (clock 10 ns, "
              "%s)\n\n",
              archs.size(), tech.name.c_str());
  std::printf("%-14s %8s %10s %10s\n", "name", "cycles", "rate Mbps",
              "area gates");
  for (const auto& a : archs) {
    const auto r = hls::run_synthesis(ir, a.dir, tech);
    std::printf("%-14s %8d %10.2f %10.0f%s\n", a.name.c_str(),
                r.latency_cycles(), r.data_rate_mbps(6), r.area.total,
                a.name == pick ? "   <-- detailed below" : "");
  }

  // Automated sweep of the same space, synthesized across a worker pool
  // with memoized synthesis. threads = 0 picks hardware concurrency; the
  // result is bit-identical to threads = 1, just faster.
  hls::DseOptions dse;
  dse.unroll_factors = {1, 2, 4, 8};
  dse.threads = 0;
  dse.cache = std::make_shared<hls::SynthesisCache>();
  dse.progress = [](const hls::DsePoint& p, const hls::DseProgress& pr) {
    std::printf("  [%2zu/%2zu] %-24s %3d cycles  %8.0f gates  %7.1f ms%s\n",
                pr.done, pr.planned, p.name.c_str(), p.latency_cycles, p.area,
                pr.wall_ms, pr.from_cache ? "  (cached)" : "");
  };
  dse.report_path = dse_report_path == "none" ? "" : dse_report_path;
  std::printf("\nAutomated exploration (hls::explore, %u worker threads):\n",
              dse.threads ? dse.threads
                          : hlsw::util::ThreadPool::default_thread_count());
  const hls::DseResult r = hls::explore(ir, dse, tech);
  std::printf("%zu configurations (%zu scheduled, %zu served from cache, "
              "%zu redirected as infeasible); Pareto front:\n",
              r.points.size(), r.cache_misses, r.cache_hits,
              r.pruned_infeasible);
  for (const auto* p : r.pareto_front())
    std::printf("  %-24s %3d cycles  %8.0f gates\n", p->name.c_str(),
                p->latency_cycles, p->area);

  bool found = false;
  for (const auto& a : archs) {
    if (a.name != pick) continue;
    found = true;
    const auto r = hls::run_synthesis(ir, a.dir, tech);
    std::printf("\n%s\n", std::string(72, '=').c_str());
    std::printf("Detailed reports for '%s' (%s)\n", a.name.c_str(),
                a.description.c_str());
    std::printf("%s\n", std::string(72, '=').c_str());
    std::printf("\n%s\n", hls::synthesis_summary(r, tech).c_str());
    std::printf("%s\n", hls::bill_of_materials(r).c_str());
    std::printf("%s\n", hls::critical_path_report(r, tech).c_str());
    std::printf("%s\n", hls::gantt_chart(r).c_str());
  }
  if (!found)
    std::printf("\nno architecture named '%s'; pass one of the names above\n",
                pick);

  // Observability wrap-up: what the whole session did, and where.
  std::printf("%s\n", obs::MetricsRegistry::instance().summary_table().c_str());
  if (trace_path != "none" &&
      obs::TraceSession::instance().write_chrome_trace(trace_path))
    std::printf("trace written: %s (open in "
                "https://ui.perfetto.dev or chrome://tracing)\n",
                trace_path.c_str());
  if (!dse.report_path.empty())
    std::printf("dse run report written: %s\n", dse.report_path.c_str());
  return found ? 0 : 1;
}
