// Experiment F1 (Figure 1): the C-based flow's speed claim — "architecture
// definition and RTL generation ... accomplished in a matter of days to
// weeks" vs months manually, and "the architectural exploration above was
// performed in a matter of minutes". This harness runs the complete
// exploration (Table 1 rows plus the extended set), including RTL text
// generation, and reports per-architecture and total wall time plus the
// latency/area Pareto points.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.h"
#include "hls/dse.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"

namespace {

using namespace hlsw;
using hls::run_synthesis;
using hls::TechLibrary;

void print_exploration(hlsw::bench::Harness& h) {
  const auto archs = qam::exploration_architectures();
  const auto tech = TechLibrary::asic90();
  const auto ir = qam::build_qam_decoder_ir();

  std::printf(
      "\n== Architectural exploration (experiment F1): %zu architectures, "
      "synthesis + RTL generation ==\n",
      archs.size());
  std::printf("%-14s | %7s %8s %9s | %9s | %6s\n", "arch", "cycles",
              "lat(ns)", "rate Mbps", "area", "rtl KB");

  double base_area = 0;
  for (const auto& a : archs) {
    const auto r = run_synthesis(ir, a.dir, tech);
    if (a.name == "none") base_area = r.area.total;
  }
  for (const auto& a : archs) {
    const auto r = run_synthesis(ir, a.dir, tech);
    const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
    std::printf("%-14s | %7d %8.0f %9.2f | %9.0f | %6.1f\n", a.name.c_str(),
                r.latency_cycles(), r.latency_ns(), r.data_rate_mbps(6),
                r.area.total, v.size() / 1024.0);
  }
  // The headline timing: synthesis + Verilog text for every architecture,
  // repeated under the harness so BENCH_exploration.json carries it.
  const auto t = h.measure("exploration_synth_rtl", [&] {
    for (const auto& a : archs) {
      const auto r = run_synthesis(ir, a.dir, tech);
      benchmark::DoNotOptimize(rtl::emit_verilog(r.transformed, r.schedule));
    }
  });
  std::printf(
      "\nfull exploration (synthesis + Verilog for every architecture): "
      "%.3f ms min / %.3f ms mean over %d reps\n",
      t.min_ms, t.mean_ms, t.reps);
  std::printf("(the paper: \"performed in a matter of minutes without "
              "changing the source\"; a manual RTL rewrite per architecture "
              "would take weeks each)\n");
  h.note("architectures", obs::Json(static_cast<long long>(archs.size())));

  // Pareto frontier in (latency, area).
  std::printf("\n-- Pareto-optimal points (latency vs area, normalized to "
              "'none') --\n");
  obs::Json pareto = obs::Json::array();
  for (const auto& a : archs) {
    const auto r = run_synthesis(ir, a.dir, tech);
    bool dominated = false;
    for (const auto& b : archs) {
      if (&a == &b) continue;
      const auto rb = run_synthesis(ir, b.dir, tech);
      if (rb.latency_cycles() <= r.latency_cycles() &&
          rb.area.total < r.area.total)
        dominated = true;
      if (rb.latency_cycles() < r.latency_cycles() &&
          rb.area.total <= r.area.total)
        dominated = true;
    }
    if (!dominated) {
      std::printf("  %-14s %3d cycles, %.2fx area\n", a.name.c_str(),
                  r.latency_cycles(), r.area.total / base_area);
      pareto.push(obs::Json::object()
                      .set("arch", a.name)
                      .set("cycles", r.latency_cycles())
                      .set("area_norm", r.area.total / base_area));
    }
  }
  h.note("pareto_architectures", std::move(pareto));
  std::printf("\n");
}

void print_dse(hlsw::bench::Harness& h) {
  const auto ir = qam::build_qam_decoder_ir();
  const auto tech = TechLibrary::asic90();
  hls::DseOptions opts;
  opts.unroll_factors = {1, 2, 4, 8, 16};

  // Legacy serial engine: one thread, cold private cache every run.
  opts.threads = 1;
  hls::DseResult serial;
  const auto t_serial = h.measure(
      "dse_serial_cold", [&] { serial = hls::explore(ir, opts, tech); });

  // Pooled engine: 4 workers over a reusable pool, fresh cache per rep.
  hls::DseOptions par = opts;
  par.threads = 4;
  par.pool = std::make_shared<hlsw::util::ThreadPool>(4);
  hls::DseResult threaded;
  const auto t_par = h.measure("dse_pooled_cold", [&] {
    par.cache = std::make_shared<hls::SynthesisCache>();
    threaded = hls::explore(ir, par, tech);
  });

  // Cache-warm re-exploration: the same sweep again, zero new schedules.
  par.cache = std::make_shared<hls::SynthesisCache>();
  hls::DseResult warm = hls::explore(ir, par, tech);  // warm the cache
  const auto t_warm =
      h.measure("dse_warm", [&] { warm = hls::explore(ir, par, tech); });

  bool identical = serial.points.size() == threaded.points.size();
  for (std::size_t i = 0; identical && i < serial.points.size(); ++i)
    identical = serial.points[i].name == threaded.points[i].name &&
                serial.points[i].latency_cycles ==
                    threaded.points[i].latency_cycles &&
                serial.points[i].area == threaded.points[i].area &&
                serial.points[i].pareto == threaded.points[i].pareto;

  std::printf("-- automated DSE (hls::explore): %zu configurations --\n",
              serial.points.size());
  std::printf("  serial (threads=1, cold):      %8.3f ms\n", t_serial.min_ms);
  std::printf("  pooled (threads=4, cold):      %8.3f ms   speedup %.2fx\n",
              t_par.min_ms, t_serial.min_ms / t_par.min_ms);
  std::printf("  memoized re-sweep (warm):      %8.3f ms   speedup %.2fx\n",
              t_warm.min_ms, t_serial.min_ms / t_warm.min_ms);
  std::printf("  parallel result bit-identical to serial: %s\n",
              identical ? "yes" : "NO -- BUG");
  std::printf("  refinement-phase cache hits: %zu of %zu candidates "
              "(cold); warm sweep: %zu hits, %zu schedules\n",
              serial.cache_hits, serial.cache_hits + serial.cache_misses,
              warm.cache_hits, warm.cache_misses);
  std::printf("Pareto front (latency vs area):\n");
  obs::Json front = obs::Json::array();
  for (const auto* p : threaded.pareto_front()) {
    std::printf("  %-24s %3d cycles  %8.0f gates\n", p->name.c_str(),
                p->latency_cycles, p->area);
    front.push(p->name);
  }
  h.note("dse", obs::Json::object()
                    .set("configurations",
                         static_cast<long long>(serial.points.size()))
                    .set("parallel_identical", identical)
                    .set("cold_cache_hits",
                         static_cast<long long>(serial.cache_hits))
                    .set("cold_cache_misses",
                         static_cast<long long>(serial.cache_misses))
                    .set("warm_cache_hits",
                         static_cast<long long>(warm.cache_hits))
                    .set("warm_cache_misses",
                         static_cast<long long>(warm.cache_misses))
                    .set("pareto_front", std::move(front)));
  const auto* pick = threaded.smallest_within(20);
  if (pick)
    std::printf("smallest design meeting the paper's 20-cycle goal: %s (%d "
                "cycles, %.0f gates)\n\n",
                pick->name.c_str(), pick->latency_cycles, pick->area);
}

// Feasibility pruning on/off on the redirect-heavy axes (unrolled MAC
// loops, a dense pipeline-II axis) at the three clocks perfbench's
// dse_explore draws from, plus the narrower cap-256 sweep at 3 ns: the
// matrix EXPERIMENTS.md discusses. Pruning never changes the front; the
// legs record what the redirects save in schedules against what the
// analysis costs in wall time.
void print_prune(hlsw::bench::Harness& h) {
  const auto ir = qam::build_qam_decoder_ir();
  const auto tech = TechLibrary::asic90();
  hls::DseOptions base;
  base.unroll_factors = {1, 2, 4, 8, 16};
  base.pipeline_iis = {0, 1, 2, 3};
  base.threads = 1;

  std::printf("-- feasibility pruning (unroll x{1,2,4,8,16}, "
              "II {0,1,2,3}, one thread) --\n");
  std::printf("%5s %5s %6s | %5s %9s %6s %6s | %9s\n", "clock", "cap",
              "prune", "rows", "schedules", "redir", "front", "min ms");
  obs::Json legs = obs::Json::array();
  bool fronts_identical = true;
  const struct {
    double clock_ns;
    int cap;
    const char* suffix;  // keeps the 3 ns labels of earlier artifacts
  } sweeps[] = {{3.0, 256, ""}, {3.0, 1024, ""}, {4.0, 1024, "_4ns"},
                {5.0, 1024, "_5ns"}};
  for (const auto& sw : sweeps) {
    double wall[2] = {};
    std::vector<std::string> fronts[2];
    for (const bool prune : {false, true}) {
      hls::DseOptions opts = base;
      opts.clock_period_ns = sw.clock_ns;
      opts.max_configs = sw.cap;
      opts.prune = prune;
      hls::DseResult r;
      char label[64];
      std::snprintf(label, sizeof label, "dse_prune_%d_%s%s", sw.cap,
                    prune ? "on" : "off", sw.suffix);
      const auto t = h.measure(label, [&] {
        opts.cache = std::make_shared<hls::SynthesisCache>();  // cold
        r = hls::explore(ir, opts, tech);
      });
      for (const auto* p : r.pareto_front()) fronts[prune].push_back(p->name);
      std::printf("%5.1f %5d %6s | %5zu %9zu %6zu %6zu | %9.3f\n",
                  sw.clock_ns, sw.cap, prune ? "on" : "off", r.points.size(),
                  r.cache_misses, r.pruned_infeasible, fronts[prune].size(),
                  t.min_ms);
      wall[prune] = t.min_ms;
      legs.push(obs::Json::object()
                    .set("clock_ns", sw.clock_ns)
                    .set("cap", static_cast<long long>(sw.cap))
                    .set("prune", prune)
                    .set("rows", static_cast<long long>(r.points.size()))
                    .set("schedules", static_cast<long long>(r.cache_misses))
                    .set("pruned_infeasible",
                         static_cast<long long>(r.pruned_infeasible))
                    .set("front",
                         static_cast<long long>(fronts[prune].size()))
                    .set("min_ms", t.min_ms));
    }
    fronts_identical = fronts_identical && fronts[0] == fronts[1];
    std::printf("  %.1f ns cap %d: pruned sweep %.2fx the unpruned wall\n",
                sw.clock_ns, sw.cap, wall[1] / wall[0]);
  }
  std::printf("identical fronts with pruning on and off: %s\n\n",
              fronts_identical ? "yes" : "NO -- BUG");
  h.note("prune", std::move(legs));
}

void BM_FullExploration(benchmark::State& state) {
  const auto archs = qam::exploration_architectures();
  const auto tech = TechLibrary::asic90();
  const auto ir = qam::build_qam_decoder_ir();
  for (auto _ : state) {
    for (const auto& a : archs) {
      const auto r = run_synthesis(ir, a.dir, tech);
      benchmark::DoNotOptimize(rtl::emit_verilog(r.transformed, r.schedule));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(archs.size()));
}
BENCHMARK(BM_FullExploration);

// The DSE engine at 1/2/4 worker threads, cold cache every iteration:
// wall-clock scaling of the synthesis batch itself.
void BM_ExploreColdCache(benchmark::State& state) {
  const auto ir = qam::build_qam_decoder_ir();
  const auto tech = TechLibrary::asic90();
  hls::DseOptions opts;
  opts.unroll_factors = {1, 2, 4, 8, 16};
  opts.threads = static_cast<unsigned>(state.range(0));
  if (opts.threads > 1)
    opts.pool = std::make_shared<hlsw::util::ThreadPool>(opts.threads);
  for (auto _ : state) {
    opts.cache = std::make_shared<hls::SynthesisCache>();  // cold
    benchmark::DoNotOptimize(hls::explore(ir, opts, tech));
  }
}
BENCHMARK(BM_ExploreColdCache)->Arg(1)->Arg(2)->Arg(4);

// The memoized path: every configuration already cached, so an iteration
// costs key construction + lookups only.
void BM_ExploreWarmCache(benchmark::State& state) {
  const auto ir = qam::build_qam_decoder_ir();
  const auto tech = TechLibrary::asic90();
  hls::DseOptions opts;
  opts.unroll_factors = {1, 2, 4, 8, 16};
  opts.threads = 1;
  opts.cache = std::make_shared<hls::SynthesisCache>();
  benchmark::DoNotOptimize(hls::explore(ir, opts, tech));  // warm it
  for (auto _ : state)
    benchmark::DoNotOptimize(hls::explore(ir, opts, tech));
}
BENCHMARK(BM_ExploreWarmCache);

void BM_ReportGeneration(benchmark::State& state) {
  const auto arch = qam::table1_architectures()[0];
  const auto tech = TechLibrary::asic90();
  const auto r =
      run_synthesis(qam::build_qam_decoder_ir(), arch.dir, tech);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::synthesis_summary(r, tech));
    benchmark::DoNotOptimize(hls::bill_of_materials(r));
    benchmark::DoNotOptimize(hls::gantt_chart(r));
    benchmark::DoNotOptimize(hls::critical_path_report(r, tech));
  }
}
BENCHMARK(BM_ReportGeneration);

}  // namespace

int main(int argc, char** argv) {
  hlsw::bench::Harness harness("exploration", &argc, argv);
  print_exploration(harness);
  print_dse(harness);
  print_prune(harness);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  harness.write();
  return 0;
}
