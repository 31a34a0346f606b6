// sweep_packed: closed loop, one caller. Each operation is one
// vsim::vsim_sweep of 4 batches x 64 lanes x 25-symbol blocks (6400
// symbols) on Backend::kPackedCodegen with threads = nproc. The seed
// derives the qam::LinkStimulus PRBS seeds and orders which Table 1
// design and stimulus each operation uses. Every sweep must report zero
// mismatches over the full vector count, on the packed-codegen engine.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "hls/interp.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "util/thread_pool.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/lint.h"
#include "vsim/pack.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace hlsw;
using hls::PortIo;

constexpr int kLanes = 64;
constexpr std::size_t kBlock = 25;
constexpr int kBatches = 4;
constexpr std::size_t kSymbols = kLanes * kBlock * kBatches;  // 6400
constexpr int kStimuli = 4;
constexpr int kDesigns = 3;  // the first Table 1 rows: within the design LRU

struct Design {
  std::string name;
  hls::SynthesisResult syn;
  std::shared_ptr<const vsim::CompiledDesign> plan;
  // Set-up's backend guard: the packed engine of this design really is
  // packed-codegen. An operation on a design that fails it is a failure.
  bool packed_codegen = false;
};

struct State {
  std::vector<Design> designs;
  std::vector<std::vector<PortIo>> stimuli;
  std::unique_ptr<util::ThreadPool> pool;
  vsim::SimConfig cfg;
};

std::unique_ptr<State> set_up(const Args& a, LayerTable* setup) {
  auto s = std::make_unique<State>();
  s->cfg.backend = vsim::Backend::kPackedCodegen;
  const hls::Function ir = qam::build_qam_decoder_ir();
  const hls::TechLibrary tech = hls::TechLibrary::asic90();
  const auto archs = qam::table1_architectures();
  for (int i = 0; i < kDesigns; ++i) {
    Design d;
    d.name = archs[static_cast<std::size_t>(i)].name;
    auto t = Clock::now();
    d.syn = hls::run_synthesis(ir, archs[static_cast<std::size_t>(i)].dir, tech);
    setup->add("setup.reference.ms", ms_since(t));
    const hls::Function& f = d.syn.transformed;
    t = Clock::now();
    const std::string verilog = rtl::emit_verilog(f, d.syn.schedule);
    setup->add("setup.rtl.emit.ms", ms_since(t));
    t = Clock::now();
    const auto design = vsim::load_design(verilog, f.name);
    setup->add("setup.vsim.load_design.ms", ms_since(t));
    t = Clock::now();
    (void)vsim::lint(*design);
    setup->add("setup.vsim.lint.ms", ms_since(t));
    std::string why;
    t = Clock::now();
    d.plan = vsim::compiled_plan(design, &why);
    setup->add("setup.vsim.compile_plan.ms", ms_since(t));
    t = Clock::now();
    const auto mod = d.plan ? vsim::packed_codegen_plan(d.plan, kLanes, &why)
                            : nullptr;
    setup->add("setup.vsim.codegen.ms", ms_since(t));
    if (d.plan) {
      const vsim::PackedDutHarness h(f, d.plan, kLanes, s->cfg);
      d.packed_codegen =
          mod != nullptr && std::string(h.backend()) == "packed_codegen";
      if (!d.packed_codegen)
        std::fprintf(stderr, "perfbench: %s runs on '%s', not packed_codegen: %s\n",
                     d.name.c_str(), h.backend(),
                     h.fallback_reason().empty() ? why.c_str()
                                                 : h.fallback_reason().c_str());
    }
    s->designs.push_back(std::move(d));
  }
  std::mt19937_64 rng(a.seed);
  for (int k = 0; k < kStimuli; ++k) {
    qam::LinkConfig cfg;
    cfg.prbs_seed = 1 + static_cast<std::uint32_t>(rng() % 0x7ffe);
    qam::LinkStimulus stim(cfg);
    s->stimuli.push_back(
        qam::link_input_batch(&stim, static_cast<int>(kSymbols)));
  }
  if (a.fault == "corrupt_vector") {
    // Self-test: one sample stated at the wrong binary point. The golden
    // interpreter rescales it, the RTL pins take the raw bits.
    hls::FxValue& x = s->stimuli[0][kSymbols / 2].arrays["x_in"][0];
    x.fw += 2;
    x.re = 2000;
  }
  s->pool = std::make_unique<util::ThreadPool>(a.threads);
  return s;
}

bool sweep_ok(const hls::CosimResult& r) {
  return r.vectors == kSymbols && r.blocks == kSymbols / kBlock &&
         r.total_mismatches == 0;
}

// A fallback after set-up (the memoized packed engine gone) counts against
// the operation, whatever the sweep's mismatch count says.
bool still_packed(const Design& d) {
  return d.packed_codegen &&
         vsim::packed_codegen_plan(d.plan, kLanes, nullptr) != nullptr;
}

// The operation as the library runs it.
bool sweep(const State& s, const Design& d, const std::vector<PortIo>& v,
           util::ThreadPool* pool, double* ms) {
  hls::CosimOptions o;
  o.block_size = kBlock;
  o.pool = pool;
  o.lanes = kLanes;
  const auto t0 = Clock::now();
  const hls::CosimResult r =
      vsim::vsim_sweep(d.syn.transformed, d.syn.schedule, v, o, s.cfg);
  *ms = ms_since(t0);
  return sweep_ok(r) && still_packed(d);
}

// The same operation replayed through the public calls vsim_sweep makes
// on its packed path — emit, load_design, compiled_plan,
// packed_codegen_plan, then per batch the packed DUT, the golden
// interpreter and the comparison — each timed into `layers` (when set).
// Batches run on `pool` (null = inline); `busy_ns` sums batch time.
bool replay(const State& s, const Design& d, const std::vector<PortIo>& v,
            util::ThreadPool* pool, LayerTable* layers,
            std::atomic<long long>* busy_ns, long long* interp_ops,
            double* ms) {
  const auto add = [&](const char* k, Clock::time_point t) {
    if (layers) layers->add(k, ms_since(t));
  };
  const hls::Function& f = d.syn.transformed;
  const auto t0 = Clock::now();
  auto t = t0;
  const std::string verilog = rtl::emit_verilog(f, d.syn.schedule);
  add("rtl.emit.ms", t);
  t = Clock::now();
  const auto design = vsim::load_design(verilog, f.name);
  add("vsim.load_design.ms", t);
  std::string why;
  t = Clock::now();
  const auto plan = vsim::compiled_plan(design, &why);
  add("vsim.compile_plan.ms", t);
  t = Clock::now();
  const auto mod = vsim::packed_codegen_plan(plan, kLanes, &why);
  add("vsim.codegen.ms", t);

  std::atomic<long long> ops{0};
  const auto run_batch = [&](std::size_t batch) -> std::size_t {
    const auto b0 = Clock::now();
    std::vector<std::vector<PortIo>> streams(kLanes);
    for (int l = 0; l < kLanes; ++l) {
      const std::size_t begin =
          (batch * kLanes + static_cast<std::size_t>(l)) * kBlock;
      streams[static_cast<std::size_t>(l)].assign(
          v.begin() + static_cast<long>(begin),
          v.begin() + static_cast<long>(begin + kBlock));
    }
    auto tt = Clock::now();
    vsim::PackedDutHarness harness(f, plan, kLanes, s.cfg);
    const auto got = harness.run_streams(streams);
    add("vsim.dut.ms", tt);
    std::size_t bad =
        std::string(harness.backend()) == "packed_codegen" ? 0 : 1;
    tt = Clock::now();
    hls::Interpreter golden(f);
    std::vector<std::vector<PortIo>> want(kLanes);
    for (int l = 0; l < kLanes; ++l) {
      if (l > 0) golden.reset();
      want[static_cast<std::size_t>(l)] =
          golden.run_stream(streams[static_cast<std::size_t>(l)]);
    }
    ops.fetch_add(golden.ops_executed());
    add("hls.interp.ms", tt);
    tt = Clock::now();
    std::vector<std::string> mism;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (want[l].size() != kBlock || got[l].size() != kBlock) {
        ++bad;
        continue;
      }
      for (std::size_t i = 0; i < kBlock; ++i)
        hls::compare_outputs((batch * kLanes + l) * kBlock + i, want[l][i],
                             got[l][i], &mism);
    }
    add("hls.compare.ms", tt);
    if (busy_ns)
      busy_ns->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - b0)
                             .count());
    return bad + mism.size();
  };
  const auto bad = util::map_ordered(pool, kBatches, run_batch);
  *ms = ms_since(t0);
  if (interp_ops) *interp_ops += ops.load();
  const bool clean = std::all_of(bad.begin(), bad.end(),
                                 [](std::size_t n) { return n == 0; });
  return clean && mod != nullptr && still_packed(d);
}

Report traced(const Args& a, const State& s, Deck* designs, Deck* stimuli,
              const LayerTable& setup) {
  Report rep;
  const double phase_s = a.seconds / 3;
  const auto next = [&]() -> std::pair<const Design*, const std::vector<PortIo>*> {
    return {&s.designs[designs->next()], &s.stimuli[stimuli->next()]};
  };

  // Phases A and B, alternating sweep by sweep: the replay inline and
  // untraced (the overhead base), and with every public call timed and
  // the library's spans on (parse/elaborate split the load_design time on
  // a design-cache miss).
  LayerTable layers;
  long long interp_ops = 0;
  drain_spans();
  const auto before = counter_snapshot();
  const auto [base, tr] = alternating(2 * phase_s, [&](bool traced,
                                                       double* ms) {
    const auto [d, v] = next();
    if (!traced)
      return replay(s, *d, *v, nullptr, nullptr, nullptr, nullptr, ms);
    hlsw::obs::set_enabled(true);
    const bool ok =
        replay(s, *d, *v, nullptr, &layers, nullptr, &interp_ops, ms);
    hlsw::obs::set_enabled(false);
    layers.add("op_wall_ms", *ms);
    return ok;
  });
  const auto after = counter_snapshot();
  const auto spans = drain_spans();

  // Phase C: the replay on the pool of nproc, untraced, summing batch
  // busy time for the pool efficiency.
  std::atomic<long long> busy_ns{0};
  double par_wall_ms = 0;
  const Samples par = closed_loop(phase_s, [&](double* ms) {
    const auto [d, v] = next();
    const bool ok =
        replay(s, *d, *v, s.pool.get(), nullptr, &busy_ns, nullptr, ms);
    par_wall_ms += *ms;
    return ok;
  });

  const double n = std::max<double>(1, static_cast<double>(tr.attempted));
  const auto delta = [&](const char* k) {
    return value_or_zero(after, k) - value_or_zero(before, k);
  };
  std::map<std::string, double> v;
  for (const auto& [k, total] : layers.totals()) v[k] = total / n;
  for (const auto& [k, total] : setup.totals()) v[k] = total;
  add_phase_totals(&rep, &v, base, tr, &par);
  v["vsim.parse.ms"] = value_or_zero(spans, "vsim/vsim.parse") / n;
  v["vsim.elaborate.ms"] = value_or_zero(spans, "vsim/vsim.elaborate") / n;
  const double load = v["vsim.load_design.ms"];
  v.erase("vsim.load_design.ms");
  double sum = 0;
  for (const char* k : {"rtl.emit.ms", "vsim.compile_plan.ms", "vsim.codegen.ms",
                        "vsim.dut.ms", "hls.interp.ms", "hls.compare.ms"})
    sum += v[k];
  v["unattributed_ms"] = v["op_wall_ms"] - sum - load;
  v["hls.interp.ops"] = static_cast<double>(interp_ops) / n;
  const double hits = delta("vsim.design_cache.hits");
  const double misses = delta("vsim.design_cache.misses");
  v["vsim.design_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  v["vsim.codegen.fallbacks"] = delta("vsim.codegen.fallbacks");
  // Since process start: the set-up's cold builds.
  v["vsim.codegen.so_compiles"] = value_or_zero(after, "vsim.codegen.compiles");
  v["util.pool.efficiency"] =
      par_wall_ms > 0 ? static_cast<double>(busy_ns.load()) / 1e6 /
                            (a.threads * par_wall_ms)
                      : 0;
  rep.line(fmt("traced phase: replay of vsim_sweep's packed path inline, "
               "%lld sweeps; untraced p50 %.3f ms, traced p50 %.3f ms; "
               "load_design %.4f ms/op",
               tr.attempted, quantile_ms(base, 0.5), quantile_ms(tr, 0.5),
               load));
  rep.line(fmt("pool phase: threads=%u, %lld sweeps, p50 %.3f ms", a.threads,
               par.attempted, quantile_ms(par, 0.5)));
  add_layer_metrics(&rep, v);
  rep.line("registry counters over the traced phase:");
  for (const std::string& l :
       counter_diff(before, after, {"vsim.", "hls.", "serve.", "dse."}))
    rep.line("  " + l);
  return rep;
}

}  // namespace

Report run_sweep_packed(const Args& a) {
  // The cold packed-codegen builds dominate set-up. They are memoized
  // per process, so a second set-up pass in this process would be warm:
  // set-up runs once per run (from process start) and the median is taken
  // across runs.
  if (a.trace) hlsw::obs::set_enabled(true);  // count set-up's compiles
  LayerTable setup;
  const std::unique_ptr<State> s = set_up(a, &setup);
  const double setup_s = ms_since(process_start()) / 1000.0;
  hlsw::obs::set_enabled(false);

  Deck designs(indices(kDesigns), a.seed);
  Deck stimuli(indices(kStimuli), a.seed ^ 0x5bd1e995u);
  if (a.trace) return traced(a, *s, &designs, &stimuli, setup);

  Report rep;
  const Samples samples = closed_loop(a.seconds, [&](double* ms) {
    const Design& d = s->designs[designs.next()];
    return sweep(*s, d, s->stimuli[stimuli.next()], s->pool.get(), ms);
  });
  add_end_to_end(&rep, samples, setup_s);
  return rep;
}

}  // namespace pb
