// dse_explore: closed loop, one caller. Each operation is one cold
// hls::explore of the QAM decoder on the redirect-heavy space (unroll
// {1,2,4,8,16} x II {0,1,2,3}, prune on, cap 1024) with a fresh
// SynthesisCache and threads = nproc on one reused pool. The seed orders
// the clock periods the sweeps use. Every result must equal the serial
// reference explore computed in set-up, rows and Pareto front.
#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "hls/dse.h"
#include "hls/feasibility.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace hlsw;

// An odd count: sweep cost differs by clock, and with equal shares of an
// odd number of clocks the median lands inside one clock's sweeps rather
// than on the jump between two.
const std::vector<double> kClocksNs = {3.0, 4.0, 5.0};
constexpr int kSetupPasses = 3;

hls::DseOptions sweep_options(double clock_ns) {
  hls::DseOptions o;
  o.clock_period_ns = clock_ns;
  o.unroll_factors = {1, 2, 4, 8, 16};
  o.pipeline_iis = {0, 1, 2, 3};
  o.prune = true;
  o.max_configs = 1024;
  return o;
}

std::vector<std::string> front_names(const hls::DseResult& r) {
  std::vector<std::string> out;
  for (const hls::DsePoint* p : r.pareto_front()) out.push_back(p->name);
  return out;
}

struct Reference {
  double clock_ns = 0;
  std::vector<hls::DsePoint> rows;
  std::vector<std::string> front;
};

bool matches(const hls::DseResult& r, const Reference& ref) {
  if (r.points.size() != ref.rows.size()) return false;
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const hls::DsePoint& a = r.points[i];
    const hls::DsePoint& b = ref.rows[i];
    if (a.name != b.name || a.latency_cycles != b.latency_cycles ||
        a.latency_ns != b.latency_ns || a.area != b.area ||
        a.pareto != b.pareto)
      return false;
  }
  return front_names(r) == ref.front;
}

struct State {
  hls::Function ir;
  hls::TechLibrary tech;
  std::vector<Reference> refs;
  std::shared_ptr<util::ThreadPool> pool;
};

// IR build, the serial reference sweeps and the worker pool.
std::unique_ptr<State> set_up(const Args& a) {
  auto s = std::make_unique<State>(
      State{qam::build_qam_decoder_ir(), hls::TechLibrary::asic90(), {}, {}});
  for (const double clock : kClocksNs) {
    hls::DseOptions o = sweep_options(clock);
    o.threads = 1;
    const hls::DseResult r = hls::explore(s->ir, o, s->tech);
    s->refs.push_back({clock, r.points, front_names(r)});
  }
  if (a.fault == "tamper_front")  // self-test: a wrong expected front
    std::reverse(s->refs[0].front.begin(), s->refs[0].front.end());
  s->pool = std::make_shared<util::ThreadPool>(a.threads);
  return s;
}

// One sweep. `threads` 1 = the serial path (traced phases); otherwise the
// shared pool. With `busy_ns`, candidate units run through
// DseOptions::executor on the pool and their busy time is summed there.
hls::DseResult sweep(const State& s, const Reference& ref, unsigned threads,
                     std::atomic<long long>* busy_ns, double* ms) {
  hls::DseOptions o = sweep_options(ref.clock_ns);
  o.threads = threads;
  o.pool = threads > 1 ? s.pool : nullptr;
  o.cache = std::make_shared<hls::SynthesisCache>();
  std::vector<std::future<void>> units;
  if (busy_ns != nullptr)
    o.executor = [&](std::function<void()> unit) {
      units.push_back(s.pool->submit([unit = std::move(unit), busy_ns] {
        const auto t0 = Clock::now();
        unit();
        busy_ns->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - t0)
                               .count());
      }));
    };
  const auto t0 = Clock::now();
  hls::DseResult r = hls::explore(s.ir, o, s.tech);
  *ms = ms_since(t0);
  for (auto& u : units) u.get();  // busy_ns is complete once these are
  return r;
}

Report traced(const Args& a, const State& s, Deck* deck) {
  Report rep;
  const double phase_s = a.seconds / 3;

  // Phases A and B, alternating sweep by sweep: the serial sweep untraced
  // (the base of the tracing overhead) and with the library's spans on.
  // The synthesis layers come from the transforms/schedule/bind spans
  // inside each synthesis span (the feasibility analysis runs transforms
  // of its own); the feasibility layer is timed here by replaying
  // check_feasibility over the sweep's rows with a fresh per-sweep memo,
  // as explore() does.
  LayerTable layers;
  double schedules = 0, pruned = 0, rows = 0, hits = 0;
  drain_spans();
  const auto before = counter_snapshot();
  const auto [base, tr] = alternating(2 * phase_s, [&](bool traced,
                                                       double* ms) {
    const Reference& ref = s.refs[deck->next()];
    if (!traced) return matches(sweep(s, ref, 1, nullptr, ms), ref);
    hlsw::obs::set_enabled(true);
    const hls::DseResult r = sweep(s, ref, 1, nullptr, ms);
    hlsw::obs::set_enabled(false);
    const auto spans = drain_spans({"hls/synthesis"});
    const double t = value_or_zero(spans, "hls/transforms in hls/synthesis"),
                 sc = value_or_zero(spans, "hls/schedule in hls/synthesis"),
                 b = value_or_zero(spans, "hls/bind in hls/synthesis"),
                 syn = value_or_zero(spans, "hls/synthesis");
    hls::FeasibilityCache memo;
    const auto f0 = Clock::now();
    for (const hls::DsePoint& p : r.points)
      hls::check_feasibility(s.ir, p.dir, s.tech, {}, &memo);
    const double feas = ms_since(f0);
    layers.add("hls.transforms.ms", t);
    layers.add("hls.schedule.ms", sc);
    layers.add("hls.bind.ms", b);
    layers.add("hls.area.ms", syn - t - sc - b);
    layers.add("hls.feasibility.ms", feas);
    layers.add("op_wall_ms", *ms);
    layers.add("unattributed_ms", *ms - syn - feas);
    schedules += static_cast<double>(r.cache_misses);
    pruned += static_cast<double>(r.pruned_infeasible);
    rows += static_cast<double>(r.points.size());
    hits += static_cast<double>(r.cache_hits);
    return matches(r, ref);
  });
  const auto after = counter_snapshot();

  // Phase C: the production configuration (pool of nproc), untraced, with
  // the candidate units' busy time summed on the pool threads.
  std::atomic<long long> busy_ns{0};
  double par_wall_ms = 0;
  const Samples par = closed_loop(phase_s, [&](double* ms) {
    const Reference& ref = s.refs[deck->next()];
    const bool ok = matches(sweep(s, ref, a.threads, &busy_ns, ms), ref);
    par_wall_ms += *ms;
    return ok;
  });

  const double n = std::max<double>(1, static_cast<double>(tr.attempted));
  std::map<std::string, double> v;
  for (const auto& [k, total] : layers.totals()) v[k] = total / n;
  add_phase_totals(&rep, &v, base, tr, &par);
  v["hls.dse.schedules"] = schedules / n;
  v["hls.dse.pruned_infeasible"] = pruned / n;
  v["hls.dse.schedule_ratio"] = rows > 0 ? schedules / rows : 0;
  v["hls.synth_cache.hit_ratio"] =
      hits + schedules > 0 ? hits / (hits + schedules) : 0;
  v["util.pool.efficiency"] =
      par_wall_ms > 0 ? static_cast<double>(busy_ns.load()) / 1e6 /
                            (a.threads * par_wall_ms)
                      : 0;
  rep.line(fmt("traced phase: serial explore (threads=1), %lld sweeps; "
               "untraced serial p50 %.3f ms, traced p50 %.3f ms",
               tr.attempted, quantile_ms(base, 0.5), quantile_ms(tr, 0.5)));
  rep.line(fmt("pool phase: threads=%u, %lld sweeps, p50 %.3f ms", a.threads,
               par.attempted, quantile_ms(par, 0.5)));
  add_layer_metrics(&rep, v);
  rep.line("registry counters over the traced phase:");
  for (const std::string& l :
       counter_diff(before, after, {"dse.", "hls.", "vsim.", "serve."}))
    rep.line("  " + l);
  return rep;
}

}  // namespace

Report run_dse_explore(const Args& a) {
  // Set-up is cheap and repeatable here: run it kSetupPasses times and
  // report the median (the first pass counts from process start).
  std::vector<double> setup_s;
  std::unique_ptr<State> s;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    const auto t0 = pass == 0 ? process_start() : Clock::now();
    s = set_up(a);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  Deck deck(indices(kClocksNs.size()), a.seed);

  if (a.trace) return traced(a, *s, &deck);

  Report rep;
  const Samples samples = closed_loop(a.seconds, [&](double* ms) {
    const Reference& ref = s->refs[deck.next()];
    return matches(sweep(*s, ref, a.threads, nullptr, ms), ref);
  });
  add_end_to_end(&rep, samples, median(setup_s));
  return rep;
}

}  // namespace pb
