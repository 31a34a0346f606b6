#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pb {

double quantile_ms(const Samples& s, double q) {
  const std::size_t n = s.ok_ms.size() + static_cast<std::size_t>(s.failed);
  if (n == 0) return std::numeric_limits<double>::infinity();
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (rank > s.ok_ms.size()) return std::numeric_limits<double>::infinity();
  std::vector<double> v = s.ok_ms;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

Samples closed_loop(double seconds,
                    const std::function<bool(double* ms)>& op) {
  Samples s;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  do {
    double ms = 0;
    bool ok = false;
    try {
      ok = op(&ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: operation threw: %s\n", e.what());
    }
    s.record(ok, ms, ms_since(t0) / 1000.0);
  } while (Clock::now() < end);
  s.wall_s = ms_since(t0) / 1000.0;
  return s;
}

std::pair<Samples, Samples> alternating(
    double seconds, const std::function<bool(bool variant, double* ms)>& op) {
  std::pair<Samples, Samples> out;
  bool variant = false;
  const auto t0 = Clock::now();
  const Samples all = closed_loop(seconds, [&](double* ms) {
    Samples& into = variant ? out.second : out.first;
    variant = !variant;
    bool ok = false;
    try {
      ok = op(!variant, ms);
    } catch (...) {
      into.record(false, 0, ms_since(t0) / 1000.0);
      throw;
    }
    into.record(ok, *ms, ms_since(t0) / 1000.0);
    return ok;
  });
  out.first.wall_s = out.second.wall_s = all.wall_s / 2;
  return out;
}

void merge_into(Samples* into, const Samples& s) {
  into->ok_ms.insert(into->ok_ms.end(), s.ok_ms.begin(), s.ok_ms.end());
  into->attempted += s.attempted;
  into->failed += s.failed;
  into->wall_s += s.wall_s;
  into->timeline.insert(into->timeline.end(), s.timeline.begin(),
                        s.timeline.end());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(Report* r, const Samples& s, double setup_s) {
  r->attempted += s.attempted;
  r->failed += s.failed;
  const long long n = s.attempted;
  // Cuts the run into `k` equal windows and returns f over each.
  const auto per_window = [&](long long k, auto f) {
    std::vector<Samples> win(static_cast<std::size_t>(k));
    const double width = s.wall_s / static_cast<double>(k);
    for (const auto& [end_s, ms] : s.timeline) {
      const auto w = std::min<long long>(k - 1, static_cast<long long>(end_s / width));
      win[static_cast<std::size_t>(w)].record(std::isfinite(ms), ms, end_s);
    }
    std::vector<double> out;
    for (Samples& w : win) {
      w.wall_s = width;
      out.push_back(f(w));
    }
    return median(out);
  };
  // The median and the rate need few operations per window; p95 needs
  // 200 per window to keep ten samples beyond it.
  const long long k_mid = std::clamp<long long>(n / 50, 1, 10);
  const long long k_tail = std::clamp<long long>(n / 200, 1, 5);
  r->add("setup_s", setup_s, "s");
  r->add("op_p50_ms",
         per_window(k_mid, [](const Samples& w) { return quantile_ms(w, 0.5); }),
         "ms");
  r->add("op_p95_ms", per_window(k_tail, [](const Samples& w) {
           return quantile_ms(w, 0.95);
         }),
         "ms");
  r->add("ops_per_s", per_window(k_mid, [](const Samples& w) {
           return static_cast<double>(w.ok_ms.size()) / w.wall_s;
         }),
         "1/s");
  r->add("peak_rss_mb", peak_rss_mb(), "MiB");
  const long long tail = n / k_tail;
  const long long beyond_p95 = tail - static_cast<long long>(std::ceil(0.95 * tail));
  r->line(fmt("samples: %lld attempted, %lld failed; p50 and rate: median of "
              "%lld windows; p95: median of %lld windows of ~%lld, ~%lld "
              "beyond p95 each%s",
              n, s.failed, k_mid, k_tail, tail, beyond_p95,
              beyond_p95 < 10 ? " (fewer than 10: p95 is not resolved)" : ""));
}

std::vector<std::size_t> indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

Deck::Deck(std::vector<std::size_t> items, std::uint64_t seed)
    : items_(std::move(items)), pos_(items_.size()), rng_(seed) {}

std::size_t Deck::next() {
  if (pos_ == items_.size()) {
    std::shuffle(items_.begin(), items_.end(), rng_);
    pos_ = 0;
  }
  return items_[pos_++];
}

void LayerTable::add(const std::string& layer, double ms) {
  std::lock_guard<std::mutex> lk(mu_);
  total_[layer] += ms;
}

std::map<std::string, double> LayerTable::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

std::map<std::string, double> drain_spans(
    const std::vector<std::string>& parents) {
  using hlsw::obs::TraceEvent;
  auto& session = hlsw::obs::TraceSession::instance();
  const std::vector<TraceEvent> events = session.snapshot();
  session.clear();
  // Parent intervals per (parent key, thread), in start order (the
  // snapshot is sorted by timestamp).
  std::map<std::pair<std::string, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      spans_of;
  std::map<std::string, double> out;
  for (const TraceEvent& ev : events) {
    if (ev.kind != TraceEvent::Kind::kSpan) continue;
    const std::string key = ev.cat + "/" + ev.name;
    out[key] += ev.dur_us / 1000.0;
    if (std::find(parents.begin(), parents.end(), key) != parents.end())
      spans_of[{key, ev.tid}].push_back({ev.ts_us, ev.ts_us + ev.dur_us});
  }
  for (const TraceEvent& ev : events) {
    if (ev.kind != TraceEvent::Kind::kSpan) continue;
    const std::string key = ev.cat + "/" + ev.name;
    for (const std::string& p : parents) {
      if (p == key) continue;
      const auto it = spans_of.find({p, ev.tid});
      if (it == spans_of.end()) continue;
      // The last parent starting at or before this span must contain it.
      const auto& iv = it->second;
      auto up = std::upper_bound(
          iv.begin(), iv.end(), std::make_pair(ev.ts_us, 1e300));
      if (up != iv.begin() && ev.ts_us + ev.dur_us <= std::prev(up)->second)
        out[key + " in " + p] += ev.dur_us / 1000.0;
    }
  }
  return out;
}

std::map<std::string, double> counter_snapshot() {
  const auto snap = hlsw::obs::MetricsRegistry::instance().snapshot();
  std::map<std::string, double> out(snap.counters.begin(),
                                    snap.counters.end());
  for (const auto& [name, h] : snap.histograms)
    out[name + ".count"] = static_cast<double>(h.count);
  return out;
}

std::vector<std::string> counter_diff(
    const std::map<std::string, double>& a,
    const std::map<std::string, double>& b,
    const std::vector<std::string>& prefixes) {
  std::vector<std::string> out;
  for (const auto& [name, after] : b) {
    const bool wanted =
        std::any_of(prefixes.begin(), prefixes.end(), [&](const auto& p) {
          return name.compare(0, p.size(), p) == 0;
        });
    if (!wanted) continue;
    const auto it = a.find(name);
    const double before = it == a.end() ? 0.0 : it->second;
    if (after != before)
      out.push_back(fmt("%-36s %12.0f -> %12.0f  (+%.0f)", name.c_str(),
                        before, after, after - before));
  }
  return out;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the traced result line (BENCHMARK.json's
// per_layer list, in the same order).
const LayerMetric kLayerMetrics[] = {
    {"fail_ratio", "ratio"},
    {"op_wall_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"hls.feasibility.ms", "ms"},
    {"hls.transforms.ms", "ms"},
    {"hls.schedule.ms", "ms"},
    {"hls.bind.ms", "ms"},
    {"hls.area.ms", "ms"},
    {"hls.dse.schedules", "count"},
    {"hls.dse.pruned_infeasible", "count"},
    {"hls.dse.schedule_ratio", "ratio"},
    {"hls.synth_cache.hit_ratio", "ratio"},
    {"hls.interp.ms", "ms"},
    {"hls.interp.ops", "count"},
    {"hls.compare.ms", "ms"},
    {"vsim.dut.ms", "ms"},
    {"vsim.testbench.ms", "ms"},
    {"rtl.sim.ms", "ms"},
    {"rtl.emit.ms", "ms"},
    {"vsim.parse.ms", "ms"},
    {"vsim.elaborate.ms", "ms"},
    {"vsim.lint.ms", "ms"},
    {"vsim.compile_plan.ms", "ms"},
    {"vsim.codegen.ms", "ms"},
    {"vsim.design_cache.hit_ratio", "ratio"},
    {"vsim.codegen.so_compiles", "count"},
    {"vsim.codegen.fallbacks", "count"},
    {"serve.roundtrip_ms", "ms"},
    {"serve.job_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.codec.ms", "ms"},
    {"serve.ping_ms", "ms"},
    {"serve.busy_rejections", "count"},
    {"util.pool.efficiency", "ratio"},
    {"setup.rtl.emit.ms", "ms"},
    {"setup.vsim.load_design.ms", "ms"},
    {"setup.vsim.lint.ms", "ms"},
    {"setup.vsim.compile_plan.ms", "ms"},
    {"setup.vsim.codegen.ms", "ms"},
    {"setup.reference.ms", "ms"},
};

}  // namespace

void add_phase_totals(Report* r, std::map<std::string, double>* values,
                      const Samples& base, const Samples& traced,
                      const Samples* other) {
  for (const Samples* p : {&base, &traced, other}) {
    if (p == nullptr) continue;
    r->attempted += p->attempted;
    r->failed += p->failed;
  }
  (*values)["fail_ratio"] = static_cast<double>(r->failed) /
                            static_cast<double>(std::max(1LL, r->attempted));
  (*values)["trace.overhead_ratio"] =
      quantile_ms(traced, 0.5) / quantile_ms(base, 0.5);
}

void add_layer_metrics(Report* r,
                       const std::map<std::string, double>& values) {
  const double wall = value_or_zero(values, "op_wall_ms");
  r->line("per-layer breakdown (time rows: ms per operation, share of "
          "op_wall_ms; setup.* rows: ms per set-up):");
  for (const LayerMetric& m : kLayerMetrics) {
    const double v = value_or_zero(values, m.name);
    r->add(m.name, v, m.unit);
    const std::string name = m.name;
    const bool per_op_time = std::string(m.unit) == "ms" &&
                             name.rfind("setup.", 0) != 0 &&
                             name != "op_wall_ms";
    if (per_op_time && wall > 0)
      r->line(fmt("  %-30s %12.4f %-5s %6.1f%%", m.name, v, m.unit,
                  100.0 * v / wall));
    else
      r->line(fmt("  %-30s %12.4f %s", m.name, v, m.unit));
  }
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace pb
