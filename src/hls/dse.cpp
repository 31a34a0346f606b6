#include "hls/dse.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "hls/feasibility.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace hlsw::hls {

namespace {

// One enumerated configuration, fully determined before any synthesis
// runs: enumeration happens on the calling thread, so names, order and
// duplicate detection are identical no matter how many workers execute
// the batch.
struct Candidate {
  std::string name;
  Directives dir;
  std::string key;
  // True when this explore() call already planned the same original
  // configuration (the refinement phase re-deriving a sweep point): it is
  // counted as a cache hit and produces no duplicate row.
  bool revisit = false;
};

SynthesisCache::Metrics measure(const Function& f, const Directives& dir,
                                const TechLibrary& tech) {
  const SynthesisResult r = run_synthesis(f, dir, tech);
  return SynthesisCache::Metrics{r.latency_cycles(), r.latency_ns(),
                                 r.area.total};
}

// The cache-miss path, traced: one "dse.synth" span per schedule actually
// run, recorded on whichever worker executes it (the span's tid is the
// worker id in the merged trace).
SynthesisCache::Metrics measure_traced(const Candidate& c, const Function& f,
                                       const TechLibrary& tech) {
  obs::ScopedSpan span(c.name, "dse.synth");
  const double t0 = span.active() ? obs::TraceSession::instance().now_us() : 0;
  const SynthesisCache::Metrics m = measure(f, c.dir, tech);
  if (span.active()) {
    span.arg("latency_cycles", m.latency_cycles);
    span.arg("area", m.area);
    obs::MetricsRegistry::instance().observe(
        "dse.synth_us", obs::TraceSession::instance().now_us() - t0);
  }
  return m;
}

// Runs one batch of candidates: submission (and hit/miss accounting) in
// candidate order on the calling thread, execution on the pool (or inline
// when pool is null — the legacy serial path), collection in candidate
// order again. The three orders being caller-side is what makes the
// parallel result bit-identical to the serial one.
//
// Feasibility redirects can put the same canonical key in one batch more
// than once (two original configurations clamping to one form): the first
// occurrence is accounted against the cache, later ones are hits by
// construction — the check never consults the cache for a key a worker
// may be inserting concurrently, keeping the counters deterministic.
// SynthesisCache::get_or_compute already computes each key exactly once.
void run_batch(const std::vector<Candidate>& cands, const Function& f,
               const TechLibrary& tech, SynthesisCache& cache,
               util::ThreadPool* pool, std::size_t planned_total,
               const DseOptions& opts,
               std::chrono::steady_clock::time_point t_start, DseResult* out) {
  const auto wall_ms = [t_start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t_start)
        .count();
  };
  struct Pending {
    const Candidate* cand;
    bool hit;
    std::future<SynthesisCache::Metrics> fut;  // valid only when pool != null
  };
  std::vector<Pending> pending;
  pending.reserve(cands.size());
  std::set<std::string> batch_keys;
  for (const auto& c : cands) {
    if (c.revisit) {  // already planned earlier in this call
      ++out->cache_hits;
      // One "dse.candidate" event per candidate resolution (revisits
      // included), so the trace's candidate count always equals
      // cache_hits + cache_misses.
      if (obs::enabled())
        obs::TraceSession::instance().instant(
            c.name, "dse.candidate",
            obs::Json::object().set("hit", true).set("revisit", true));
      continue;
    }
    const bool hit = batch_keys.count(c.key) > 0 || cache.contains(c.key);
    batch_keys.insert(c.key);
    if (hit)
      ++out->cache_hits;
    else
      ++out->cache_misses;
    Pending p{&c, hit, {}};
    if (opts.executor) {
      // External scheduling: wrap the same pure closure in a packaged_task
      // so the result (or exception) travels back through the future; the
      // hook owns where and when it runs.
      auto task = std::make_shared<std::packaged_task<SynthesisCache::Metrics()>>(
          [&cache, &c, &f, &tech] {
            return cache.get_or_compute(
                c.key, [&] { return measure_traced(c, f, tech); });
          });
      p.fut = task->get_future();
      opts.executor([task] { (*task)(); });
    } else if (pool) {
      p.fut = pool->submit([&cache, &c, &f, &tech] {
        return cache.get_or_compute(c.key,
                                    [&] { return measure_traced(c, f, tech); });
      });
    }
    pending.push_back(std::move(p));
  }
  for (auto& p : pending) {
    const Candidate& c = *p.cand;
    const SynthesisCache::Metrics m =
        (pool || opts.executor)
            ? p.fut.get()
            : cache.get_or_compute(c.key,
                                   [&] { return measure_traced(c, f, tech); });
    DsePoint point;
    point.name = c.name;
    point.dir = c.dir;
    point.latency_cycles = m.latency_cycles;
    point.latency_ns = m.latency_ns;
    point.area = m.area;
    out->points.push_back(std::move(point));
    const std::size_t index = out->points.size() - 1;
    if (obs::enabled())
      obs::TraceSession::instance().instant(c.name, "dse.candidate",
                                            obs::Json::object()
                                                .set("index", index)
                                                .set("hit", p.hit)
                                                .set("revisit", false));
    if (opts.progress)
      opts.progress(out->points.back(),
                    DseProgress{index, out->points.size(), planned_total,
                                p.hit, wall_ms(), out->pruned_infeasible});
  }
}

void validate_options(const DseOptions& opts) {
  std::ostringstream os;
  if (opts.max_configs <= 0) {
    os << "DseOptions::max_configs must be >= 1 (got " << opts.max_configs
       << ")";
    throw std::invalid_argument(os.str());
  }
  if (!(opts.clock_period_ns > 0)) {
    os << "DseOptions::clock_period_ns must be positive (got "
       << opts.clock_period_ns << ")";
    throw std::invalid_argument(os.str());
  }
  if (opts.unroll_factors.empty())
    throw std::invalid_argument(
        "DseOptions::unroll_factors must not be empty (the sweep would "
        "visit nothing)");
  std::set<int> seen_u;
  for (int u : opts.unroll_factors) {
    if (u < 1) {
      os << "DseOptions::unroll_factors entries must be >= 1 (got " << u
         << ")";
      throw std::invalid_argument(os.str());
    }
    if (!seen_u.insert(u).second) {
      os << "DseOptions::unroll_factors contains duplicate factor " << u;
      throw std::invalid_argument(os.str());
    }
  }
  if (opts.pipeline_iis.empty())
    throw std::invalid_argument(
        "DseOptions::pipeline_iis must not be empty (use {0} to disable "
        "the pipelining axis)");
  std::set<int> seen_ii;
  for (int ii : opts.pipeline_iis) {
    if (ii < 0) {
      os << "DseOptions::pipeline_iis entries must be >= 0 (got " << ii
         << ")";
      throw std::invalid_argument(os.str());
    }
    if (!seen_ii.insert(ii).second) {
      os << "DseOptions::pipeline_iis contains duplicate interval " << ii;
      throw std::invalid_argument(os.str());
    }
  }
  if (!opts.try_merge && !opts.try_no_merge)
    throw std::invalid_argument(
        "DseOptions: at least one of try_merge/try_no_merge must be true "
        "(both false would silently sweep nothing)");
}

// Loop labels that survive merging under the given mode — the labels a
// pipeline directive can meaningfully target. Flat: every loop. Merged:
// the leading label of each maximal run of consecutive loops (what
// auto_merge folds the run into) plus loops adjacent to none.
std::vector<std::string> pipelined_labels(const Function& f, bool auto_merge) {
  std::vector<std::string> out;
  std::vector<std::string> run;
  const auto flush = [&] {
    if (auto_merge) {
      if (!run.empty()) out.push_back(run.front());
    } else {
      for (auto& l : run) out.push_back(std::move(l));
    }
    run.clear();
  };
  for (const auto& region : f.regions) {
    if (region.is_loop)
      run.push_back(region.loop.label);
    else
      flush();
  }
  flush();
  return out;
}

}  // namespace

void mark_pareto(std::vector<DsePoint>& points) {
  for (auto& p : points) {
    p.pareto = true;
    for (const auto& q : points) {
      if (&p == &q) continue;
      const bool no_worse =
          q.latency_cycles <= p.latency_cycles && q.area <= p.area;
      const bool better =
          q.latency_cycles < p.latency_cycles || q.area < p.area;
      if (no_worse && better) {
        p.pareto = false;
        break;
      }
    }
  }
}

namespace {

// Exploration-front canonicalization applied on top of mark_pareto: exact
// (latency, area) ties carry no information the front needs — the II axis
// and feasibility redirects deliberately produce metrics-identical rows
// for distinct directive spellings — so only the first-enumerated point of
// each tie group keeps the flag. First-by-index is deterministic and
// stable across thread counts, cache warmth and prune modes (row order
// never changes). mark_pareto itself stays a pure dominance predicate.
void demote_metric_ties(std::vector<DsePoint>& points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].pareto) continue;
    for (std::size_t j = 0; j < i; ++j)
      if (points[j].pareto &&
          points[j].latency_cycles == points[i].latency_cycles &&
          points[j].area == points[i].area) {
        points[i].pareto = false;
        break;
      }
  }
}

}  // namespace

DseResult explore(const Function& f, const DseOptions& opts,
                  const TechLibrary& tech) {
  validate_options(opts);
  const auto t_start = std::chrono::steady_clock::now();
  obs::ScopedSpan span("explore", "dse");
  DseResult out;
  std::vector<std::string> loop_labels;
  std::vector<int> trips;
  for (const auto& region : f.regions) {
    if (region.is_loop) {
      loop_labels.push_back(region.loop.label);
      trips.push_back(region.loop.trip);
    }
  }

  const std::shared_ptr<SynthesisCache> cache =
      opts.cache ? opts.cache : std::make_shared<SynthesisCache>();
  const unsigned nthreads = opts.threads == 0
                                ? util::ThreadPool::default_thread_count()
                                : opts.threads;
  std::shared_ptr<util::ThreadPool> pool;
  if (nthreads > 1 && !opts.executor)
    pool = opts.pool ? opts.pool : std::make_shared<util::ThreadPool>(nthreads);

  const std::uint64_t fp = function_fingerprint(f);
  std::set<std::string> seen;  // original (pre-redirect) keys planned
  int planned = 0;             // rows planned (bounded by max_configs)
  // Per-call memo for the feasibility analysis: candidates that differ
  // only in requested IIs (the densest sweep axis) share one transform-
  // shape entry, so a prune decision costs little more than a map lookup.
  FeasibilityCache fcache;

  // Appends a candidate unless the row cap rejects it. Revisits of an
  // original configuration this call already planned bypass the cap (they
  // cost no schedule and add no row). A candidate past the cap is dropped
  // before the feasibility analysis, so it leaves no prune record: every
  // redirect record names a row. An infeasible candidate is redirected: it
  // keeps its row and name but synthesizes under its clamped directives'
  // canonical key, so metrics-identical twins collapse onto one schedule.
  const auto plan = [&](std::vector<Candidate>* batch, std::string name,
                        Directives dir) {
    const std::string orig_key = dse_cache_key(fp, dir, tech);
    if (seen.count(orig_key)) {
      Candidate c;
      c.revisit = true;
      c.name = std::move(name);
      batch->push_back(std::move(c));
      return;
    }
    if (planned >= opts.max_configs) return;
    if (opts.prune) {
      const FeasibilityVerdict fv =
          check_feasibility(f, dir, tech, nullptr, &fcache);
      if (fv.status == FeasibilityStatus::kInfeasible) {
        ++out.pruned_infeasible;
        if (obs::enabled())
          obs::TraceSession::instance().instant(
              name, "dse.prune",
              obs::Json::object().set("kind", to_string(fv.kind)));
        out.pruned.push_back({name, to_string(fv.kind), fv.reason});
        dir = fv.clamped;  // metrics-identical; the row and name survive
      }
    }
    ++planned;
    seen.insert(orig_key);
    Candidate c;
    c.key = dse_cache_key(fp, dir, tech);
    c.name = std::move(name);
    c.dir = std::move(dir);
    batch->push_back(std::move(c));
  };

  std::vector<bool> merge_modes;
  if (opts.try_no_merge) merge_modes.push_back(false);
  if (opts.try_merge) merge_modes.push_back(true);
  // First nonzero initiation interval, for the refinement phase's
  // pipelining flip (0 = the II axis is disabled).
  int ii_on = 0;
  for (int ii : opts.pipeline_iis)
    if (ii >= 1) {
      ii_on = ii;
      break;
    }

  // Stage 1: uniform unroll factor across all loops, with/without merging,
  // with/without pipelining the surviving loops at each requested II.
  std::vector<Candidate> sweep;
  for (bool merge : merge_modes) {
    const std::vector<std::string> plabels = pipelined_labels(f, merge);
    for (int u : opts.unroll_factors) {
      for (int ii : opts.pipeline_iis) {
        Directives dir;
        dir.clock_period_ns = opts.clock_period_ns;
        dir.auto_merge = merge;
        for (std::size_t l = 0; l < loop_labels.size(); ++l)
          if (u > 1 && u < trips[l]) dir.loops[loop_labels[l]].unroll = u;
        if (ii >= 1)
          for (const auto& label : plabels)
            dir.loops[label].pipeline_ii = ii;
        std::ostringstream name;
        name << (merge ? "merge" : "flat") << "+U" << u;
        if (ii >= 1) name << "+II" << ii;
        plan(&sweep, name.str(), std::move(dir));
      }
    }
  }
  {
    obs::ScopedSpan sweep_span("sweep", "dse.phase");
    run_batch(sweep, f, tech, *cache, pool.get(),
              static_cast<std::size_t>(planned), opts, t_start, &out);
  }

  // Stage 2: iterated refinement around the Pareto-optimal points — double
  // each loop's unroll factor individually (the Table 1 row-4 move), flip
  // the merge mode, and flip pipelining. Each round expands the points
  // currently on the front that no earlier round expanded, until a round
  // adds nothing (monotone: adding points never promotes an old point onto
  // the front, so unexpanded fronts only shrink). Refinements frequently
  // re-derive configurations already visited; those are memoization hits,
  // never re-schedules.
  mark_pareto(out.points);
  demote_metric_ties(out.points);
  std::vector<char> refined;
  for (int round = 0; round < 64; ++round) {
    refined.resize(out.points.size(), 0);
    const std::size_t rows_before = out.points.size();
    std::vector<Candidate> refine;
    for (std::size_t i = 0; i < rows_before; ++i) {
      if (refined[i] || !out.points[i].pareto) continue;
      refined[i] = 1;
      const DsePoint& base = out.points[i];
      for (std::size_t l = 0; l < loop_labels.size(); ++l) {
        Directives dir = base.dir;
        int u = dir.loop_directive(loop_labels[l]).unroll;
        if (u <= 0) u = 1;
        if (u * 2 >= trips[l]) continue;
        dir.loops[loop_labels[l]].unroll = u * 2;
        std::ostringstream name;
        name << base.name << "+" << loop_labels[l] << "xU" << u * 2;
        plan(&refine, name.str(), std::move(dir));
      }
      Directives flipped = base.dir;
      flipped.auto_merge = !flipped.auto_merge;
      plan(&refine, base.name + (flipped.auto_merge ? "+merge" : "+nomerge"),
           std::move(flipped));
      bool pipelined = false;
      for (const auto& [label, ld] : base.dir.loops)
        if (ld.pipeline_ii >= 1) pipelined = true;
      if (pipelined) {
        Directives dir = base.dir;
        for (auto& [label, ld] : dir.loops) ld.pipeline_ii = 0;
        plan(&refine, base.name + "+noII", std::move(dir));
      } else if (ii_on >= 1) {
        Directives dir = base.dir;
        for (const auto& label : pipelined_labels(f, dir.auto_merge))
          dir.loops[label].pipeline_ii = ii_on;
        std::ostringstream name;
        name << base.name << "+II" << ii_on;
        plan(&refine, name.str(), std::move(dir));
      }
    }
    if (refine.empty()) break;
    obs::ScopedSpan refine_span("refine", "dse.phase");
    run_batch(refine, f, tech, *cache, pool.get(),
              static_cast<std::size_t>(planned), opts, t_start, &out);
    mark_pareto(out.points);
    demote_metric_ties(out.points);
    if (out.points.size() == rows_before) break;  // all revisits: settled
  }
  mark_pareto(out.points);
  demote_metric_ties(out.points);

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_start)
                             .count();
  if (obs::enabled()) {
    auto& session = obs::TraceSession::instance();
    session.counter("dse.cache_hits", static_cast<double>(out.cache_hits));
    session.counter("dse.cache_misses", static_cast<double>(out.cache_misses));
    span.arg("points", out.points.size());
    span.arg("cache_hits", out.cache_hits);
    span.arg("cache_misses", out.cache_misses);
    span.arg("pruned_infeasible", out.pruned_infeasible);
    auto& m = obs::MetricsRegistry::instance();
    m.add("dse.explores");
    m.add("dse.points", static_cast<double>(out.points.size()));
    m.add("dse.cache_hits", static_cast<double>(out.cache_hits));
    m.add("dse.cache_misses", static_cast<double>(out.cache_misses));
    m.add("dse.prune.infeasible", static_cast<double>(out.pruned_infeasible));
  }
  if (!opts.report_path.empty())
    obs::StructuredReport::write_json_file(opts.report_path,
                                           dse_run_json(out, opts, wall_ms));
  return out;
}

obs::Json dse_run_json(const DseResult& r, const DseOptions& opts,
                       double wall_ms) {
  obs::Json doc = obs::Json::object()
                      .set("tool", "hlsw.dse")
                      .set("schema_version", 4)
                      .set("wall_ms", wall_ms)
                      .set("clock_period_ns", opts.clock_period_ns)
                      .set("threads", opts.threads)
                      .set("max_configs", opts.max_configs)
                      .set("cache_hits", r.cache_hits)
                      .set("cache_misses", r.cache_misses)
                      .set("pruned_infeasible", r.pruned_infeasible);
  obs::Json points = obs::Json::array();
  for (const auto& p : r.points)
    points.push(obs::Json::object()
                    .set("name", p.name)
                    .set("latency_cycles", p.latency_cycles)
                    .set("latency_ns", p.latency_ns)
                    .set("area", p.area)
                    .set("pareto", p.pareto));
  doc.set("points", std::move(points));
  obs::Json pruned = obs::Json::array();
  for (const auto& p : r.pruned)
    pruned.push(obs::Json::object()
                    .set("name", p.name)
                    .set("kind", p.kind)
                    .set("reason", p.reason));
  doc.set("pruned", std::move(pruned));
  obs::Json front = obs::Json::array();
  for (const DsePoint* p : r.pareto_front()) front.push(p->name);
  doc.set("pareto_front", std::move(front));
  return doc;
}

std::vector<const DsePoint*> DseResult::pareto_front() const {
  std::vector<const DsePoint*> front;
  for (const auto& p : points)
    if (p.pareto) front.push_back(&p);
  std::stable_sort(front.begin(), front.end(),
                   [](const DsePoint* a, const DsePoint* b) {
                     if (a->latency_cycles != b->latency_cycles)
                       return a->latency_cycles < b->latency_cycles;
                     return a->area < b->area;
                   });
  return front;
}

const DsePoint* DseResult::fastest() const {
  const DsePoint* best = nullptr;
  for (const auto& p : points)
    if (!best || p.latency_cycles < best->latency_cycles ||
        (p.latency_cycles == best->latency_cycles && p.area < best->area))
      best = &p;
  return best;
}

const DsePoint* DseResult::smallest() const {
  const DsePoint* best = nullptr;
  for (const auto& p : points)
    if (!best || p.area < best->area) best = &p;
  return best;
}

const DsePoint* DseResult::smallest_within(int max_cycles) const {
  const DsePoint* best = nullptr;
  for (const auto& p : points) {
    if (p.latency_cycles > max_cycles) continue;
    if (!best || p.area < best->area) best = &p;
  }
  return best;
}

}  // namespace hlsw::hls
