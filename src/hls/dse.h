// Automated design-space exploration: the paper's workflow — try merge and
// unroll combinations, synthesize each, keep the Pareto-optimal
// latency/area points — packaged as an API. Section 5's Table 1 is four
// hand-picked points from exactly this space; explore() enumerates it
// systematically.
//
// The sweep is embarrassingly parallel (every configuration synthesizes
// independently) and highly redundant (the refinement phase re-derives
// configurations the common-factor sweep already visited). explore()
// therefore runs candidates across a util::ThreadPool and memoizes
// synthesis results in a SynthesisCache keyed by (IR fingerprint,
// directives, clock, tech library). Results are bit-identical to the
// serial path regardless of thread count: candidates are enumerated, named
// and collected on the calling thread in a deterministic order, and worker
// threads only evaluate the pure run_synthesis() function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hls/report.h"
#include "hls/synth_cache.h"
#include "obs/json.h"

namespace hlsw::util {
class ThreadPool;
}

namespace hlsw::hls {

struct DsePoint {
  std::string name;
  Directives dir;
  int latency_cycles = 0;
  double latency_ns = 0;
  double area = 0;
  bool pareto = false;  // not dominated in (latency_cycles, area)
};

// Passed to DseOptions::progress after each configuration resolves.
//
// Ordering guarantee: progress fires on the thread that called explore()
// (never on a worker), once per resolved point, in candidate enumeration
// order — which is exactly the order of DseResult::points. `index` is the
// point's position in that vector and increases strictly by one; the whole
// event sequence is therefore deterministic and identical for any thread
// count (only wall_ms varies run to run).
struct DseProgress {
  std::size_t index = 0;    // position of this point in DseResult::points
  std::size_t done = 0;     // configurations resolved so far (== index + 1)
  std::size_t planned = 0;  // configurations planned so far (grows per phase)
  bool from_cache = false;  // this point came from the memoization cache
  double wall_ms = 0;       // elapsed wall time since explore() started
  // Cumulative redirect count at the time this point resolved (see
  // DseResult::pruned_infeasible). Prune decisions happen during
  // enumeration on the calling thread, so it is deterministic too.
  std::size_t pruned_infeasible = 0;
};

struct DseOptions {
  double clock_period_ns = 10.0;
  // Unroll factors tried on every loop whose trip count they divide
  // usefully (factor < trip). 1 = no unrolling. Must be non-empty,
  // positive and duplicate-free (explore() throws std::invalid_argument
  // otherwise — a degenerate axis silently sweeps nothing).
  std::vector<int> unroll_factors = {1, 2, 4};
  // Pipeline initiation intervals tried on the innermost sweep axis:
  // 0 = no pipelining, k >= 1 requests II = k on every surviving loop.
  // Same validity rules as unroll_factors (entries must be >= 0).
  std::vector<int> pipeline_iis = {0, 1};
  // Explore with and without auto-merging. At least one must be true.
  bool try_merge = true;
  bool try_no_merge = true;
  // Static feasibility pruning (hls/feasibility.h): candidates whose
  // directives provably synthesize identically to a canonical clamped form
  // are redirected to it (same row and name, served from the cache when
  // the clamped form is already planned). Pruning never changes a row's
  // metrics or the Pareto front — the soundness oracle in
  // tests/hls/feasibility_test.cpp enforces this — it only removes
  // redundant scheduler work. Off = schedule everything.
  bool prune = true;
  // Cap on the number of synthesized configurations (the sweep is
  // exponential in principle; we sweep a common factor across all loops
  // plus per-loop refinements of the best points). The default covers the
  // whole redirect-heavy QAM space (unroll {1,2,4,8,16} x II {0,1,2,3}) at
  // 3-5 ns. Pruning does not make that sweep cheaper: on one thread it adds
  // 5-7 ms to a 20-24 ms unpruned sweep and saves 16, 0 and 0 of 359, 294
  // and 356 schedules at 3, 4 and 5 ns (bench_exploration's prune legs,
  // BENCH_exploration.json).
  int max_configs = 1024;
  // Worker threads for the synthesis batch. 0 = hardware concurrency;
  // 1 = legacy serial path (no pool is created). Any value produces
  // bit-identical points in identical order.
  unsigned threads = 0;
  // Seed for the deterministic tie-break applied when ranking points with
  // equal (latency, area) — see DseResult::pareto_front().
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  // Optional shared memoization cache. When set, it persists across
  // explore() calls: a cache-warm re-exploration performs zero new
  // schedules. When null, explore() uses a private per-call cache (the
  // refinement phase still benefits).
  std::shared_ptr<SynthesisCache> cache;
  // Optional shared worker pool, reused across explore() calls. When null
  // and threads != 1, explore() creates a pool for the call.
  std::shared_ptr<util::ThreadPool> pool;
  // External executor for candidate-synthesis work units. When set, it
  // replaces the pool/threads machinery entirely: explore() hands each
  // batched synthesis closure to the hook, which must run it exactly once
  // on some thread (inline is legal). Enumeration, accounting and
  // collection stay on the calling thread in candidate order, so results
  // remain bit-identical to the serial path no matter where or in what
  // order the closures execute. This is how hlsw::serve shards one DSE job
  // into fair-scheduled work units competing with other tenants' jobs.
  std::function<void(std::function<void()>)> executor;
  // Observability hook — see the DseProgress ordering guarantee above.
  std::function<void(const DsePoint&, const DseProgress&)> progress;
  // When non-empty, explore() writes a run-level structured JSON artifact
  // (every point, the Pareto front, cache counters, wall time) to this
  // path on return — the machine-readable counterpart of `progress`. See
  // dse_run_json() for the document layout.
  std::string report_path;
};

// One prune decision made during enumeration (DseResult::pruned): an
// infeasible candidate redirected to its metrics-equivalent clamped form.
// Its row exists under the same name and usually resolves as a cache hit.
struct DsePruned {
  std::string name;
  std::string kind;    // to_string(InfeasibleKind)
  std::string reason;  // human-readable explanation
};

struct DseResult {
  std::vector<DsePoint> points;  // every synthesized configuration
  // Memoization counters: hits = configurations served without a schedule
  // (refinement revisits + warm-cache lookups), misses = schedules run.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  // Candidates redirected to a clamped canonical form (hls/feasibility.h;
  // row kept, schedule usually saved).
  std::size_t pruned_infeasible = 0;
  std::vector<DsePruned> pruned;  // one record per redirect
  // Tie-break seed the points were ranked with (copied from DseOptions).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  // Convenience views.
  std::vector<const DsePoint*> pareto_front() const;
  const DsePoint* fastest() const;
  const DsePoint* smallest() const;
  // The smallest point meeting a latency bound, or nullptr.
  const DsePoint* smallest_within(int max_cycles) const;
};

// Marks each point's `pareto` flag: true iff no other point dominates it
// in (latency_cycles, area). Pure dominance predicate — exact-tie groups
// all keep the flag here; explore() additionally demotes all but the
// first-enumerated member of each tie group in its result (the II axis
// and feasibility redirects produce metrics-identical rows for distinct
// directive spellings). Exposed for property tests and custom sweeps.
void mark_pareto(std::vector<DsePoint>& points);

// Throws std::invalid_argument on degenerate options: max_configs <= 0,
// non-positive clock, empty / non-positive / duplicate unroll_factors,
// empty / negative / duplicate pipeline_iis, or both merge modes false.
DseResult explore(const Function& f, const DseOptions& opts,
                  const TechLibrary& tech);

// The dse_run.json document explore() writes for DseOptions::report_path:
// {"tool":"hlsw.dse", "schema_version":3, "wall_ms":..., "threads":...,
//  "cache_hits":..., "cache_misses":..., "seed":"0x...",
//  "pruned_infeasible":...,
//  "points":[{"name","latency_cycles","latency_ns","area","pareto"}...],
//  "pruned":[{"name","kind","reason"}...], "pareto_front":["name"...]}.
// Schema history: v3 dropped the domination-prune counter (domination
// pruning is gone) and "scheduled" (it always equalled the number of
// points); v2 added the prune counters and the "pruned" array; v1 had
// neither. Exposed so tools and tests can build the same artifact from an
// in-memory result.
obs::Json dse_run_json(const DseResult& r, const DseOptions& opts,
                       double wall_ms);

}  // namespace hlsw::hls
