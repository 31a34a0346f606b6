// Synthesis memoization for design-space exploration.
//
// explore() visits configurations that can coincide — the per-loop
// refinement phase re-derives points the common-factor sweep already
// synthesized, and repeated explore() calls (benchmark loops, incremental
// sweeps) revisit the whole space. A configuration is identified by a
// canonical key built from (function IR fingerprint, effective Directives,
// clock period, technology library); semantically identical directive sets
// (e.g. an explicit `unroll = 1` entry vs. no entry at all) canonicalize to
// the same key, so a revisit is always a cache hit, never a re-schedule.
//
// SynthesisCache is thread-safe: concurrent get_or_compute() calls for the
// same key compute the value exactly once (losers block on a shared
// future). It stores only the scalar metrics a DsePoint needs, not the full
// SynthesisResult, so a warm cache over hundreds of points stays small.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "hls/directives.h"
#include "hls/ir.h"
#include "hls/tech.h"

namespace hlsw::hls {

// 64-bit FNV-1a over a byte string (stable across runs and platforms).
std::uint64_t fnv1a64(std::string_view s);

// Fingerprint of a function's observable IR: hashes the full dump (vars,
// arrays, region structure, every op) so any semantic change to the input
// design invalidates its cached points.
std::uint64_t function_fingerprint(const Function& f);

// Fingerprint of a technology library: name plus every delay/area
// coefficient, so retargeting (asic90 vs fpga_lut4, or a tweaked model)
// never aliases.
std::uint64_t tech_fingerprint(const TechLibrary& tech);

// Canonical cache key for one synthesis run. Directive entries that equal
// their defaults (unroll <= 1 with no pipelining, default array mapping)
// are omitted, maps render in sorted key order, and doubles render with
// round-trip precision — equal semantics implies equal key.
std::string dse_cache_key(std::uint64_t func_fingerprint,
                          const Directives& dir, const TechLibrary& tech);

// Appends dse_cache_key's array-mapping and interface fragment,
// "arr=<name>:<mapping>:<rports>:<wports>,...;if=<name>:<kind>,...", to
// `key`, omitting default array entries. The feasibility analysis keys its
// cross-shape floor memo on the same fragment.
void append_directive_env_key(const Directives& dir, std::string* key);

class SynthesisCache {
 public:
  // What a DsePoint needs from a synthesis run.
  struct Metrics {
    int latency_cycles = 0;
    double latency_ns = 0;
    double area = 0;
  };

  // True if the key is cached or currently being computed.
  bool contains(const std::string& key) const;

  // Returns the cached metrics for `key`, computing them via `compute`
  // exactly once across all threads. `hit` (if non-null) reports whether
  // the value pre-existed this call. If `compute` throws, the entry is
  // removed so a later call can retry, and the exception propagates to
  // every waiter.
  Metrics get_or_compute(const std::string& key,
                         const std::function<Metrics()>& compute,
                         bool* hit = nullptr);

  // Number of cached (or in-flight) configurations.
  std::size_t size() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<Metrics>> map_;
};

}  // namespace hlsw::hls
