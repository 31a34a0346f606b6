// Static feasibility analysis for design-space exploration: a Dahlia-style
// check of a candidate Directives set against the IR that, WITHOUT running
// the scheduler, either
//
//   * proves the candidate cannot be honored as stated (kInfeasible) — a
//     requested pipeline II below the loop-carried recurrence or the
//     memory-port/multiplier bandwidth floor, an unroll factor beyond the
//     trip count, a merge group the engine will refuse, or a pipeline
//     directive targeting a loop that is merged away — together with a
//     `clamped` Directives value the engine provably synthesizes to
//     IDENTICAL metrics (so explorers can serve the candidate from the
//     clamped configuration's schedule instead of running a redundant one);
//
//   * or makes no claim (kFeasible).
//
// On request it also certifies lower bounds on the (clamped) candidate's
// metrics: a relaxed replay of the scheduler's own greedy placement
// (dependences + operator chaining, resource checks dropped — a
// component-wise lower bound on every op's cycle) and the schedule-
// independent terms of the area model.
//
// Soundness contract (enforced by tests/hls/feasibility_test.cpp, which
// force-schedules every kInfeasible verdict): a kInfeasible candidate's
// true metrics equal its `clamped` metrics and the stated violation holds
// on the real schedule; every candidate's true latency and area are never
// below its bounds.
#pragma once

#include <memory>
#include <string>

#include "hls/directives.h"
#include "hls/ir.h"
#include "hls/tech.h"

namespace hlsw::hls {

struct DesignBounds;
struct FeasibilityVerdict;

// Memoizes the transform-shape analysis (loop transforms, per-loop II
// floors) across check_feasibility() calls. Everything expensive in a
// verdict depends only on the directives with the pipeline-II axis erased,
// so candidates in a sweep that differ only in requested IIs share one
// cache entry and cost little more than canonicalization. The cache is
// keyed on directives alone: use one instance per (Function, TechLibrary)
// pair, from one thread at a time (explore() owns one per call on the
// enumeration thread).
class FeasibilityCache {
 public:
  FeasibilityCache();
  ~FeasibilityCache();
  FeasibilityCache(const FeasibilityCache&) = delete;
  FeasibilityCache& operator=(const FeasibilityCache&) = delete;

 private:
  friend FeasibilityVerdict check_feasibility(const Function&,
                                              const Directives&,
                                              const TechLibrary&,
                                              DesignBounds*,
                                              FeasibilityCache*);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

enum class FeasibilityStatus {
  kFeasible,    // no claim
  kInfeasible,  // directives cannot be honored as stated; see kind/clamped
};

enum class InfeasibleKind {
  kNone,
  kUnrollOverTrip,       // unroll factor exceeds the loop trip count
  kMergeConflict,        // merge group unresolvable, or a pipeline directive
                         // targets a loop that is merged away / unknown
  kDegenerateDirective,  // values outside the representable range: memory
                         // port counts < 1, unroll < 1, pipeline_ii < 0
  kIiBelowRecurrence,    // pipeline II below the carried-dependence bound
  kIiBelowBandwidth,     // pipeline II below the memory-port/multiplier floor
};

const char* to_string(InfeasibleKind k);

// Certified lower bounds on a candidate's synthesis metrics.
struct DesignBounds {
  int min_latency_cycles = 0;
  double min_area = 0;
};

struct FeasibilityVerdict {
  FeasibilityStatus status = FeasibilityStatus::kFeasible;
  InfeasibleKind kind = InfeasibleKind::kNone;
  std::string reason;     // human-readable; non-empty iff kInfeasible
  Directives clamped;     // metrics-equivalent canonical form (kInfeasible)
};

// Analyzes `dir` against `f` (the pre-transform IR) without scheduling.
// When `bounds` is non-null it receives the certified lower bounds of the
// clamped design; computing them materializes the transform and replays
// the schedule, so explorers that only need the verdict pass null.
// `cache` (optional) memoizes the transform-shape analysis across calls —
// verdicts and bounds are identical with or without it.
FeasibilityVerdict check_feasibility(const Function& f, const Directives& dir,
                                     const TechLibrary& tech,
                                     DesignBounds* bounds = nullptr,
                                     FeasibilityCache* cache = nullptr);

}  // namespace hlsw::hls
