// Architectural loop transformations (paper sections 2.3-2.4): partial and
// full loop unrolling, and loop merging. Pipelining is a scheduling-time
// decision (hls/schedule.h) because it does not rewrite the IR.
//
// Transform pipeline: unroll each loop per its directive first, then merge
// groups — matching Table 1, where e.g. the 16-iteration dfe loop is
// unrolled by 2 to 8 iterations and then merged with the 8-iteration ffe
// loop.
//
// Merging semantics: member loops run iteration-aligned from k = 0, each
// member's body guarded by its own (post-unroll) trip count; the merged
// trip is the max. A dependence analysis compares the merged memory order
// against the original sequential order and emits a warning for every
// array whose read/write interleaving changes (the paper's adapt+shift
// merge genuinely reorders accesses to x[] and SV[]; see EXPERIMENTS.md,
// finding S5a-h). Execution semantics of the transformed IR are always
// exactly what the interpreter and RTL simulator implement, so the
// verification chain stays bit-exact.
#pragma once

#include <string>
#include <vector>

#include "hls/directives.h"
#include "hls/ir.h"

namespace hlsw::hls {

struct TransformResult {
  Function func;
  std::vector<std::string> warnings;
};

// Applies unrolling, merging and array-mapping directives; returns the
// transformed function plus legality warnings.
TransformResult apply_transforms(const Function& input, const Directives& dir);

// Unrolls a single loop in place by factor u (trip becomes ceil(trip/u));
// a factor at or past the trip count unrolls fully, exactly as u = trip.
// Exposed for unit tests; apply_transforms calls it per directive.
void unroll_loop(Loop* loop, int u);

// Merges the listed loops (must be consecutive loop regions, in program
// order) into the first; appends hazard warnings. Exposed for tests.
void merge_loops(Function* f, const std::vector<std::string>& labels,
                 std::vector<std::string>* warnings);

}  // namespace hlsw::hls
