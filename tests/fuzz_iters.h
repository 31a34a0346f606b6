// Iteration budget shared by the randomized tests (label `fuzz`),
// overridable for soak runs: HLSW_FUZZ_ITERS=20000 ctest -L fuzz. The
// value scales every trial loop proportionally to its default, relative to
// 400 (the largest default), so relative coverage stays the same.
#pragma once

#include <algorithm>
#include <cstdlib>

namespace hlsw {

inline int fuzz_iters(int dflt) {
  if (const char* s = std::getenv("HLSW_FUZZ_ITERS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<int>(std::max(1L, v * dflt / 400));
  }
  return dflt;
}

}  // namespace hlsw
