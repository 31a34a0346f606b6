// Quantization and overflow modes for fixed-point assignment, matching the
// SystemC sc_fixed modes the paper relies on (section 3.1-3.2): SC_RND,
// SC_RND_ZERO, SC_RND_MIN_INF, SC_RND_INF, SC_RND_CONV, SC_TRN, SC_TRN_ZERO
// and SC_SAT, SC_SAT_ZERO, SC_SAT_SYM, SC_WRAP.
//
// The rounding decision is factored into `round_increment` so the exact same
// rule is used by every consumer: the static `fixed<>` datatype, the dynamic
// fixed-point values inside the HLS IR interpreter, and the RTL simulator.
// Bit-exact agreement between those three is a core verification claim of
// the reproduction (paper Figure 1: "verify RTL against original C").
#pragma once

namespace hlsw::fixpt {

enum class Quant {
  kRnd,        // SC_RND: round half toward plus infinity
  kRndZero,    // SC_RND_ZERO: round to nearest, ties toward zero
  kRndMinInf,  // SC_RND_MIN_INF: round to nearest, ties toward minus infinity
  kRndInf,     // SC_RND_INF: round to nearest, ties away from zero
  kRndConv,    // SC_RND_CONV: round to nearest, ties to even
  kTrn,        // SC_TRN: truncate toward minus infinity (drop bits)
  kTrnZero,    // SC_TRN_ZERO: truncate toward zero
};

enum class Ovf {
  kSat,      // SC_SAT: saturate to min/max
  kSatZero,  // SC_SAT_ZERO: overflow produces zero
  kSatSym,   // SC_SAT_SYM: saturate symmetrically (min = -max)
  kWrap,     // SC_WRAP: wrap modulo 2^W
};

const char* to_string(Quant q);
const char* to_string(Ovf o);

inline const char* to_string(Quant q) {
  switch (q) {
    case Quant::kRnd: return "RND";
    case Quant::kRndZero: return "RND_ZERO";
    case Quant::kRndMinInf: return "RND_MIN_INF";
    case Quant::kRndInf: return "RND_INF";
    case Quant::kRndConv: return "RND_CONV";
    case Quant::kTrn: return "TRN";
    case Quant::kTrnZero: return "TRN_ZERO";
  }
  return "?";
}
inline const char* to_string(Ovf o) {
  switch (o) {
    case Ovf::kSat: return "SAT";
    case Ovf::kSatZero: return "SAT_ZERO";
    case Ovf::kSatSym: return "SAT_SYM";
    case Ovf::kWrap: return "WRAP";
  }
  return "?";
}

// Decides whether `floor(x / 2^d)` must be incremented by one to implement
// quantization mode `q`, given the discarded low bits of x:
//   msb_dropped  - the most significant discarded bit (weight 1/2 ulp)
//   rest_nonzero - whether any lower discarded bit is set
//   negative     - sign of the *value* being rounded
//   lsb_kept     - the least significant kept bit (for ties-to-even)
// This is the single source of truth for rounding across the library.
// Forced inline: the IR executors (hls/plan.h) call it per converted lane
// component, and GCC leaves it out of line once their template grows.
[[gnu::always_inline]] constexpr bool round_increment(Quant q,
                                                     bool msb_dropped,
                                                     bool rest_nonzero,
                                                     bool negative,
                                                     bool lsb_kept) {
  switch (q) {
    case Quant::kTrn:
      return false;  // floor is truncation toward -inf already
    case Quant::kTrnZero:
      // Toward zero: negative values round up to approach zero.
      return negative && (msb_dropped || rest_nonzero);
    case Quant::kRnd:
      // Nearest, tie toward +inf: increment whenever the half bit is set.
      return msb_dropped;
    case Quant::kRndZero:
      // Nearest, tie toward zero: on an exact tie only negatives increment.
      return msb_dropped && (rest_nonzero || negative);
    case Quant::kRndMinInf:
      // Nearest, tie toward -inf: never increment on an exact tie.
      return msb_dropped && rest_nonzero;
    case Quant::kRndInf:
      // Nearest, tie away from zero: on an exact tie positives increment.
      return msb_dropped && (rest_nonzero || !negative);
    case Quant::kRndConv:
      // Nearest, tie to even: on an exact tie increment if kept LSB is odd.
      return msb_dropped && (rest_nonzero || lsb_kept);
  }
  return false;
}

}  // namespace hlsw::fixpt
