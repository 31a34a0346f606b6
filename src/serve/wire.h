// JSON (de)serialization of the domain values the serve protocol carries:
// directives, port I/O vectors, and the option subsets a client may set on
// dse/cosim/profile jobs. Shared by the server's request handlers, the
// client-side tests and the equivalence suite — one codec, so a value that
// round-trips here is bit-identical on both sides of the wire.
//
// Conventions:
//  * FxValue raw components serialize as decimal STRINGS ("-2048"), not
//    JSON numbers: obs::Json stores numbers as doubles, and a full-width
//    64-bit raw value would silently lose low bits through the double.
//    Strings keep the codec exact for every representable signal value.
//  * from_json functions validate exhaustively, never throw, and report
//    the first problem through *err (path-prefixed, e.g.
//    "directives.loops.dfe.unroll: expected number").
//  * Unknown keys are rejected (typo'd directive names would otherwise
//    silently synthesize the default architecture — the one result the
//    submitter did not ask for).
//  * Every integer a peer sends goes through int_from_json: it must be an
//    integral number inside the destination's range, never a fraction or
//    an out-of-range value cast down. Tighter bounds where a value feeds
//    arithmetic or enumeration:
//      - loops.<label>.pipeline_ii and each pipeline_iis entry <= 65535
//        (the schedule multiplies II by the trip count in int);
//      - value.fw within [-63, 63] (fixed-point conversion shifts a
//        128-bit raw value by the difference of two fws);
//      - at most 64 entries in each of unroll_factors and pipeline_iis
//        (dse enumerates their full product);
//      - request ids, block_size and mismatch_limit within 2^53 in
//        magnitude, the integers a JSON number carries exactly.
//  * clock_period_ns must be finite and > 0.
#pragma once

#include <string>
#include <vector>

#include "hls/directives.h"
#include "hls/dse.h"
#include "hls/interp.h"
#include "hls/tech.h"
#include "hls/verify.h"
#include "obs/json.h"

namespace hlsw::serve {

// Bounds of the checked integer reads (see the conventions above).
inline constexpr long long kMaxPipelineIi = 65535;
inline constexpr long long kMaxFracWidth = 63;
inline constexpr std::size_t kMaxDseAxis = 64;
inline constexpr long long kMaxJsonInt = 1LL << 53;

// The checked integer read: true and *out set when `j` is an integral
// number in [lo, hi] (|lo|, |hi| <= 2^53, where doubles are exact);
// otherwise false with "<path>: ..." in *err.
bool int_from_json(const obs::Json& j, const std::string& path, long long lo,
                   long long hi, long long* out, std::string* err);

// ---- Directives ----
obs::Json directives_to_json(const hls::Directives& dir);
bool directives_from_json(const obs::Json& j, hls::Directives* out,
                          std::string* err);

// ---- Port I/O (stimulus and results) ----
obs::Json fxvalue_to_json(const hls::FxValue& v);
bool fxvalue_from_json(const obs::Json& j, hls::FxValue* out,
                       std::string* err);
obs::Json portio_to_json(const hls::PortIo& io);
bool portio_from_json(const obs::Json& j, hls::PortIo* out, std::string* err);
obs::Json vectors_to_json(const std::vector<hls::PortIo>& vectors);
bool vectors_from_json(const obs::Json& j, std::vector<hls::PortIo>* out,
                       std::string* err);

// ---- Technology library selection ----
// Accepted names: "asic90" (default when absent), "fpga_lut4".
bool tech_from_json(const obs::Json* j, hls::TechLibrary* out,
                    std::string* err);

// ---- Job option subsets ----
// Client-settable DseOptions fields (threads/cache/pool/executor/progress
// stay server-owned). Absent keys keep the library defaults.
bool dse_options_from_json(const obs::Json* j, hls::DseOptions* out,
                           std::string* err);
// Client-settable CosimOptions fields: block_size, mismatch_limit. Any
// other key, `lanes` included (cosim and verify run one lane), is refused.
bool cosim_options_from_json(const obs::Json* j, hls::CosimOptions* out,
                             std::string* err);

// ---- Result helpers ----
obs::Json cosim_result_to_json(const hls::CosimResult& r);

}  // namespace hlsw::serve
