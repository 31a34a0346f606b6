// On-chip performance counters and the predicted-vs-measured reconciler.
//
// PR 6 made the flow *predict* hardware timing statically (schedule II and
// latency, certified feasibility lower bounds); this layer closes the loop
// by *measuring* the emitted hardware. An InstrumentOptions value asks
// rtl::emit_verilog to synthesize real counters into the generated module —
// per-loop iteration and cycle-occupancy counters, pipeline-serialization
// stall counters, per-array memory-port activity, invocation and active-
// cycle totals — all in the reserved `perf_` signal namespace, readable
// either by peeking the simulated design
// (vsim::PackedDutHarness::read_counters) or through an optional
// perf_sel/perf_rdata readback mux for real hardware.
//
// instrument_map() is the counter map: the deterministic list of counters
// a (function, schedule, options) triple synthesizes, shared by the
// emitter, both simulators' readback paths and the reconciler, so they can
// never disagree about what exists. It is schedule metadata in the same
// sense the emitted FSM is: a pure function of the schedule, recorded
// verbatim in profile_run.json.
//
// reconcile_profile() joins one measured CounterValues set against the
// schedule's predictions and the feasibility lower bounds. Two timing
// models are reconciled, because the flow has two:
//   * the SCHEDULE model — loops overlap iterations at the achieved II
//     (what rtl::Simulator executes; per-loop cycles = (trip-1)*ii+depth);
//   * the EMITTED model — the Verilog emitter initiates iterations
//     sequentially (per-loop cycles = trip*depth), a documented
//     serialization of pipelined schedules.
// A measurement matching the schedule model is a match; one matching the
// emitted model is an *explained* deviation (flagged, never dropped); one
// matching neither — or violating a feasibility lower bound — is a hard
// deviation and fails the report. See docs/OBSERVABILITY.md.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hls/feasibility.h"
#include "hls/ir.h"
#include "hls/schedule.h"
#include "obs/json.h"

namespace hlsw::hls {

// What to synthesize. Counters live in the reserved `perf_` namespace of
// the emitted module; with everything off (enabled = false, the default)
// emission is byte-identical to an uninstrumented module.
struct InstrumentOptions {
  bool enabled = false;
  // Readback mux: adds `input [15:0] perf_sel` / `output [w-1:0]
  // perf_rdata` ports returning the counter at the map index, so real
  // hardware can sample the counters without a logic analyzer. Off by
  // default: simulators read the registers directly by name.
  bool readback_mux = false;
  int counter_width = 32;  // bits per counter (8..64), wrapping
};

enum class CounterKind {
  kInvocations,   // start handshakes accepted
  kActiveCycles,  // cycles spent in any non-idle FSM state
  kRegionCycles,  // cycles spent in the states of one region
  kLoopIters,     // loop iterations completed
  kLoopStall,     // serialization bubble cycles vs the scheduled II
  kMemReads,      // array element reads serviced (guard-qualified)
  kMemWrites,     // array element writes committed (guard-qualified)
};

const char* to_string(CounterKind k);

// One synthesized counter. `index` is both the position in the map and the
// perf_sel address of the readback mux.
struct PerfCounter {
  std::string name;  // Verilog reg name, e.g. "perf_r1_ffe_iters"
  CounterKind kind = CounterKind::kInvocations;
  int index = 0;
  int width = 32;
  int region = -1;         // kRegionCycles/kLoopIters/kLoopStall
  std::string label;       // region label ("" otherwise)
  int array = -1;          // kMemReads/kMemWrites
  std::string array_name;  // array name ("" otherwise)
};

// The deterministic counter list for (f, s, opts): empty when disabled.
// Order: invocations, active cycles, then per-region (cycles, iters,
// stall), then per-array (reads, writes).
std::vector<PerfCounter> instrument_map(const Function& f, const Schedule& s,
                                        const InstrumentOptions& opts);

// Machine-readable counter map (array of objects, map order).
obs::Json instrument_map_json(const std::vector<PerfCounter>& map);

// Executions of `op` across one full traversal of a region with the given
// trip count, honoring the guard (k < guard_trip). The static ground truth
// the emitted increments, both simulators and the reconciler's predictions
// all reduce to.
long long guarded_executions(const Op& op, int trip);

// One measurement: counter name -> value, cumulative since reset, as read
// back from one execution leg.
struct CounterValues {
  std::string source;  // "rtl_sim" | "vsim_event" | "vsim_compiled" | ...
  std::map<std::string, long long> values;
};

struct ProfileDeviation {
  std::string what;
  // True when the mismatch is fully accounted for by the emitter's
  // documented serialization of pipelined loops; false = unexplained (or a
  // violated lower bound) and the report fails.
  bool explained = false;
};

// Predicted-vs-measured join for one loop (or straight) region.
struct LoopProfile {
  int region = -1;
  std::string label;
  bool is_loop = false;
  int trip = 1;
  int body_cycles = 0;            // schedule depth of one iteration
  int scheduled_ii = 0;           // achieved II (0 = not pipelined)
  long long predicted_cycles = 0; // per invocation, schedule model
  long long emitted_cycles = 0;   // per invocation, serialized emission
  double predicted_ii = 0;        // predicted_cycles / trip
  long long measured_cycles = -1; // per invocation (-1 = not measured)
  long long measured_iters = -1;  // per invocation
  long long measured_stall = -1;  // per invocation
  double measured_ii = 0;         // measured_cycles / trip
};

struct MemProfile {
  int array = -1;
  std::string name;
  long long predicted_reads = 0;  // per invocation
  long long predicted_writes = 0;
  long long measured_reads = -1;  // per invocation
  long long measured_writes = -1;
};

struct ProfileReport {
  std::string function;
  std::string source;  // which leg produced the measurement
  long long invocations = 0;
  long long predicted_latency_cycles = 0;  // schedule model, per invocation
  long long emitted_latency_cycles = 0;    // serialized model
  long long measured_active_cycles = -1;   // per invocation
  DesignBounds bounds;      // feasibility lower bounds (PR 6)
  bool bounds_checked = false;
  bool bounds_respected = true;
  std::vector<LoopProfile> loops;  // one per region, schedule order
  std::vector<MemProfile> mem;     // one per array with counters
  std::vector<ProfileDeviation> deviations;
  // True iff every deviation is explained and every checked bound holds.
  bool ok = true;

  obs::Json to_json() const;
};

// Joins one leg's measured counters against the schedule's predictions and
// (when non-null) the feasibility lower bounds. Emits obs metrics
// (hw.loop.ii_measured, hw.stall_cycles, hw.profile.deviations, ...) when
// tracing is enabled. Counters absent from `measured.values` leave their
// measured fields at -1 and are not compared.
ProfileReport reconcile_profile(const Function& f, const Schedule& s,
                                const std::vector<PerfCounter>& map,
                                const CounterValues& measured,
                                const DesignBounds* bounds = nullptr);

}  // namespace hlsw::hls
