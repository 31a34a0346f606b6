// profile_run: the closed predicted-vs-measured loop for one design point.
//
// Synthesizes (run_synthesis), certifies the feasibility lower bounds on
// the ORIGINAL IR (PR 6), emits the Verilog with on-chip perf counters
// (rtl::VerilogOptions::instrument), then drives the same stimulus through
// up to four measurement legs —
//   * rtl::Simulator          (schedule timing model, counters from SimStats),
//   * vsim event engine       (emitted FSM, counters peeked from the design),
//   * vsim compiled backend   (same FSM through the cycle-based engine),
//   * vsim codegen backend    (opt-in: the generated engine at one lane)
// — every vsim leg on PackedDutHarness (pack.h) —
// checks every leg's outputs against the untimed golden interpreter,
// reconciles every leg's counters against the schedule predictions and the
// feasibility floors (hls::reconcile_profile), and cross-checks the legs
// against each other: counters that are timing-model independent
// (invocations, loop iterations, memory-port activity) must agree across
// ALL legs, and the two vsim backends must agree on EVERY counter bit for
// bit. The result serializes as the profile_run.json StructuredReport
// ({tool: "hlsw.profile", schema_version: 4}; v4 names each engine once:
// the codegen leg's backend reads "packed_codegen" (was "codegen") with a
// "packed-codegen: " degrade reason (was "codegen: "), and every vsim
// leg's counter source reads "vsim_" + backend (was "vsim_packed" for
// several lanes and "vsim_codegen" for the codegen leg); v3 let a packed
// leg's backend read "packed_codegen" with its degrade reason in
// fallback_reason, v2 added the per-leg "lanes" field for the packed
// auto-selection, v1 had scalar legs only); nothing is dropped — every
// disagreement lands in a leg report's deviations or in `cross_issues`.
#pragma once

#include <string>
#include <vector>

#include "hls/directives.h"
#include "hls/feasibility.h"
#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/profile.h"
#include "hls/report.h"
#include "hls/tech.h"
#include "obs/json.h"

namespace hlsw::vsim {

struct ProfileRunOptions {
  // Counter selection; `enabled` is forced on (a profile run without
  // counters measures nothing).
  hls::InstrumentOptions instrument;
  // Measurement legs. The first three are on by default; the codegen leg
  // (the generated engine at one lane, Backend::kPackedCodegen) is opt-in
  // because it invokes the host toolchain once per design (it degrades to
  // the compiled interpreter — with the reason recorded in the leg's
  // fallback_reason — on machines without one, so enabling it is always
  // safe, just not always cheap).
  bool run_rtl_sim = true;
  bool run_vsim_event = true;
  bool run_vsim_compiled = true;
  bool run_vsim_codegen = false;
  // Lane budget for the compiled leg (clamped to [1, 64]). When > 1 and the
  // stimulus has at least `lanes` vectors, the compiled leg runs that many
  // lanes under Backend::kAuto (the generated lane-major engine, else one
  // compiled Simulation per lane): the vectors split into `lanes`
  // contiguous blocks, each block replays from reset in its own lane (the
  // vsim_sweep block contract — stateful designs need block-independent
  // stimulus), outputs check against the blocks' golden replays run in
  // lockstep (hls::Interpreter::run_streams), and the perf counters are
  // summed across lanes (every counter accumulates per
  // invocation, so the sum equals the scalar sequential measurement). The
  // engine is built at the lane budget whatever the block count, so every
  // stimulus length shares one engine. The lanes that carried a block are
  // surfaced per leg as "lanes" in profile_run.json plus a note.
  int lanes = 1;
  // When non-empty, write_profile_run_json() is called on the result.
  std::string report_path;
};

struct ProfileRunResult {
  std::string function;
  std::string verilog;  // instrumented module text
  std::vector<hls::PerfCounter> counter_map;
  hls::SynthesisResult synthesis;
  hls::DesignBounds bounds;                  // certified on the original IR
  std::vector<hls::CounterValues> counters;  // one per executed leg
  std::vector<hls::ProfileReport> reports;   // reconciled, aligned with ^
  // Aligned with `counters`: the backend that actually executed each leg
  // ("rtl_sim", "event", "compiled", "packed_codegen") and, when the
  // requested backend degraded, the typed fallback reason ("" otherwise).
  // Serialized per leg as "backend" / "fallback_reason" in
  // profile_run.json.
  std::vector<std::string> leg_backends;
  std::vector<std::string> leg_fallbacks;
  // Aligned with `counters`: lanes the leg executed with (1 = scalar; > 1
  // only for the compiled leg when the packed backend was auto-selected).
  std::vector<int> leg_lanes;
  // Output words that differed from the golden interpreter, per leg.
  std::vector<long long> output_mismatches;
  // Cross-leg counter disagreements and other hard problems found by the
  // driver itself (as opposed to per-leg reconciliation deviations).
  std::vector<std::string> cross_issues;
  // Driver notes that do not fail the run (e.g. compiled backend fell back
  // to the event engine and why).
  std::vector<std::string> notes;

  // Every leg's outputs matched golden, every leg report reconciled ok
  // (hard deviations and bound violations fail it) and no cross issues.
  bool ok() const;
  obs::Json to_json() const;  // the profile_run.json document
};

// Runs the full loop for (f original IR, dir, tech) over `vectors`.
// Emits obs metrics alongside the per-leg reconciliation metrics.
ProfileRunResult profile_run(const hls::Function& f,
                             const hls::Directives& dir,
                             const hls::TechLibrary& tech,
                             const std::vector<hls::PortIo>& vectors,
                             const ProfileRunOptions& opts = {});

bool write_profile_run_json(const ProfileRunResult& r,
                            const std::string& path);

}  // namespace hlsw::vsim
