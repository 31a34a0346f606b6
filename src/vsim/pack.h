// Lane-packed execution: up to 64 independent stimulus streams through one
// engine, one lane per stream.
//
// PackedEngine is the contract: lane-masked pokes, per-lane peeks, one
// settle over every lane and lane-summed accounting. Two engines implement
// it:
//   - the generated native engine (PackedCodegenSim, codegen.h): lane-major
//     [sig][lane] state planes, every node and process body a loop over the
//     lanes, processes run under a lane mask and a branch whose lanes
//     disagree splits the mask (counted as vsim.packed.divergence_splits);
//   - its fallback, L scalar CompiledSims sharing one plan (pack.cpp), for
//     machines without a host toolchain and for kCompiled/kEvent requests.
//
// Equivalence contract (tests/vsim/pack_test.cpp): running L lanes packed
// is bit-identical to L independent scalar CompiledSim runs of the same
// streams, including events, NBA commits and instructions summed over the
// lanes. The per-lane fallback is that oracle by construction. The packed
// harness freezes finished lanes (clock gated via masked pokes) so a lane
// that asserts `done` early sees exactly the clock edges its scalar replay
// would.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/profile.h"
#include "rtl/testbench.h"
#include "vsim/compile.h"

namespace hlsw::vsim {

// Maximum lanes per packed engine: one lane per bit of the lane masks.
inline constexpr int kMaxLanes = 64;

// The multi-lane engine contract shared by the generated native engine and
// its per-lane CompiledSim fallback. PackedDutHarness selects whichever
// SimConfig::backend admits (make_packed_engine) and drives it through this
// interface; a one-lane native engine is also Simulation's native engine.
class PackedEngine {
 public:
  virtual ~PackedEngine() = default;

  virtual int lanes() const = 0;
  // All-ones over the configured lane count.
  virtual std::uint64_t full_mask() const = 0;
  // The shared plan this engine executes (signal handles resolve through
  // its elaborated design).
  virtual const CompiledDesign& compiled() const = 0;

  // Sets signal `sig` to `value` on every lane in `mask` (other lanes are
  // untouched — the masked poke is how the harness freezes lanes).
  virtual void poke(int sig, std::uint64_t value, std::uint64_t mask) = 0;
  virtual void poke_lane(int sig, int lane, std::uint64_t value) = 0;
  // Per-lane values in one call: plane[l] is applied to every lane in
  // `mask`. One change-detection pass instead of lanes() masked pokes.
  virtual void poke_plane(int sig, const std::uint64_t* plane,
                          std::uint64_t mask) = 0;
  virtual std::uint64_t peek(int sig, int lane) const = 0;
  virtual long long peek_signed(int sig, int lane) const = 0;
  virtual std::uint64_t peek_elem(int sig, int index, int lane) const = 0;
  // Bitmask over lanes whose current value of `sig` is nonzero (forces a
  // lazy node once, like peek). The harness polls `done` with this.
  virtual std::uint64_t peek_nonzero_mask(int sig) const = 0;

  // Runs delta cycles at the current time until every lane is quiescent.
  virtual void settle() = 0;

  // Aggregate over all lanes; equals the sum of the per-lane scalar runs
  // (delta_cycles included).
  virtual const SimStats& stats() const = 0;
  // Contexts created by divergent branches (0 = lanes stayed in lockstep;
  // always 0 on the per-lane fallback, whose lanes never share a context).
  virtual long long divergence_splits() const = 0;

  // Which engine this is: "packed_codegen" or "compiled" (the per-lane
  // fallback keeps the name profile_run has always recorded for it).
  virtual const char* backend() const = 0;
};

// Builds the lane-packed engine `cfg.backend` selects for `plan`. kAuto and
// kPackedCodegen select the generated native engine (codegen.h); without a
// host toolchain, or for a plan it refuses, they fall back to L scalar
// CompiledSims behind this interface and store the native tier's refusal,
// prefixed "packed-codegen: ", in *fallback_reason. kCompiled and kEvent
// select the per-lane CompiledSims directly. Throws when `lanes` is
// outside [1, kMaxLanes].
std::unique_ptr<PackedEngine> make_packed_engine(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    const SimConfig& cfg, std::string* fallback_reason);

// Lockstep multi-lane DutHarness: each lane is an independent block of a
// sweep, driven through the same clk/rst/start/done protocol as
// vsim::DutHarness. Lanes whose stream is exhausted — or whose `done`
// arrived before the slowest lane's — are frozen by clock-gating their
// lane in the masked pokes, preserving bit-identity with per-lane scalar
// replay.
//
// Engine selection is make_packed_engine's: kAuto/kPackedCodegen run the
// generated engine and degrade to per-lane CompiledSims with a
// "packed-codegen: " prefixed fallback_reason(); kEvent/kCompiled run the
// per-lane CompiledSims.
class PackedDutHarness {
 public:
  PackedDutHarness(const hls::Function& f,
                   std::shared_ptr<const CompiledDesign> plan, int lanes,
                   const SimConfig& cfg = {});

  void reset();  // rst high across 3 edges, all lanes

  // Runs one stream of vectors per lane (streams.size() == lanes();
  // lengths may differ) and returns the per-lane outputs.
  std::vector<std::vector<hls::PortIo>> run_streams(
      const std::vector<std::vector<hls::PortIo>>& streams);

  // Reads the instrumented design's perf_* counters summed across lanes.
  // Every counter accumulates per invocation, so the lane sum equals what
  // one scalar harness replaying all the lanes' streams back to back would
  // measure — the identity profile_run's packed leg relies on.
  hls::CounterValues read_counters(
      const std::vector<hls::PerfCounter>& map) const;

  PackedEngine& sim() { return *sim_; }
  // "packed_codegen" or "compiled" — which tier actually runs the lanes.
  const char* backend() const { return sim_->backend(); }
  // Why the generated tier was not used ("" when it runs, or when the
  // per-lane tier was requested explicitly); prefixed "packed-codegen: ".
  const std::string& fallback_reason() const { return fallback_reason_; }

 private:
  void tick(std::uint64_t mask);

  std::vector<rtl::PortPin> pins_;
  std::unique_ptr<PackedEngine> sim_;
  std::string fallback_reason_;
  std::vector<int> pin_handle_;
  std::vector<std::uint64_t> in_plane_;  // staging for per-pin input pokes
  int h_clk_ = -1;
  int h_rst_ = -1;
  int h_start_ = -1;
  int h_done_ = -1;
};

}  // namespace hlsw::vsim
