// The one DUT harness and the lane-packed engines under it: up to 64
// independent stimulus streams through one engine, one lane per stream.
//
// PackedEngine is the contract: lane-masked pokes, per-lane peeks, one
// settle over every lane and lane-summed accounting. Two engines implement
// it:
//   - the generated native engine (PackedCodegenSim, codegen.h): lane-major
//     [sig][lane] state planes, every node and process body a loop over the
//     lanes, processes run under a lane mask and a branch whose lanes
//     disagree splits the mask (counted as vsim.packed.divergence_splits);
//   - one Simulation per lane (pack.cpp), each at the requested backend:
//     the event kernel or the compiled interpreter.
//
// Equivalence contract (tests/vsim/pack_test.cpp): running L lanes packed
// is bit-identical to L independent one-lane runs of the same streams,
// including events, NBA commits and instructions summed over the lanes.
// The per-lane engine is that oracle by construction. The harness freezes
// finished lanes (clock gated via masked pokes) so a lane that asserts
// `done` early sees exactly the clock edges its one-lane replay would.
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
// one Simulation per lane. PackedDutHarness builds whichever
// make_packed_engine selects and drives it through this interface.
class PackedEngine {
 public:
  virtual ~PackedEngine() = default;

  virtual int lanes() const = 0;
  // All-ones over the configured lane count.
  virtual std::uint64_t full_mask() const = 0;
  // The elaborated design every lane executes (signal handles index it).
  virtual const Design& design() const = 0;

  // Sets signal `sig` to `value` on every lane in `mask` (other lanes are
  // untouched — the masked poke is how the harness freezes lanes).
  virtual void poke(int sig, std::uint64_t value, std::uint64_t mask) = 0;
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

  // Aggregate over all lanes; equals the sum of the per-lane one-lane runs
  // (delta_cycles included).
  virtual const SimStats& stats() const = 0;
  // Contexts created by divergent branches (0 = lanes stayed in lockstep;
  // always 0 on the per-lane engine, whose lanes never share a context).
  virtual long long divergence_splits() const = 0;

  // Which engine runs the lanes: "packed_codegen" for the generated
  // engine at any lane count, else the lanes' Simulation::backend()
  // ("compiled" or "event").
  virtual const char* backend() const = 0;
  // The Simulation running `lane` (its free-run mode and the event
  // kernel's VCD), or nullptr on the generated engine, whose lanes share
  // one state.
  virtual Simulation* simulation(int /*lane*/) { return nullptr; }
};

// Builds the engine for `lanes` lanes of `design`, by one rule, and is the
// only code that builds the generated engine. kPackedCodegen at any lane
// count, one included, and kAuto above one lane build the generated
// L-lane engine (codegen.h); when it cannot be built (no host toolchain,
// an untrusted cache, a design that is not cycle-schedulable) the lanes
// run one Simulation each at kCompiled and *fallback_reason holds the
// reason, prefixed "packed-codegen: ". Every other request builds one
// Simulation per lane at cfg.backend, and *fallback_reason is that
// Simulation's own fallback_reason(). So a one-lane kAuto engine runs the
// compiled interpreter and never invokes the host compiler. Throws when
// `lanes` is outside [1, kMaxLanes].
std::unique_ptr<PackedEngine> make_packed_engine(
    const std::shared_ptr<const Design>& design, int lanes,
    const SimConfig& cfg, std::string* fallback_reason);

// The harness for every run of an emitted FSM, one lane included: each lane
// is an independent stimulus stream (a sweep block) driven through the
// clk/rst/start/done protocol. It pokes the flattened input pins, pulses
// start, clocks until done and reads the flattened output pins back into
// PortIo form. Lanes whose stream is exhausted — or whose `done` arrived
// before the slowest lane's — are frozen by clock-gating their lane in the
// masked pokes, preserving bit-identity with one-lane replay. State
// (register files, adaptive weights) carries across run_streams() calls
// exactly as in rtl::Simulator. Engine selection is make_packed_engine's.
class PackedDutHarness {
 public:
  PackedDutHarness(const hls::Function& f,
                   std::shared_ptr<const Design> design, int lanes,
                   const SimConfig& cfg = {});
  // The same harness over the design a compiled plan was built from.
  PackedDutHarness(const hls::Function& f,
                   const std::shared_ptr<const CompiledDesign>& plan,
                   int lanes, const SimConfig& cfg = {});

  void reset();  // rst high across 3 edges, all lanes

  // Runs one stream of vectors per lane (streams.size() == lanes();
  // lengths may differ) and returns the per-lane outputs.
  std::vector<std::vector<hls::PortIo>> run_streams(
      const std::vector<std::vector<hls::PortIo>>& streams);

  // Posedges from start assertion until done was observed high for the
  // most recent vector `lane` ran (== schedule latency_cycles + 1 for the
  // emitted FSM).
  long long last_cycles(int lane = 0) const {
    return last_cycles_[static_cast<std::size_t>(lane)];
  }

  // Reads the instrumented design's perf_* counter registers (cumulative
  // since the last reset), summed across lanes — the measurement leg of
  // hls::reconcile_profile. Every counter accumulates per invocation, so
  // the lane sum equals what one lane replaying all the streams back to
  // back would measure. The source reads "vsim_" + backend() at every lane
  // count. Throws if a mapped counter does not exist in the design; the map
  // must come from the InstrumentOptions the module was emitted with.
  hls::CounterValues read_counters(
      const std::vector<hls::PerfCounter>& map) const;

  PackedEngine& sim() { return *sim_; }
  // Which engine runs the lanes (PackedEngine::backend()).
  const char* backend() const { return sim_->backend(); }
  // Why a preferred engine was not used ("" when the requested one runs,
  // or when a lower tier was requested explicitly): "packed-codegen: "
  // when the generated L-lane engine degraded, else the lanes'
  // Simulation::fallback_reason().
  const std::string& fallback_reason() const { return fallback_reason_; }

 private:
  void tick(std::uint64_t mask);

  std::vector<rtl::PortPin> pins_;
  std::unique_ptr<PackedEngine> sim_;
  std::string fallback_reason_;
  std::vector<int> pin_handle_;
  std::vector<std::uint64_t> in_plane_;  // staging for per-pin input pokes
  std::vector<long long> last_cycles_;   // per lane
  int h_clk_ = -1;
  int h_rst_ = -1;
  int h_start_ = -1;
  int h_done_ = -1;
};

}  // namespace hlsw::vsim
