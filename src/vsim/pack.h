// Bit-packed multi-lane execution for the compiled vsim backend.
//
// Signals are 2-state and at most 64 bits wide, so the same signal across
// up to 64 *independent* stimulus streams packs into a lane-major array:
// lane l of signal s lives at vals[s*L + l]. One PackedSim then advances
// all L streams in a single pass over the CompiledDesign — every tape op
// executes as a tight loop over the lane array (one dispatch amortized
// over L lanes, and the loops autovectorize), turning vsim_sweep's
// block-per-Simulation replay into a single multi-lane run.
//
// Lane divergence: processes execute under a 64-bit lane mask. Each
// activation starts as one (pc, mask) context; a data-dependent branch
// (kJumpIfFalse / kCaseJump / kRepeatTest) whose lanes disagree splits the
// context and the subsets run one after another — in the limit a context
// shrinks to a single lane, which IS the scalar fallback for fully
// divergent processes (counted as vsim.packed.divergence_splits). Lanes
// are state-disjoint by construction, so subset execution order cannot be
// observed; per-lane NBA order is preserved because every lane is in
// exactly one subset of any split.
//
// Equivalence contract (tests/vsim/pack_test.cpp): running N lanes packed
// is bit-identical to N scalar CompiledSim runs of the same streams —
// including event/NBA-commit accounting summed over lanes. The packed
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

// Maximum lanes per PackedSim: one lane per bit of the lane masks.
inline constexpr int kMaxLanes = 64;

// The multi-lane engine contract shared by the interpreted PackedSim and
// the generated-native PackedCodegenSim (codegen.h): lane-masked pokes,
// per-lane peeks, a settle loop and lane-summed accounting. The two are
// bit-identical by construction (pack_test proves it), so PackedDutHarness
// selects whichever tier SimConfig::backend admits and drives it through
// this interface. PackedSim is the oracle for the generated engine and the
// packed tier on machines without a host toolchain; a one-lane
// PackedCodegenSim is also Simulation's native engine.
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

  // Aggregate over all lanes; equals the sum of the per-lane scalar runs.
  virtual const SimStats& stats() const = 0;
  // Contexts created by divergent branches (0 = lanes stayed in lockstep).
  virtual long long divergence_splits() const = 0;

  // Which engine this is: "packed_codegen" or "compiled" (the interpreted
  // tier keeps the name profile_run has always recorded for it).
  virtual const char* backend() const = 0;
};

// Multi-lane interpreter over one CompiledDesign. The same activity-gated
// level-ordered flush, lowest-ready-process scheduling and double-buffered
// NBA commit as CompiledSim, with every value plane L lanes wide. No
// $display/VCD support (sweep DUTs have neither; designs that can dump
// still work — the dump simply never starts because run() is never used).
class PackedSim : public PackedEngine {
 public:
  PackedSim(std::shared_ptr<const CompiledDesign> cd, int lanes,
            const SimConfig& cfg = {});
  PackedSim(const PackedSim&) = delete;
  PackedSim& operator=(const PackedSim&) = delete;
  ~PackedSim() override;

  int lanes() const override { return lanes_; }
  std::uint64_t full_mask() const override { return full_mask_; }
  const CompiledDesign& compiled() const override { return *cd_; }

  void poke(int sig, std::uint64_t value, std::uint64_t mask) override;
  void poke_lane(int sig, int lane, std::uint64_t value) override;
  void poke_plane(int sig, const std::uint64_t* plane,
                  std::uint64_t mask) override;
  std::uint64_t peek(int sig, int lane) const override;
  long long peek_signed(int sig, int lane) const override;
  std::uint64_t peek_elem(int sig, int index, int lane) const override;
  std::uint64_t peek_nonzero_mask(int sig) const override;

  void settle() override;

  const SimStats& stats() const override { return stats_; }
  long long divergence_splits() const override { return divergence_splits_; }
  const char* backend() const override { return "compiled"; }

 private:
  struct Ctx {
    int pc;
    std::uint64_t mask;
  };

  std::uint64_t* at(int slot) { return stack_.data() + slot * lanes_; }
  std::uint64_t* val(int sig) {
    return vals_.data() + static_cast<std::size_t>(sig) * lanes_;
  }
  const std::uint64_t* val(int sig) const {
    return vals_.data() + static_cast<std::size_t>(sig) * lanes_;
  }

  // Evaluates `tape` for every lane; returns the result plane (top of
  // stack, valid until the next run_tape call).
  const std::uint64_t* run_tape(int tape);
  // Masked scalar write: change-detects per lane, counts events, marks
  // fanout and fires edge triggers for the changed lanes.
  void set_masked(int sig, const std::uint64_t* nv, std::uint64_t mask);
  void set_masked_const(int sig, std::uint64_t nv, std::uint64_t mask);
  void set_elem_lane(int sig, int lane, long long index, std::uint64_t v);
  void mark_fanout(int sig);
  void force_lazy(int node);
  void flush_comb();
  void commit_nba();
  void run_proc(int p, std::uint64_t mask);
  [[noreturn]] void fail_budget(int proc) const;

  std::shared_ptr<const CompiledDesign> cd_;
  SimConfig cfg_;
  int lanes_;
  std::uint64_t full_mask_;

  std::vector<std::uint64_t> vals_;  // lane-major: [sig][lane]
  // Lane-major per array signal: arr_[sig][elem * lanes_ + lane].
  std::vector<std::vector<std::uint64_t>> arr_;
  std::vector<std::uint64_t> stack_;   // max_stack planes of L lanes
  std::vector<std::uint64_t> scratch_;  // two planes, instr staging

  // Activity gating, as CompiledSim: per-level pending queues.
  std::vector<std::vector<std::int32_t>> level_q_;
  std::vector<char> node_pending_;
  long long pending_ = 0;

  std::vector<std::uint64_t> ready_;  // per proc: mask of ready lanes
  int running_proc_ = -1;
  // Per-proc per-lane repeat-counter stacks (outer index proc, then lane).
  std::vector<std::vector<std::vector<long long>>> reps_;

  // NBA queue. Entries reference lane planes in the value/index arenas so
  // enqueueing never allocates once warm.
  struct NbaEntry {
    int sig;
    std::uint64_t mask;
    std::int64_t val_ofs;  // plane offset into nba_vals_
    std::int64_t idx_ofs;  // plane offset into nba_idx_, -1 for scalars
  };
  std::vector<NbaEntry> nba_, nba_scratch_;
  std::vector<std::uint64_t> nba_vals_, nba_vals_scratch_;
  std::vector<long long> nba_idx_, nba_idx_scratch_;
  std::int64_t push_val_plane(const std::uint64_t* v, std::uint64_t pmask);
  std::int64_t push_idx_plane(const std::uint64_t* v, std::uint64_t pmask);

  long long slot_instr_base_ = 0;
  long long divergence_splits_ = 0;
  SimStats stats_;
};

// Lockstep multi-lane DutHarness: each lane is an independent block of a
// sweep, driven through the same clk/rst/start/done protocol as
// vsim::DutHarness. Lanes whose stream is exhausted — or whose `done`
// arrived before the slowest lane's — are frozen by clock-gating their
// lane in the masked pokes, preserving bit-identity with per-lane scalar
// replay.
//
// Engine selection: kAuto/kPackedCodegen try the generated engine
// (PackedCodegenSim) first and degrade to the interpreted PackedSim with a
// "packed-codegen: " prefixed fallback_reason(); kEvent/kCompiled force the
// interpreted tier (the benchmarks use this to keep the interpreted
// baseline measurable).
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
  // interpreted tier was requested explicitly); prefixed "packed-codegen: ".
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
