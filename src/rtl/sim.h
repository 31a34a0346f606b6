// Cycle-accurate simulator of a scheduled design: executes the generated
// micro-architecture (FSM + datapath) with hardware register semantics and
// plays the role of the paper's RTL/FPGA verification stage (Figure 1:
// "the generated RTL ... used for functional verification").
//
// Register semantics:
//  * scalar variables update as they execute (wires forward within a
//    cycle; the register commit at the edge holds the final value);
//  * array elements (register files / RAMs) commit at the END of each
//    cycle: reads always observe start-of-cycle state — which is exactly
//    why the scheduler's write->read next-cycle rule exists;
//  * within a cycle, operations execute in program order (earlier loop
//    iterations first when pipelining overlaps them).
//
// Execution engine: the constructor compiles the schedule through the
// shared plan compiler (hls/plan.h) — per-cycle tables of compact op
// records with pre-resolved operand slots, per-iteration pre-evaluated
// affine array indices and baked conversions — so run() touches exactly
// the ops scheduled in each cycle and performs no per-iteration
// allocation. hls::Interpreter runs the same compiler and executor
// template untimed, and binds its ports through the same hls::PortBinding;
// this simulator differs only in its write sink, which defers array
// writes to the end-of-cycle commit. The original interpretive path
// (rescan every op each cycle through hls::exec_op) is preserved behind
// SimOptions::compiled = false as the independent reference the
// equivalence battery pins the plan against; both paths are bit-identical
// in outputs, cycle counts and SimStats.
//
// Because the simulator consumes the *transformed* function and its
// schedule, comparing it against hls::Interpreter on the same transformed
// IR verifies the scheduler (every dependence honored); comparing against
// the interpreter on the ORIGINAL IR verifies the whole flow end to end.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/plan.h"
#include "hls/profile.h"
#include "hls/schedule.h"
#include "obs/json.h"

namespace hlsw::rtl {

// Activity counters accumulated across run() invocations (reset() zeroes
// them). Cheap enough to keep always-on: a handful of integer increments
// per simulated cycle, dwarfed by the datapath evaluation itself.
struct SimStats {
  long long invocations = 0;     // run() calls
  long long cycles = 0;          // clock edges committed
  long long ops_executed = 0;    // datapath/memory ops evaluated
  long long array_commits = 0;   // array element writes committed at edges
  long long max_commit_queue = 0;  // peak pending write-queue depth
  std::vector<std::string> region_labels;  // per-region activity, aligned
  std::vector<long long> region_ops;       // with the transformed regions
  std::vector<long long> region_cycles;    // clock edges spent per region
  std::vector<long long> region_iters;     // loop iterations completed
  std::vector<std::string> array_labels;   // per-array port activity,
  std::vector<long long> array_reads;      // aligned with f.arrays:
  std::vector<long long> array_writes;     // element reads / write commits

  bool operator==(const SimStats&) const = default;
};

struct SimOptions {
  // Execute through the compiled plan (default). false selects the legacy
  // interpretive inner loop, kept as the bit-exact reference path for the
  // equivalence tests.
  bool compiled = true;
};

class Simulator {
 public:
  // Takes the post-transform function and the schedule produced for it.
  Simulator(hls::Function f, hls::Schedule s, SimOptions opts = {});

  // Simulators are clone-by-reconstruction (see hls::cosim_sweep for the
  // pattern).
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // One invocation (one "start" of the block). Advances the cycle counter
  // by exactly the schedule's latency.
  hls::PortIo run(const hls::PortIo& in);

  // Batched streaming: pushes every input through the design in order
  // (state carries across symbols exactly as repeated run() calls would)
  // under a single trace span. Outputs, cycle counts and SimStats are
  // bit-identical to the per-symbol loop.
  std::vector<hls::PortIo> run_stream(const std::vector<hls::PortIo>& ins);

  long long cycles() const { return cycles_; }
  void reset();

  // Cumulative activity counters (cycles, op/commit counts, per-region
  // activity) — the simulator's instrument panel, exported alongside the
  // VCD by sim_stats_json()/write_sim_stats_json().
  const SimStats& stats() const { return stats_; }

  const hls::Function& function() const { return f_; }
  const hls::Schedule& schedule() const { return s_; }
  const SimOptions& options() const { return opts_; }

  const std::vector<hls::FxValue>& array_state(const std::string& name) const;
  void set_array_state(const std::string& name,
                       const std::vector<hls::FxValue>& values);

  // Optional per-cycle observer, invoked after every clock-edge commit
  // with the cycle index and full architectural state — the hook the VCD
  // waveform writer (rtl/vcd.h) attaches to.
  using TraceFn =
      std::function<void(long long cycle, const std::vector<hls::FxValue>&,
                         const std::vector<std::vector<hls::FxValue>>&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

 private:
  struct IterationCtx {
    int k = 0;
    std::vector<hls::FxValue> vals;
  };

  // The timed write sink the plan runs with (see hls/plan.h): array writes
  // queue until the end-of-cycle commit, and SimStats are accumulated.
  struct TimedSink;

  // Executes ops of `body_cycle` for iteration ctx, in program order
  // (legacy interpretive path: rescans every op of the block).
  void exec_cycle(const hls::Block& b, const hls::BlockSchedule& sched,
                  IterationCtx* ctx, int body_cycle, std::size_t region);
  void run_regions();
  void run_regions_legacy();
  // Shared invocation body (no trace span): load, execute, collect.
  hls::PortIo run_one(const hls::PortIo& in);
  void commit_pending();

  const hls::Function f_;
  const hls::Schedule s_;
  const SimOptions opts_;
  std::vector<hls::FxValue> var_state_;
  std::vector<std::vector<hls::FxValue>> array_state_;
  // Pending array writes for the current cycle: (array, index) -> value.
  // Reserved at construction to the plan's maximum writes per cycle, so
  // commits never reallocate mid-run.
  std::vector<std::pair<std::pair<int, int>, hls::FxValue>> pending_;
  long long cycles_ = 0;
  TraceFn trace_;
  SimStats stats_;

  // f_ compiled under s_.
  hls::ExecPlan plan_;
  hls::PortBinding ports_;
};

// Structured view of a simulator's activity counters:
// {"tool":"hlsw.rtl_sim","function":...,"cycles":...,"ops_executed":...,
//  "array_commits":...,"max_commit_queue":...,"regions":[{"label","ops"}]}.
obs::Json sim_stats_json(const Simulator& sim);
bool write_sim_stats_json(const Simulator& sim, const std::string& path);

// Readback of an instrumented design's counter map from the simulator's
// activity counters: the schedule-model measurement leg of the
// hls::reconcile_profile join. The simulator executes the SCHEDULE timing
// (pipelined loops overlap), so kRegionCycles reports (trip-1)*ii + depth
// per invocation for pipelined loops and kLoopStall reports 0 — the
// emitted-Verilog legs (vsim::read_counters) measure the serialized FSM
// instead; the reconciler tells the two models apart.
hls::CounterValues read_counters(const Simulator& sim,
                                 const std::vector<hls::PerfCounter>& map);

}  // namespace hlsw::rtl
