// Independent schedule verifier: re-derives every constraint the scheduler
// must satisfy — dependence ordering, register-commit boundaries, operator
// chaining within the clock budget, and resource caps — directly from the
// IR and reports violations. Used as a property check in tests (every
// architecture's schedule must verify clean) and available to users as a
// sanity gate before trusting generated RTL.
//
// The verifier shares no code with the scheduler's placement loop: it
// re-implements the rules from the definitions in schedule.h, so a bug in
// the scheduler cannot hide itself.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "hls/directives.h"
#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/schedule.h"
#include "hls/tech.h"
#include "util/thread_pool.h"

namespace hlsw::hls {

// Returns a list of human-readable violations; empty means the schedule
// satisfies every rule.
std::vector<std::string> verify_schedule(const Function& f,
                                         const Directives& dir,
                                         const TechLibrary& tech,
                                         const Schedule& s);

// ---- Golden-against-model sweeps ----
//
// Replays a test-vector sequence through a golden reference and one or
// more models and reports every output mismatch. Vectors are sharded into
// contiguous blocks of CosimOptions::block_size; each block is replayed
// FROM RESET, so blocks are independent by construction and can run on
// worker threads. (Designs with cross-symbol state therefore need the
// blocks to be independent stimuli — e.g. each block its own burst — or
// block_size >= vectors.size() for one sequential replay.)
//
// Every sweep (cosim_sweep, cosim_sweep_nway, vsim::vsim_sweep) runs on
// one block driver, sweep_blocks: the caller supplies the body for a run
// of consecutive blocks, and the driver schedules the runs, joins their
// reports in block order and applies the mismatch cap.
//
// Models are type-erased batch functions so this layer stays independent
// of rtl::Simulator (rtl links hls, not vice versa): a factory returns a
// fresh model per block, typically wrapping Interpreter::run_stream or
// rtl::Simulator::run_stream.
using CosimModel = std::function<std::vector<PortIo>(const std::vector<PortIo>&)>;
using CosimFactory = std::function<CosimModel()>;

struct CosimOptions {
  // Vectors per block (>= 1); the unit of parallelism and of replay.
  std::size_t block_size = 256;
  // Externally owned pool the blocks run on; null runs them inline on the
  // caller's thread.
  util::ThreadPool* pool = nullptr;
  // Cap on retained mismatch reports (0 = keep all). A diverging
  // multi-hundred-vector sweep otherwise drowns the first — usually root —
  // failure in repetition; `total_mismatches` still counts everything.
  std::size_t mismatch_limit = 0;
  // Independent stimulus streams executed per model instance (clamped to
  // [1, 64]). Only vsim::vsim_sweep honors it: N consecutive blocks share
  // one N-lane PackedDutHarness, and block independence (replay from
  // reset) is unchanged. cosim_sweep and cosim_sweep_nway treat any value
  // as 1.
  int lanes = 1;
};

struct CosimResult {
  std::size_t vectors = 0;
  std::size_t blocks = 0;
  // True mismatch count before any mismatch_limit truncation.
  std::size_t total_mismatches = 0;
  // Human-readable mismatch reports in deterministic (vector) order,
  // independent of worker scheduling. Empty means the models agree. When
  // truncated, the last entry says how many reports were suppressed.
  std::vector<std::string> mismatches;
  bool ok() const { return total_mismatches == 0; }
};

// The body of a sweep for blocks [first, first + n): returns their mismatch
// reports in block order.
using SweepTask =
    std::function<std::vector<std::string>(std::size_t first, std::size_t n)>;

// The one block driver. Splits `vectors` into blocks of opts.block_size and
// hands `task` consecutive runs of `blocks_per_task` blocks (the last run
// ragged), on opts.pool or inline when it is null. The reports join in
// block order whichever worker finished first, and opts.mismatch_limit is
// applied once, after the join, so truncation never depends on scheduling.
CosimResult sweep_blocks(const std::vector<PortIo>& vectors,
                         const CosimOptions& opts, std::size_t blocks_per_task,
                         const SweepTask& task);

// Golden-leg factory: compiles one Interpreter for `f`, and every model it
// returns replays its block from reset on a copy of it (a copy skips the
// scheduling and plan compilation a construction pays).
CosimFactory interpreter_factory(const Function& f);

// Runs the sweep one block per task and reports the dut's mismatches.
CosimResult cosim_sweep(const CosimFactory& golden, const CosimFactory& dut,
                        const std::vector<PortIo>& vectors,
                        const CosimOptions& opts = {});

// ---- N-way differential sweep ----
//
// Generalizes cosim_sweep to any number of models: legs[0] is the
// reference, and every other leg is compared against it vector by vector.
// Mismatch reports are prefixed with "<leg> vs <reference>: " so a three-way
// run (untimed golden vs rtl::Simulator vs vsim-executed Verilog text)
// identifies which implementation diverged. Sharding, replay-from-reset and
// the block-order join are cosim_sweep's (one driver).
struct CosimLeg {
  std::string name;
  CosimFactory factory;
};

CosimResult cosim_sweep_nway(const std::vector<CosimLeg>& legs,
                             const std::vector<PortIo>& vectors,
                             const CosimOptions& opts = {});

// Compares one vector's outputs; appends reports tagged with the global
// vector index so joined lists read in stimulus order. Every sweep body
// reports through it.
void compare_outputs(std::size_t vec, const PortIo& want, const PortIo& got,
                     std::vector<std::string>* out);

}  // namespace hlsw::hls
