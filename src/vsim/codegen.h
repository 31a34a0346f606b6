// Codegen backend for vsim — the third rung of the backend ladder
// (event kernel -> compiled tape interpreter -> generated native code).
//
// The compiled backend (compile.h) already levelizes the design into a
// combinational DAG of expression tapes plus branch-resolved process
// programs; this backend pretty-prints that CompiledDesign as one
// self-contained C++ translation unit (straight-line level-ordered comb
// flush with per-node change detection, goto-based process bodies with the
// same double-buffered NBA commit, statically baked fanout/trigger
// bookkeeping), compiles it with the host toolchain and dlopen()s the
// result. Where the interpreter activity-gates (only re-evaluating nodes
// whose fanin changed), the generated flush simply evaluates EVERY node in
// level order: full re-evaluation of a pure levelized DAG is idempotent,
// change detection keeps the SimStats event counts identical, and
// straight-line native code beats the gated interpreter by a wide margin
// (bench/bench_vsim.cpp, vsim_harness_100_symbols_codegen).
//
// Fallback chain (silent, typed, reason recorded): codegen refuses designs
// the compiled backend refuses (it consumes the compiled plan), designs
// with $display/$dumpfile/$dumpvars (testbenches keep the interpreter
// tiers, which own the display log and VCD writer), and any environment
// without a working host toolchain — Simulation then degrades to the
// compiled interpreter with fallback_reason() prefixed "codegen: ".
//
// Shared-object cache: generated sources are fingerprinted (FNV-1a over
// the full generated text) and compiled artifacts live under
// $HLSW_VSIM_CODEGEN_CACHE (default <tmp>/hlsw-vsim-codegen) as
// <fingerprint>.{cpp,so,log} — the same content-keyed discipline as
// hls::SynthesisCache. A cached .so is dlopen()ed and verified against its
// embedded fingerprint + ABI version before reuse; compilation is
// serialized process-wide, and every artifact is written under a per-pid
// name and installed by atomic rename, so processes building one
// fingerprint concurrently never read or load a partial file. Counters:
// vsim.codegen.so_cache.{hits,misses}, vsim.codegen.compiles,
// vsim.codegen.fallbacks; the toolchain invocation runs under a
// "vsim.codegen.compile" span. Toolchain resolution: $HLSW_CODEGEN_CXX
// (value "none" or "" disables codegen outright — the fallback tests use
// this), else $CXX, else the first of c++/g++/clang++ that answers
// --version.
// Packed codegen (the top rung, lanes > 1): the same generator also emits a
// LANE-MAJOR engine for one (CompiledDesign, lane count) pair — every comb
// node and branch-resolved process body becomes a fixed-trip
// `for (l = 0; l < kL; ++l)` loop over [sig][lane] state planes that the
// host compiler vectorizes, with per-lane execution masks and the exact
// context-splitting divergence semantics of the interpreted PackedSim
// (pack.h), which serves as the bit-identity oracle. The packed ABI is
// hlsw_cg_pk_* and the lane count is baked into the generated text, so
// fingerprints differ per lane count and from the scalar ABI by
// construction (tests/vsim/codegen_test.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/compile.h"
#include "vsim/pack.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// A generated, compiled and loaded engine for one CompiledDesign. The
// dlopen handle is retained for the process lifetime (never dlclose()d);
// instances only hold resolved entry points. Immutable and shared across
// every CodegenSim built from it, like CompiledDesign itself.
struct CodegenModule {
  std::shared_ptr<const CompiledDesign> plan;
  std::string fingerprint;
  std::string so_path;

  // Resolved extern "C" entry points of the generated engine.
  void* (*create)() = nullptr;
  void (*destroy)(void*) = nullptr;
  void (*poke)(void*, int, std::uint64_t) = nullptr;
  std::uint64_t (*peek)(void*, int) = nullptr;
  std::uint64_t (*peek_elem)(void*, int, int) = nullptr;
  // Runs the settle loop with the given zero-delay instruction budget.
  // Returns 0 when quiescent, or 1 + proc index when the budget blew.
  int (*settle)(void*, long long) = nullptr;
  // Copies {events, nba_commits, delta_cycles, instrs, flushes} into
  // out[0..4].
  void (*stats)(void*, long long*) = nullptr;
};

// A generated, compiled and loaded LANE-MAJOR engine for one
// (CompiledDesign, lanes) pair. Same lifetime rules as CodegenModule.
struct PackedCodegenModule {
  std::shared_ptr<const CompiledDesign> plan;
  int lanes = 0;
  std::string fingerprint;
  std::string so_path;

  void* (*create)() = nullptr;
  void (*destroy)(void*) = nullptr;
  // Broadcasts one value to every lane in `mask` (change-detected per
  // lane, edge triggers fired for the changed lanes).
  void (*poke)(void*, int, std::uint64_t, std::uint64_t) = nullptr;
  // Per-lane values: plane[l] applied to every lane in `mask`.
  void (*poke_plane)(void*, int, const std::uint64_t*,
                     std::uint64_t) = nullptr;
  std::uint64_t (*peek)(void*, int, int) = nullptr;            // sig, lane
  std::uint64_t (*peek_elem)(void*, int, int, int) = nullptr;  // sig,idx,lane
  // Bitmask over lanes whose current value of `sig` is nonzero.
  std::uint64_t (*nonzero)(void*, int) = nullptr;
  // Settle loop; the budget is the PRE-SCALED per-slot instruction cap
  // (max_instrs_per_slot * lanes — packed instr counts are lane sums).
  // Returns 0 when quiescent, or 1 + proc index when the budget blew.
  int (*settle)(void*, long long) = nullptr;
  // Copies {events, nba_commits, delta_cycles, instrs, flushes,
  // divergence_splits} into out[0..5].
  void (*stats)(void*, long long*) = nullptr;
};

// True when a host C++ toolchain is available to this process (and codegen
// has not been disabled via HLSW_CODEGEN_CXX=none). Cheap after the first
// probe; re-reads the environment on every call so tests can flip it.
bool codegen_available();

// The compiler command codegen would invoke ("" when unavailable).
std::string codegen_toolchain();

// Generates the C++ translation unit for one compiled plan (exposed for
// tests and for inspecting what the backend emits).
std::string codegen_source(const CompiledDesign& cd);

// Memoized generate+compile+dlopen for `design`. Returns nullptr with a
// human-readable reason in *why (may be nullptr) when the design is not
// codegen-able or no toolchain exists. Success and failure are both
// memoized per compiled plan; the toolchain-disabled case is decided
// before the memo so re-enabling the toolchain is not poisoned.
std::shared_ptr<const CodegenModule> codegen_plan(
    const std::shared_ptr<const Design>& design, std::string* why);

// Generates the lane-major C++ translation unit for one compiled plan at a
// fixed lane count (exposed for tests).
std::string packed_codegen_source(const CompiledDesign& cd, int lanes);

// Memoized generate+compile+dlopen of the lane-major engine, keyed
// (plan, lanes). Takes the compiled plan directly — packed callers always
// hold one — and refuses plans with $display/$dump (plan_packable) the same
// way the scalar generator does. Same toolchain and cache discipline as
// codegen_plan.
std::shared_ptr<const PackedCodegenModule> packed_codegen_plan(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    std::string* why);

// Execution engine over one loaded CodegenModule: the same poke/settle
// delta-cycle contract as CompiledSim, with the whole settle loop (comb
// flush, process scheduling, NBA commit) running inside the generated
// shared object. No $display/VCD support by construction (such designs
// never reach this backend).
class CodegenSim {
 public:
  CodegenSim(std::shared_ptr<const CodegenModule> mod, const SimConfig& cfg);
  ~CodegenSim();
  CodegenSim(const CodegenSim&) = delete;
  CodegenSim& operator=(const CodegenSim&) = delete;

  void poke(int sig, std::uint64_t value);
  std::uint64_t peek(int sig) const { return mod_->peek(st_, sig); }
  long long peek_signed(int sig) const;
  std::uint64_t peek_elem(int sig, int index) const;
  void settle();
  RunResult run();  // no timers on this backend: settle and report

  long long now() const { return 0; }
  const SimStats& stats() const;
  const std::vector<std::string>& display_log() const { return display_; }

 private:
  std::shared_ptr<const CodegenModule> mod_;
  SimConfig cfg_;
  void* st_ = nullptr;                  // generated engine state
  mutable SimStats stats_;              // refreshed from the engine on read
  std::vector<std::string> display_;    // always empty on this backend
};

// Multi-lane execution over one loaded PackedCodegenModule: the
// PackedEngine contract (pack.h) with the whole settle loop — lane-loop
// comb flush, masked process scheduling with context splitting, plane
// NBA commit — running inside the generated shared object. Bit-identical
// to the interpreted PackedSim on values, lane masks, divergence counts
// and SimStats (pack_test certifies it against the oracle).
class PackedCodegenSim : public PackedEngine {
 public:
  PackedCodegenSim(std::shared_ptr<const PackedCodegenModule> mod,
                   const SimConfig& cfg);
  ~PackedCodegenSim() override;
  PackedCodegenSim(const PackedCodegenSim&) = delete;
  PackedCodegenSim& operator=(const PackedCodegenSim&) = delete;

  int lanes() const override { return mod_->lanes; }
  std::uint64_t full_mask() const override { return full_mask_; }
  const CompiledDesign& compiled() const override { return *mod_->plan; }

  void poke(int sig, std::uint64_t value, std::uint64_t mask) override;
  void poke_lane(int sig, int lane, std::uint64_t value) override;
  void poke_plane(int sig, const std::uint64_t* plane,
                  std::uint64_t mask) override;
  std::uint64_t peek(int sig, int lane) const override;
  long long peek_signed(int sig, int lane) const override;
  std::uint64_t peek_elem(int sig, int index, int lane) const override;
  std::uint64_t peek_nonzero_mask(int sig) const override;
  void settle() override;

  const SimStats& stats() const override;
  long long divergence_splits() const override;
  const char* backend() const override { return "packed_codegen"; }

 private:
  void refresh_stats() const;

  std::shared_ptr<const PackedCodegenModule> mod_;
  SimConfig cfg_;
  std::uint64_t full_mask_;
  void* st_ = nullptr;
  mutable SimStats stats_;
  mutable long long divergence_splits_ = 0;
};

}  // namespace hlsw::vsim
