// Codegen backend for vsim: generated native code, the top rung of the
// backend ladder (event kernel -> compiled tape interpreter -> generated
// native engine).
//
// The compiled backend (compile.h) already levelizes the design into a
// combinational DAG of expression tapes plus branch-resolved process
// programs. This backend pretty-prints that CompiledDesign as one
// self-contained C++ translation unit, compiles it with the host toolchain
// and dlopen()s the result. There is one generator, and the lane count is
// its parameter: every comb node and process body becomes a fixed-trip
// `for (l = 0; l < kL; ++l)` loop over lane-major [sig][lane] state planes,
// with per-lane execution masks; a branch whose lanes disagree splits the
// mask into contexts that run one after another. L independent scalar
// CompiledSim runs are the bit-identity oracle (pack_test.cpp). At kL = 1
// the host compiler erases the lane loops. make_packed_engine (pack.h) is
// the one door to the engine at every lane count, and it reports
// backend() "packed_codegen" at each. The comb flush is
// activity-gated like the interpreter (per-node dirty bits, fan-out CSR
// baked as static tables) and lazy nodes are forced at the peek entry
// points.
//
// Wider engines are written so that the host compiler vectorizes their
// lane loops. An array read whose index is not a constant splits a tape's
// lane loop: the index goes to a plane, and when every lane agrees on it
// (a lockstep sweep's loop counter) the read copies one contiguous row,
// or zeros when the index is out of range; lanes that disagree take
// per-lane bounds-checked reads. A comb node or full-mask write
// whose target no process waits on counts its changed lanes instead of
// building a lane mask bit by bit; conditional jumps count their false
// lanes and build the split mask only when lanes disagree; a full-mask
// element NBA with one index stores one row. Every path keeps the
// per-lane values, masks and counters of the scalar oracle. One lane,
// where nothing vectorizes, keeps a single loop per tape. Each object is
// compiled once, with -march=x86-64-v4 or -v3 when the loading CPU has
// that level's features (x86-64 hosts, checked with
// __builtin_cpu_supports) and the toolchain accepts the flag, else for the
// toolchain's default target.
//
// Every compiled plan is a plain DUT (compiled_plan refuses system tasks,
// `repeat` and `$time`, which only the event kernel runs), so the
// generator takes any plan. Fallback (silent, typed, reason recorded) is
// for environments without a working host toolchain or with an untrusted
// cache directory: the engine then degrades to one Simulation per lane at
// kCompiled, with the reason prefixed "packed-codegen: " (make_packed_engine,
// pack.h).
//
// Shared-object cache: artifacts live under $HLSW_VSIM_CODEGEN_CACHE as
// <fingerprint>.{cpp,so,log}, the same content-keyed discipline as
// hls::SynthesisCache. The default directory is per user,
// <tmp>/hlsw-vsim-codegen-<euid>, created with mode 0700; it is used only
// while lstat shows a real directory owned by the effective uid with no
// group or other write bit, and codegen falls back with an "untrusted
// codegen cache <path>: ..." reason otherwise. The fingerprint is
// FNV-1a-64 over the generated text plus a header naming the toolchain
// command, the first line of its --version, the compile flags and the ABI
// revision, so an object built by another compiler, flag set or ISA level
// is never reused. On an on-disk hit the stored <fingerprint>.cpp is
// compared in full with the text about to be compiled before dlopen() (a
// hash collision or a tampered entry rebuilds), and the loaded object is
// verified against its embedded fingerprint and ABI revision. Compilation
// is serialized process-wide, and every artifact is written under a
// per-pid name and installed by atomic rename, so processes building one
// fingerprint concurrently never read or load a partial file. The cache
// is bounded: installing a new object removes the least recently used
// <fingerprint>.{so,cpp,log} triples beyond kCodegenCacheObjects, ordered
// by .so mtime, which an on-disk hit refreshes. Counters:
// vsim.codegen.so_cache.{hits,misses}, vsim.codegen.compiles,
// vsim.codegen.fallbacks; the toolchain invocation runs under a
// "vsim.codegen.compile" span. Toolchain resolution: $HLSW_CODEGEN_CXX
// (value "none" or "" disables codegen outright; the fallback tests use
// this), else $CXX, else the first of c++/g++/clang++ that answers
// --version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/compile.h"
#include "vsim/pack.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// A generated, compiled and loaded engine for one (CompiledDesign, lanes)
// pair. The dlopen handle is retained for the process lifetime (never
// dlclose()d); engines only hold resolved entry points. Immutable and
// shared across every PackedCodegenSim built from it. Its plan owns it
// (CompiledDesign::modules), as the Design owns the plan, so a module
// lives exactly as long as its Design.
struct PackedCodegenModule {
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

// Objects the shared-object cache keeps: installing a new one evicts the
// least recently used beyond this count (see the header comment).
inline constexpr std::size_t kCodegenCacheObjects = 64;

// True when a host C++ toolchain is available to this process (and codegen
// has not been disabled via HLSW_CODEGEN_CXX=none). Cheap after the first
// probe; re-reads the environment on every call so tests can flip it.
bool codegen_available();

// The compiler command codegen would invoke ("" when unavailable).
std::string codegen_toolchain();

// Generates the lane-major C++ translation unit for one compiled plan at a
// fixed lane count (exposed for tests).
std::string packed_codegen_source(const CompiledDesign& cd, int lanes);

// The engine of `plan` at `lanes` lanes: the first request generates,
// compiles (or loads from the shared-object cache) and dlopen()s it, and
// the plan keeps the module, or the reason its build failed, for every
// later request. Returns nullptr with a human-readable reason in *why (may
// be nullptr) when no toolchain exists, the default cache directory is
// untrusted, the lane count is outside [1, kMaxLanes] or the build fails.
// The toolchain and cache-directory checks come before the plan's module
// slot, so fixing either is never poisoned by an earlier refusal. The
// pointer shares the Design's ownership, like compiled_plan's.
// Thread-safe: concurrent first requests build once.
std::shared_ptr<const PackedCodegenModule> packed_codegen_plan(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    std::string* why);

// Execution over one loaded PackedCodegenModule: the PackedEngine contract
// (pack.h) with the whole settle loop — lane-loop comb flush, masked
// process scheduling with context splitting, NBA commit — running inside
// the generated shared object. Bit-identical to L independent scalar
// CompiledSim runs on values, arrays, lane masks and lane-summed SimStats
// (pack_test certifies it at 1, 8 and 64 lanes). Built only by
// make_packed_engine (pack.h).
class PackedCodegenSim final : public PackedEngine {
 public:
  // `mod` must come from packed_codegen_plan(plan, ...).
  PackedCodegenSim(std::shared_ptr<const CompiledDesign> plan,
                   std::shared_ptr<const PackedCodegenModule> mod,
                   const SimConfig& cfg);
  ~PackedCodegenSim() override;
  PackedCodegenSim(const PackedCodegenSim&) = delete;
  PackedCodegenSim& operator=(const PackedCodegenSim&) = delete;

  int lanes() const override { return mod_->lanes; }
  std::uint64_t full_mask() const override { return full_mask_; }
  const Design& design() const override { return *plan_->design; }

  void poke(int sig, std::uint64_t value, std::uint64_t mask) override;
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

  std::shared_ptr<const CompiledDesign> plan_;
  std::shared_ptr<const PackedCodegenModule> mod_;
  SimConfig cfg_;
  std::uint64_t full_mask_;
  void* st_ = nullptr;
  mutable SimStats stats_;
  mutable long long divergence_splits_ = 0;
};

}  // namespace hlsw::vsim
