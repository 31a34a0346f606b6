// Compiled cycle-based backend for vsim — the Verilator-style counterpart
// to the event-driven kernel in sim.h, mirroring what rtl::Simulator's
// compiled execution plans did for the scheduled RTL model.
//
// After elaboration the design is *levelized*: every continuous assign
// becomes a node in a combinational DAG (level = 1 + max level of its
// writers), and every expression is flattened into a tape of stack-machine
// ops with all width/signedness context resolved at compile time — the
// exact IEEE 1364-2001 4.4/4.5 propagation the event kernel performs per
// evaluation (context width, sign extension at self-determined boundaries,
// comparison/shift/division special cases) is baked into the op stream
// once. Edge-triggered `always @(posedge ...)` bodies compile into
// sequential update programs with the same double-buffered NBA commit
// queue as the event kernel; `always @(a or b)`/`@*` bodies become
// sensitivity-triggered combinational programs. Execution per delta is
// activity-gated: only assign nodes whose fanin actually changed are
// re-evaluated, in level order, so a clock tick costs O(changed cone)
// instead of O(event heap).
//
// Designs the levelizer cannot prove cycle-schedulable fall back to the
// event-driven engine (compile_design returns nullptr with a reason):
//   - explicit `#` delays or `forever` loops (time control),
//   - nested event control inside a process body,
//   - testbench constructs, which only the event kernel implements: every
//     system task ($display/$write, $dumpfile/$dumpvars, $finish/$stop),
//     `repeat` and `$time` (the reason names the construct),
//   - zero-delay combinational feedback (a cycle through assigns and/or
//     blocking writes of sensitivity-triggered always blocks),
//   - constructs the event kernel itself only rejects dynamically
//     (string operands, register files read without a select, ...),
//   - a bound instance (elab.h), which the event kernel steps (the reason
//     names it).
// Every plan compile_design returns is therefore a plain DUT that both
// this interpreter and the generated native engine (codegen.h) execute.
// The dispatch lives in Simulation (sim.h): every backend but kEvent
// selects this one when the design compiles, keeping the event engine
// with the levelizer's reason otherwise (the native engine generated from
// the same plan is built only by make_packed_engine, pack.h). Harness
// pokes and SimStats event/NBA accounting behave identically on both
// backends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/elab.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// One stack-machine op. `w` carries an operand width where the semantics
// need it (sign bit position, shift/compare width); `a` is a signal index,
// bit offset or replication count; `imm` is a constant or result mask.
struct TOp {
  enum Code : std::uint8_t {
    kConst,     // push imm
    kLoad,      // push val[a] (invariant: already masked to declared width)
    kLoadSx,    // push sign-extend(val[a] from w bits) & imm (kLoad+kSext)
    kLoadTr,    // push val[a] & imm (kLoad+kTrunc)
    kLoadElem,  // pop signed index, push arr[a][idx] (out of range -> 0)
    kTrunc,     // v &= imm
    kSext,      // sign-extend from w bits, then &= imm
    kToSigned,  // reinterpret low w bits as signed (64-bit extend, no mask)
    kBitSel,    // pop signed index, pop base (w bits wide), push bit or 0
    kRange,     // v = (v >> a) & imm
    kNeg,       // v = (0 - v) & imm
    kNot,       // v = ~v & imm
    kLNot,      // v = (v == 0)
    kNeZero,    // v = (v != 0)
    kRedAnd,    // v = (v == imm)
    kRedNand,   // v = (v != imm)
    kRedOr,     // v = (v != 0)
    kRedNor,    // v = (v == 0)
    kRedXor,    // v = parity(v)
    kRedXnor,   // v = !parity(v)
    kAnd, kOr, kXor,   // pop b, a; push a op b
    kXnorB,     // push ~(a ^ b) & imm
    kAdd, kSub, kMul,  // push (a op b) & imm
    kDivU, kModU,      // b == 0 -> 0
    kDivS, kModS,      // w-bit signed; b == 0 -> 0, b == -1 special-cased
    kEq, kNe,
    kLtU, kLeU, kGtU, kGeU,
    kLtS, kLeS, kGtS, kGeS,  // w-bit signed compares
    kShl,       // pop sh, a; sh >= 64 -> 0 else (a << sh) & imm
    kShrU,      // sh >= 64 -> 0 else a >> sh
    kShrS,      // w-bit arithmetic shift, clamped at 63, & imm
    kConcatAcc, // pop kid, acc; push (acc << w) | kid
    kRepl,      // pop v; push v repeated a times at width w
    kMux,       // pop else_v, then_v, cond; push cond ? then_v : else_v
    // Superinstructions, formed by the finish_tape peephole. The xC family
    // folds a kConst operand into the binop (constant in `a`, except the
    // maskless bitwise ops which keep it in `imm`); the xL family folds a
    // plain kLoad of signal `a` (these are load sites: every scan that
    // looks for kLoad must treat them as reads of val[a]).
    kLoadElemSx,  // pop idx, push sign-extend(arr[a][idx] from w) & imm
    kLoadElemTr,  // pop idx, push arr[a][idx] & imm
                  // (kLoadElem/kLoadElemTr: w != 0 sign-extends the
                  // popped index from w bits first — a folded cx_index)
    kAddC, kSubC, kMulC,  // v = (v op a) & imm
    kOrC, kXorC,          // v = v op imm (const-AND folds to kTrunc)
    kShlC,                // v = (v << a) & imm (a < 64)
    kConcatC,             // v = (v << w) | a
    kAddL, kSubL, kMulL,  // v = (v op val[a]) & imm
    kAndL, kOrL, kXorL,   // v = v op val[a]
    kConcatL,             // v = (v << w) | val[a]
    kRangeL,              // push (val[a] >> w) & imm
    kLoadShlC,            // push (val[a] << w) & imm
    kHalt,      // end of tape: return sp[-1] (sentinel, appended by
                // finish_tape; must stay the last enumerator)
  };
  Code code;
  std::uint8_t w = 0;
  std::int32_t a = 0;
  std::uint64_t imm = 0;
};

// A compiled expression: a [begin, begin+len) slice of CompiledDesign::ops
// leaving one value on the stack, masked to the expression's context
// width.
struct TapeRef {
  std::uint32_t begin = 0;
  std::uint32_t len = 0;
};

// One program instruction of a compiled process body.
struct PInstr {
  enum Code : std::uint8_t {
    kAssign,      // val[sig] = tape(t0) (blocking; masks to width)
    kAssignCopy,  // val[sig] = val[a] (ident RHS needing no extension)
    kAssignConst, // val[sig] = imm
    kAssignElem,  // arr[sig][tape(t1)] = tape(t0)
    kAssignBit,   // val[sig] bit tape(t1) = tape(t0) & 1 (RMW)
    kNb,          // queue scalar NBA (masked at enqueue, like the kernel)
    kNbCopy,      // queue scalar NBA of val[a] (pre-masked variant of kNb)
    kNbConst,     // queue scalar NBA of imm (masked at compile time)
    kNbElem,      // queue array-element NBA
    kNbBit,       // queue bit NBA
    kJump,        // pc = a
    kJumpIfFalse, // pc = tape(t0) != 0 ? pc + 1 : a
    kJumpIfFalseSig,  // pc = val[sig] != 0 ? pc + 1 : a (ident condition)
    kCaseJump,    // pc = case_tables[a] lookup of val[sig] (FSM dispatch)
    kHalt,        // body done: initial -> dead, always -> park for trigger
  };
  Code code;
  std::int32_t sig = -1;
  std::int32_t t0 = -1;
  std::int32_t t1 = -1;
  std::int32_t a = 0;
  std::uint64_t imm = 0;  // kAssignConst / kNbConst payload
};

// The immutable compiled form of one Design. Shared (like the Design
// itself) across every Simulation instantiated from it — sweep legs and
// repeated harness runs reuse one plan via compiled_plan().
struct CompiledDesign {
  std::shared_ptr<const Design> design;

  std::vector<TOp> ops;
  std::vector<TapeRef> tapes;
  int max_stack = 0;

  // Levelized continuous assigns, in declaration order; level_of[i] is the
  // topological level of node i (0 = reads no other assign's target).
  // `tape` is the original expression (the reference semantics, used for
  // lazy forcing); `exec_tape` is what flush_comb runs — the same tape, or
  // a fused copy with single-reader producers spliced in.
  struct Node {
    int target = -1;
    int tape = -1;
    int exec_tape = -1;
    int level = 0;
  };
  std::vector<Node> nodes;
  int num_levels = 0;

  // Single-reader fusion results. node_of[sig] is the node driving sig
  // (-1 when sig is not an assign target). A *lazy* node's target is
  // observed by nothing inside the design (no process tape, no trigger,
  // no other eager assign) — typically an output port at the end of a
  // fused chain — so it is excluded from delta scheduling entirely and
  // recomputed on demand by CompiledSim::peek. num_eager counts the nodes
  // that still run in flush_comb.
  std::vector<std::int32_t> node_of;
  std::vector<std::uint8_t> node_lazy;
  int num_eager = 0;

  // CSR: signal -> assign nodes reading it (the dep_map equivalent).
  std::vector<std::int32_t> fan_index;
  std::vector<std::int32_t> fan_nodes;

  // CSR: signal -> processes triggered by a change of it.
  struct Trigger {
    std::int32_t proc;
    Edge edge;
  };
  std::vector<std::int32_t> trig_index;
  std::vector<Trigger> trigs;

  // Compiled process bodies, in design process order (wake order matters:
  // the scheduler always runs the lowest-index ready process first).
  struct ProcMeta {
    int entry = 0;        // index into prog
    bool is_always = false;
    bool initially_ready = false;  // initial bodies run at time 0
    std::string origin;
  };
  std::vector<PInstr> prog;
  std::vector<ProcMeta> procs;

  // Direct dispatch for `case` over an unsigned scalar with all-constant
  // unsigned labels (the emitted FSM's state case): arms sorted by value
  // for binary search, first-match-wins duplicates already dropped.
  // Zero-extended equality over a shared context equals raw u64 equality,
  // so the lookup is exactly the chained-compare semantics.
  struct CaseTable {
    std::vector<std::pair<std::uint64_t, std::int32_t>> arms;  // value -> pc
    std::int32_t def_pc = 0;  // default body (or exit) when no arm matches
  };
  std::vector<CaseTable> case_tables;

  std::vector<std::uint64_t> sig_mask;  // per-signal width mask
};

// Attempts to levelize + compile `design`. Returns nullptr if the design
// is not cycle-schedulable, storing a human-readable reason in *why (may
// be nullptr). Emits a "vsim.compile" span with levels/nodes/procs args.
std::shared_ptr<const CompiledDesign> compile_design(
    const std::shared_ptr<const Design>& design, std::string* why);

// Process-wide memoized compile_design keyed by Design identity: every
// Simulation (and so every sweep leg / harness replay) sharing one
// elaborated design shares one plan. Failures are memoized too, so
// event-only designs pay the classification walk once. Thread-safe.
// Cache hits/misses are counted as vsim.plan_cache.{hits,misses}.
std::shared_ptr<const CompiledDesign> compiled_plan(
    const std::shared_ptr<const Design>& design, std::string* why);

// The cycle-based execution engine over one CompiledDesign. Mirrors the
// externally observable behavior of the event kernel: poke/settle
// delta-cycle semantics (flush changed comb cone in level order, run the
// lowest-index ready process, commit NBAs in assignment order, repeat)
// and SimStats events/nba_commits/delta_cycles. Time never advances on
// this engine. Its event and commit totals reach the metrics registry as
// vsim.events / vsim.nba_commits when it is destroyed.
class CompiledSim {
 public:
  CompiledSim(std::shared_ptr<const CompiledDesign> cd, const SimConfig& cfg);
  ~CompiledSim();
  CompiledSim(const CompiledSim&) = delete;
  CompiledSim& operator=(const CompiledSim&) = delete;

  void poke(int sig, std::uint64_t value);
  // Lazy node targets are recomputed here on demand; forcing only touches
  // shadow state invisible to the rest of the simulation (logical const).
  std::uint64_t peek(int sig) const {
    const std::int32_t n = cd_->node_of[static_cast<std::size_t>(sig)];
    if (n >= 0 && cd_->node_lazy[static_cast<std::size_t>(n)])
      const_cast<CompiledSim*>(this)->force_lazy(n);
    return val_[static_cast<std::size_t>(sig)];
  }
  long long peek_signed(int sig) const;
  std::uint64_t peek_elem(int sig, int index) const;
  void settle();

  const SimStats& stats() const { return stats_; }

 private:
  [[noreturn]] void fail_budget(int proc) const;
  std::uint64_t run_tape(int tape);
  void set_scalar(int sig, std::uint64_t v);
  void set_elem(int sig, long long index, std::uint64_t v);
  void force_lazy(int node);
  void mark_fanout(int sig);
  void trigger(int sig, bool pos, bool neg, bool any);
  void flush_comb();
  void commit_nba();
  void run_proc(int p);

  std::shared_ptr<const CompiledDesign> cd_;
  SimConfig cfg_;
  std::vector<std::uint64_t> val_;
  std::vector<std::vector<std::uint64_t>> arr_;
  std::vector<std::uint64_t> stack_;

  // Activity gating: per-level pending buckets + membership flags.
  std::vector<std::vector<std::int32_t>> level_q_;
  std::vector<char> node_pending_;
  long long pending_ = 0;

  std::vector<char> ready_;
  int ready_count_ = 0;
  int running_proc_ = -1;

  struct NbaEntry {
    int sig;
    long long index;  // -1 for scalars, else array index or bit position
    std::uint64_t value;
  };
  std::vector<NbaEntry> nba_;
  std::vector<NbaEntry> nba_scratch_;  // commit-time swap target, capacity kept

  long long slot_instr_base_ = 0;
  SimStats stats_;
  long long comb_evals_ = 0;
  long long gated_evals_ = 0;
};

}  // namespace hlsw::vsim
