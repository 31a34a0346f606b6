// Compiled execution plan: the one engine behind both IR executors.
//
// hls::Interpreter (the untimed C model) and rtl::Simulator (the scheduled
// hardware) run the same compiled program. ExecPlan walks every region,
// every iteration k and every scheduled cycle c of a Schedule and emits a
// flat table of compact PlanOp records grouped into spans,
// spans[k*depth + c], so execution touches exactly the ops of each
// (iteration, cycle) pair and nothing else.
//
// The plan is specialized PER ITERATION: because every operand's
// fractional width is statically derivable (state reads carry their
// port/static type, converted results carry their op's result type, and
// guard-skipped producers deterministically yield a fresh zero with
// fw = 0), the alignment shifts, conversion shift/rounding/saturation
// constants and affine array indices of each (iteration, cycle) pair are
// baked at construction. The runtime loop therefore performs no guard
// checks, no type derivation and no index evaluation — it only moves
// values and applies pre-parameterized arithmetic.
//
// There is one executor, a template over the component type of a region's
// value slots: slot i is the pair vals[2i] (re) / vals[2i + 1] (im). Where
// static interval propagation proves every value of a region fits in
// int64 ("narrow"), the region runs on long long pairs; elsewhere on
// __int128 pairs. FxValue materializes only at the var/array state
// boundary, where its fw and cplx are baked constants of the conversion.
//
// The two IR executors differ only in the schedule they compile and in
// the write sink they run with, never in the compiler:
//  * untimed — untimed_schedule(f) places every op of a block in one
//    cycle with loops unpipelined, and hls::Interpreter's sink lands array
//    writes at once, in program order: exactly the sequential C semantics;
//  * timed — the synthesized schedule, whose cycle buckets and pipelined
//    iteration overlap the plan preserves, with a sink that defers array
//    writes to the end of each cycle (rtl::Simulator commits them at the
//    clock edge, so reads observe start-of-cycle state).
//
// A sink is the executor's view of the machine: the state it reads and
// where its writes go. Any type with these members (all inlined into the
// executor) will do:
//   std::vector<FxValue>& vars();                       // var state
//   const std::vector<std::vector<FxValue>>& arrays();  // as reads see it
//   void write(int array, int idx, const FxValue& v);   // element write
//   void read(int array);                       // one array element read
//   void ops(std::size_t region, long long n);  // one span's op count
//   void enter(std::size_t region, const RegionPlan& rp);  // once per run
//   void end_cycle();                           // after every cycle
//
// The interpretive reference both executors are pinned against is exec_op
// + fx_convert (hls/interp.h), run op by op by rtl::Simulator under
// SimOptions::compiled = false.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "hls/ir.h"

namespace hlsw::hls {

struct Schedule;

// Pre-baked fixed-point conversion: everything fx_convert() derives from
// the destination FxType and the source width, resolved once — plus a mode
// classifying how much of the general algorithm this particular conversion
// can actually need. The mode is proved by static interval propagation
// over the plan (every slot's raw-value range is known at compile time),
// which demotes most conversions to a bare shift.
struct ConvSpec {
  enum class Mode : unsigned char {
    kShiftUp,    // shift >= 0, overflow impossible: raw << shift
    kShiftDown,  // shift < 0, truncating, overflow impossible: raw >> -shift
    kRound,      // shift < 0, rounding, overflow impossible
    kFull,       // general path (rounding + saturation/wrap)
  };
  int shift = 0;   // dst.fw() - src_fw
  int out_fw = 0;  // dst.fw()
  int w = 0;       // dst width (saturation/wrap bounds, derived on demand)
  Mode mode = Mode::kFull;
  fixpt::Quant q = fixpt::Quant::kTrn;
  fixpt::Ovf o = fixpt::Ovf::kWrap;
  bool sgn = true;
  bool out_cplx = false;
};

// Compact op record with pre-resolved operand slots and pre-decoded
// targets; ordered by (iteration, cycle, program index) in its region
// table. Skipped (guarded-out) ops are not emitted at all.
struct PlanOp {
  OpKind kind = OpKind::kConst;
  int dst = 0;             // value slot (== op index in the block)
  int a0 = -1, a1 = -1;    // operand slots, -1 = absent
  int target = -1;         // var or array state index
  int idx = -1;            // baked affine index (memory ops; -1 = OOB);
                           // for kConst: index into the constant pool
  int sa = 0, sb = 0;      // pre-add alignment shifts (add/sub/mk_cplx)
  ConvSpec conv;           // conversion into the result/storage type
};

struct PlanSpan {
  int begin = 0, end = 0;  // [begin, end) into RegionPlan::ops
};

struct RegionPlan {
  bool pipelined = false;
  // Interval analysis proved every slot value, aligned operand and
  // pre-conversion intermediate of this region fits in int64: its value
  // slots are long long pairs instead of __int128 pairs.
  bool narrow = false;
  int trip = 1;
  int ii = 0;        // > 0: pipelined
  int depth = 0;     // body cycles
  int nops = 0;      // block op count (value-slot count)
  int ctx_base = 0;  // first value buffer in the plan's narrow or wide
                     // pool (pipelined: trip buffers, one per in-flight
                     // iteration; else one)
  std::vector<PlanOp> ops;      // per-(iteration, cycle) specialized records
  std::vector<PlanSpan> spans;  // trip * depth entries: spans[k*depth + c]
  // Sequential loops reuse one value buffer across iterations, so the slot
  // of an op that becomes guard-skipped at iteration k (== its guard_trip)
  // is zeroed there — consumers must observe the fresh-zero value the
  // interpretive path's per-iteration vectors provide. Pipelined loops
  // have a dedicated buffer per iteration whose skipped slots are simply
  // never written after their zero initialization.
  std::vector<int> zero_slots;
  std::vector<PlanSpan> zero_spans;  // trip entries into zero_slots
};

// The one-cycle, unpipelined schedule of `f`: every op of every block in
// cycle 0, loops sequential. A plan compiled from it and run with a sink
// that writes arrays immediately executes regions in order, ops in
// program order and loops iteration by iteration — the untimed C
// semantics.
Schedule untimed_schedule(const Function& f);

// Installs the initial architectural state of `f`: vars at their init
// values, arrays zeroed, each carrying its declared fw and complex flag.
void initial_state(const Function& f, std::vector<FxValue>* vars,
                   std::vector<std::vector<FxValue>>* arrays);

class ExecPlan {
 public:
  // Compiles `f` under schedule `s` (one RegionSchedule per region). The
  // plan keeps no reference to either: it is self-contained and copyable.
  ExecPlan(const Function& f, const Schedule& s);

  const std::vector<RegionPlan>& regions() const { return regions_; }
  // Peak array writes any single cycle can issue (pipelined overlap
  // included): the capacity a deferring sink needs to never reallocate.
  std::size_t max_writes_per_cycle() const { return max_writes_per_cycle_; }

  // Executes every region once against the sink's state, indexed like the
  // compiled Function's vars/arrays.
  template <class Sink>
  void run(Sink& sink);

 private:
  // T is the slot component type (long long or __int128), U its unsigned
  // twin; `bufs` are the region's value buffers.
  template <class T, class U, class Sink>
  void run_region(const RegionPlan& rp, std::size_t region,
                  std::vector<T>* bufs, Sink& sink);
  template <class T, class U, class Sink>
  void exec_span(const RegionPlan& rp, std::size_t region, int span_index,
                 T* vals, Sink& sink);
  [[noreturn]] void out_of_bounds(const char* what, int array) const;

  std::vector<RegionPlan> regions_;
  std::vector<FxValue> const_pool_;  // kConst payloads (PlanOp::idx)
  std::vector<std::string> array_names_;  // out-of-bounds diagnostics
  std::size_t max_writes_per_cycle_ = 0;
  // Per-region value buffers, allocated once at construction and reused
  // across all runs (no per-iteration allocation or zero-fill): narrow
  // regions take theirs from the int64 pool, the rest from the int128 one.
  std::vector<std::vector<long long>> narrow_pool_;
  std::vector<std::vector<__int128>> wide_pool_;
};

// ---- Executor ----------------------------------------------------------------

namespace plan_detail {

// Saturation bounds of a (w, sgn) format; mirror the definitions in
// hls/ir.cpp (the conversion constants baked here must be bit-identical to
// what fx_convert derives per call).
template <class T>
inline T max_raw(int w, bool sgn) {
  return (static_cast<T>(1) << (sgn ? w - 1 : w)) - 1;
}
template <class T>
inline T min_raw(int w, bool sgn) {
  return sgn ? -(static_cast<T>(1) << (w - 1)) : 0;
}

// Rounded floor-shift shared by the kRound and kFull paths — bit-identical
// to the shift-negative branch of hls::fx_convert_component. In a narrow
// region T = long long: the plan proved every value and constant fits, so
// the result equals the 128-bit one.
template <class T>
inline T conv_round(T raw, const ConvSpec& cs) {
  const int d = -cs.shift;
  const T base = raw >> d;  // arithmetic shift: floor
  const bool msb = ((raw >> (d - 1)) & 1) != 0;
  const bool rest =
      d >= 2 && (raw & ((static_cast<T>(1) << (d - 1)) - 1)) != 0;
  const bool neg = raw < 0;
  const bool lsb_kept = (base & 1) != 0;
  return base +
         (fixpt::round_increment(cs.q, msb, rest, neg, lsb_kept) ? 1 : 0);
}

// Applies a pre-baked conversion to one raw component — bit-identical to
// hls::fx_convert_component with shift and rounding mode resolved at plan
// compile time, and the saturation/wrap stage dropped entirely when the
// plan's interval analysis proved overflow impossible (the common case).
// U is T's unsigned twin, named explicitly: std::make_unsigned does not
// accept __int128 under strict ISO C++.
template <class T, class U>
inline T conv_comp(T raw, const ConvSpec& cs) {
  using Mode = ConvSpec::Mode;
  switch (cs.mode) {
    case Mode::kShiftUp:
      return raw << cs.shift;
    case Mode::kShiftDown:
      return raw >> -cs.shift;
    case Mode::kRound:
      return conv_round(raw, cs);
    case Mode::kFull:
      break;
  }
  const T v = cs.shift >= 0 ? raw << cs.shift : conv_round(raw, cs);
  const T hi = max_raw<T>(cs.w, cs.sgn);
  const T lo = (cs.o == fixpt::Ovf::kSatSym && cs.sgn)
                   ? -hi
                   : min_raw<T>(cs.w, cs.sgn);
  if (v > hi || v < lo) {
    switch (cs.o) {
      case fixpt::Ovf::kSat:
      case fixpt::Ovf::kSatSym:
        return v > hi ? hi : lo;
      case fixpt::Ovf::kSatZero:
        return 0;
      case fixpt::Ovf::kWrap: {
        const U mask = (static_cast<U>(1) << cs.w) - 1;
        U u = static_cast<U>(v) & mask;
        if (cs.sgn && (u >> (cs.w - 1)) & 1) u |= ~mask;  // sign extend
        return static_cast<T>(u);
      }
    }
  }
  return v;
}

// Converts a component pair into the baked destination format and
// materializes the FxValue for the var/array state boundary.
template <class T, class U>
inline FxValue conv_pair(T re, T im, const ConvSpec& cs) {
  FxValue out;
  out.fw = cs.out_fw;
  out.cplx = cs.out_cplx;
  out.re = conv_comp<T, U>(re, cs);
  out.im = cs.out_cplx ? conv_comp<T, U>(im, cs) : 0;
  return out;
}

}  // namespace plan_detail

template <class Sink>
void ExecPlan::run(Sink& sink) {
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RegionPlan& rp = regions_[r];
    sink.enter(r, rp);
    const std::size_t base = static_cast<std::size_t>(rp.ctx_base);
    if (rp.narrow)
      run_region<long long, unsigned long long>(rp, r, &narrow_pool_[base],
                                                sink);
    else
      run_region<__int128, unsigned __int128>(rp, r, &wide_pool_[base], sink);
  }
}

template <class T, class U, class Sink>
void ExecPlan::run_region(const RegionPlan& rp, std::size_t region,
                          std::vector<T>* bufs, Sink& sink) {
  if (!rp.pipelined) {
    // Straight block (trip 1) or sequential loop: one value buffer reused
    // across iterations and runs. Every executed op rewrites its slot each
    // iteration, so the only refresh needed is the zero-list: slots whose
    // producer becomes guard-skipped at this iteration.
    T* vals = bufs->data();
    for (int k = 0; k < rp.trip; ++k) {
      const PlanSpan zs = rp.zero_spans[static_cast<std::size_t>(k)];
      for (int z = zs.begin; z < zs.end; ++z) {
        const int s = rp.zero_slots[static_cast<std::size_t>(z)];
        vals[2 * s] = 0;
        vals[2 * s + 1] = 0;
      }
      for (int c = 0; c < rp.depth; ++c) {
        exec_span<T, U>(rp, region, k * rp.depth + c, vals, sink);
        sink.end_cycle();
      }
    }
    return;
  }

  // Pipelined loop: iteration k occupies global cycles
  // [k*ii, k*ii + depth); earlier iterations execute first in a cycle.
  // Only the active iteration window [k_lo, k_hi] is visited per cycle.
  // Each iteration has its own value buffer; guard-skipped slots were
  // zeroed at construction and are never written, so no per-run refresh.
  const int total = rp.depth + (rp.trip - 1) * rp.ii;
  for (int t = 0; t < total; ++t) {
    const int k_hi = std::min(rp.trip - 1, t / rp.ii);
    const int k_lo = t < rp.depth ? 0 : (t - rp.depth) / rp.ii + 1;
    for (int k = k_lo; k <= k_hi; ++k)
      exec_span<T, U>(rp, region, k * rp.depth + (t - k * rp.ii),
                      bufs[k].data(), sink);
    sink.end_cycle();
  }
}

template <class T, class U, class Sink>
void ExecPlan::exec_span(const RegionPlan& rp, std::size_t region,
                         int span_index, T* vals, Sink& sink) {
  using plan_detail::conv_comp;
  using plan_detail::conv_pair;
  const PlanSpan sp = rp.spans[static_cast<std::size_t>(span_index)];
  // Spans contain exactly the ops the interpretive path would execute for
  // this (iteration, cycle), so one bulk count keeps op totals identical.
  sink.ops(region, sp.end - sp.begin);
  const PlanOp* const end = rp.ops.data() + sp.end;
  for (const PlanOp* it = rp.ops.data() + sp.begin; it != end; ++it) {
    const PlanOp& p = *it;
    T* d = vals + 2 * p.dst;
    switch (p.kind) {
      case OpKind::kConst: {
        const FxValue& c = const_pool_[static_cast<std::size_t>(p.idx)];
        d[0] = static_cast<T>(c.re);
        d[1] = static_cast<T>(c.im);
        break;
      }
      case OpKind::kVarRead: {
        // Scalar registers forward: reads observe the latest write.
        const FxValue& v = sink.vars()[static_cast<std::size_t>(p.target)];
        d[0] = static_cast<T>(v.re);
        d[1] = static_cast<T>(v.im);
        break;
      }
      case OpKind::kVarWrite:
        sink.vars()[static_cast<std::size_t>(p.target)] =
            conv_pair<T, U>(vals[2 * p.a0], vals[2 * p.a0 + 1], p.conv);
        break;
      case OpKind::kArrayRead: {
        if (p.idx < 0) out_of_bounds("read", p.target);
        sink.read(p.target);
        const FxValue& v = sink.arrays()[static_cast<std::size_t>(p.target)]
                                        [static_cast<std::size_t>(p.idx)];
        d[0] = static_cast<T>(v.re);
        d[1] = static_cast<T>(v.im);
        break;
      }
      case OpKind::kArrayWrite:
        if (p.idx < 0) out_of_bounds("write", p.target);
        sink.write(p.target, p.idx,
                   conv_pair<T, U>(vals[2 * p.a0], vals[2 * p.a0 + 1], p.conv));
        break;
      case OpKind::kAdd: {
        const T ar = vals[2 * p.a0] << p.sa;
        const T ai = vals[2 * p.a0 + 1] << p.sa;
        const T br = vals[2 * p.a1] << p.sb;
        const T bi = vals[2 * p.a1 + 1] << p.sb;
        d[0] = conv_comp<T, U>(ar + br, p.conv);
        d[1] = p.conv.out_cplx ? conv_comp<T, U>(ai + bi, p.conv) : 0;
        break;
      }
      case OpKind::kSub: {
        const T ar = vals[2 * p.a0] << p.sa;
        const T ai = vals[2 * p.a0 + 1] << p.sa;
        const T br = vals[2 * p.a1] << p.sb;
        const T bi = vals[2 * p.a1 + 1] << p.sb;
        d[0] = conv_comp<T, U>(ar - br, p.conv);
        d[1] = p.conv.out_cplx ? conv_comp<T, U>(ai - bi, p.conv) : 0;
        break;
      }
      case OpKind::kMul: {
        const T ar = vals[2 * p.a0], ai = vals[2 * p.a0 + 1];
        const T br = vals[2 * p.a1], bi = vals[2 * p.a1 + 1];
        d[0] = conv_comp<T, U>(ar * br - ai * bi, p.conv);
        d[1] = p.conv.out_cplx ? conv_comp<T, U>(ar * bi + ai * br, p.conv)
                               : 0;
        break;
      }
      case OpKind::kNeg:
        d[0] = conv_comp<T, U>(-vals[2 * p.a0], p.conv);
        d[1] = p.conv.out_cplx ? conv_comp<T, U>(-vals[2 * p.a0 + 1], p.conv)
                               : 0;
        break;
      case OpKind::kCast:
        d[0] = conv_comp<T, U>(vals[2 * p.a0], p.conv);
        d[1] = p.conv.out_cplx ? conv_comp<T, U>(vals[2 * p.a0 + 1], p.conv)
                               : 0;
        break;
      case OpKind::kSignConj:
        d[0] = vals[2 * p.a0] >= 0 ? 1 : -1;
        d[1] = vals[2 * p.a0 + 1] >= 0 ? -1 : 1;
        break;
      case OpKind::kReal:
        d[0] = vals[2 * p.a0];
        d[1] = 0;
        break;
      case OpKind::kImag:
        d[0] = vals[2 * p.a0 + 1];
        d[1] = 0;
        break;
      case OpKind::kMakeComplex:
        // Second operand's REAL part becomes the imaginary component,
        // aligned like fx_add (see exec_op in hls/interp.cpp).
        d[0] = conv_comp<T, U>(vals[2 * p.a0] << p.sa, p.conv);
        d[1] = p.conv.out_cplx
                   ? conv_comp<T, U>(vals[2 * p.a1] << p.sb, p.conv)
                   : 0;
        break;
    }
  }
}

}  // namespace hlsw::hls
